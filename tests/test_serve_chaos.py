"""Gateway chaos: injected faults degrade service, never crash it.

A brownout collapses the backend mid-run; the gateway must keep its
loop alive, surface the refused work as 503-style outcomes, trigger
re-characterization, and recover once the fault window closes.  SIGTERM
must drain in-flight coalesced batches before exit.
"""

import hashlib
import os
import signal
import subprocess
import sys
import time

from repro.faults.injector import FaultInjector
from repro.faults.models import Brownout
from repro.faults.schedule import FaultSchedule
from repro.obs.metrics import Histogram
from repro.serve import GatewayConfig
from tests.test_serve import ZONES, assert_conservation, make_gateway

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _brownout(start, end, failure_rate=1.0):
    """A total brownout over every rig zone for ``[start, end)``."""
    return FaultSchedule([Brownout(failure_rate=failure_rate,
                                   capacity_factor=0.05,
                                   zones=list(ZONES),
                                   start=start, end=end)])


def _phase_outcomes(events, start, end):
    """(served, failed) per phase from ``serve.batch`` event timestamps."""
    phases = {"before": [0, 0], "during": [0, 0], "after": [0, 0]}
    for event in events:
        if event.timestamp < start:
            phase = "before"
        elif event.timestamp < end:
            phase = "during"
        else:
            phase = "after"
        phases[phase][0] += event.fields["served"]
        phases[phase][1] += event.fields["failed"]
    return phases


class TestBrownout(object):
    def test_brownout_degrades_then_recovers(self):
        # 300 rps is comfortably inside the two test zones' capacity, so
        # every pre/post-window failure is attributable to the fault.
        config = GatewayConfig(flush_deadline_s=0.1)
        gateway = make_gateway(seed=13, rate_rps=300.0, config=config)
        FaultInjector(_brownout(2.0, 4.0), seed=13).install(gateway.cloud)
        report = gateway.run_sync(6.0)

        # The loop survived the whole window and kept its books straight.
        assert report.sim_seconds > 5.9
        assert_conservation(report)
        assert report.failed > 0
        assert report.served > 0

        phases = _phase_outcomes(
            gateway.obs.recorder.events("serve.batch"), 2.0, 4.0)
        for phase in ("before", "during", "after"):
            assert sum(phases[phase]) > 0, phase
        rejected_rate = {
            phase: failed / (served + failed)
            for phase, (served, failed) in phases.items()}
        # Healthy before, degraded during, healthy again after.  The
        # brownout collapses *placement* capacity to 5%, but FIs that
        # were already warm keep serving — so the degradation is a
        # rising 503 rate, not a total outage.
        assert rejected_rate["before"] < 0.05
        assert rejected_rate["during"] > 0.05
        assert rejected_rate["after"] < 0.05

    def test_brownout_failures_surface_as_503_outcomes(self):
        config = GatewayConfig(flush_deadline_s=0.1)
        gateway = make_gateway(seed=17, rate_rps=300.0, config=config)
        FaultInjector(_brownout(1.0, 2.0), seed=17).install(gateway.cloud)
        report = gateway.run_sync(3.0)
        registry = gateway.obs.registry
        failed = registry.counter("serve_requests_total", outcome="failed")
        assert failed.value == report.failed > 0

    def test_error_window_triggers_recharacterization(self):
        # A long brownout with a short cooldown: the failure-rate signal
        # must enqueue refresh attempts (which themselves may fail
        # against the browned-out zone — that must not crash either).
        config = GatewayConfig(recharacterize_cooldown_s=1.0,
                               flush_deadline_s=0.1,
                               recharacterize_failure_rate=0.05)
        gateway = make_gateway(seed=19, rate_rps=300.0, config=config)
        FaultInjector(_brownout(1.0, 5.0), seed=19).install(gateway.cloud)
        report = gateway.run_sync(6.0)
        assert_conservation(report)
        attempts = gateway.obs.recorder.events("serve.recharacterize")
        assert attempts
        assert all(e.fields["reason"] == "errors" for e in attempts)

    def test_scalar_path_survives_brownout(self):
        config = GatewayConfig(batch_floor=10 ** 6)  # force scalar
        gateway = make_gateway(seed=23, rate_rps=200.0, config=config)
        FaultInjector(_brownout(0.5, 1.5), seed=23).install(gateway.cloud)
        report = gateway.run_sync(2.0)
        assert report.batches_coalesced == 0
        assert report.failed > 0
        assert_conservation(report)


class TestSigtermDrain(object):
    def test_cli_sigterm_drains_and_finalizes(self, tmp_path):
        """SIGTERM mid-run: in-flight batches drain, the manifest
        finalizes complete, and the process exits 0."""
        record = tmp_path / "serve-run"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "--seed", "11", "serve",
             "--zones", "us-west-1a,us-west-1b", "--rps", "500",
             "--duration", "3600", "--pace", "0.05",
             "--record", str(record)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True)
        try:
            time.sleep(8.0)  # let it characterize and serve a while
            process.send_signal(signal.SIGTERM)
            output = process.communicate(timeout=60.0)[0]
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "served" in output
        assert "recorded" in output
        manifest = record / "manifest.json"
        assert manifest.exists()
        assert '"status": "complete"' in manifest.read_text()


def _bits(value):
    """A field value rendered exactly: floats by ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return tuple((key, _bits(value[key])) for key in sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(_bits(item) for item in value)
    return repr(value)


def _digest(parts):
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def _metric_bits(metric):
    if isinstance(metric, Histogram):
        return (metric.count, tuple(metric.bucket_counts),
                _bits(metric.sum), _bits(metric.min), _bits(metric.max),
                _bits(list(metric._reservoir)), metric._rng.getstate())
    return _bits(metric.value)


def _brownout_run_digests(seed, rate_rps, deadline_s, cooldown_s,
                          trigger_rate, failure_rate, capacity_factor):
    """Digests of one seeded brownout run's event transcript, report,
    registry and account spend, plus its batch and re-characterization
    counts (so a pin also shows what the run exercised)."""
    config = GatewayConfig(flush_deadline_s=deadline_s,
                           recharacterize_cooldown_s=cooldown_s,
                           recharacterize_failure_rate=trigger_rate)
    gateway = make_gateway(seed=seed, rate_rps=rate_rps, config=config)
    # One refresh poll, small enough to fit beside the served load (a
    # refresh moves the sim clock by its poll gaps).
    gateway.controller.poll_requests = 200
    gateway.controller.polls_per_refresh = 1
    FaultInjector(FaultSchedule([Brownout(
        failure_rate=failure_rate, capacity_factor=capacity_factor,
        zones=list(ZONES), start=1.0, end=2.5)]),
        seed=seed).install(gateway.cloud)
    report = gateway.run_sync(4.0)
    events = [(event.name, event.timestamp.hex(), _bits(event.fields))
              for event in gateway.obs.recorder.events()]
    registry = [(name, kind, _bits(labels), _metric_bits(metric))
                for name, kind, labels, metric
                in gateway.obs.registry.collect()]
    account = gateway.controller.account
    spend = (account.total_spend().usd.hex(),
             _bits(account.spend_breakdown()))
    report_bits = (report.aggregate_key(), _bits(report.to_dict()),
                   _metric_bits(report.histogram))
    return {"events": _digest(events), "report": _digest(report_bits),
            "registry": _digest(registry), "spend": _digest(spend),
            "recharacterizations": report.recharacterizations,
            "coalesced": report.batches_coalesced,
            "scalar": report.batches_scalar, "failed": report.failed,
            "event_count": len(events)}


#: Digests of seeded brownout runs, recorded before the gateway's
#: per-interval yield, the single post-draw pass in ``poll_batch``, the
#: merged-profile memo and the running ledger folds; each of those must
#: leave every run's transcript, report, registry and spend bit-identical.
#: Keys are ``_brownout_run_digests`` arguments: seed, offered rps, flush
#: deadline, re-characterization cooldown and trigger rate, brownout
#: failure rate and capacity factor.
PINNED_BROWNOUT_RUNS = {
    # Mostly coalesced; refresh attempts fail against the saturated zone.
    (13, 1500.0, 0.01, 0.2, 0.05, 0.5, 1.0): {
        "events": "d8ee377f5c30addb", "report": "4759b11fbbce7bf7",
        "registry": "dc7606f6180d8670", "spend": "8d219466f1fc6289",
        "recharacterizations": 0, "coalesced": 239, "scalar": 95,
        "failed": 3977, "event_count": 2752},
    # One successful re-characterization mid-run.
    (3, 200.0, 0.1, 0.05, 0.05, 0.9, 1.0): {
        "events": "2bb74a3d278eeae4", "report": "9160afc0335889d5",
        "registry": "9227d9cba603b807", "spend": "e35267f883d604ff",
        "recharacterizations": 1, "coalesced": 24, "scalar": 5,
        "failed": 22, "event_count": 227},
    # A re-characterization every cooldown.
    (11, 300.0, 0.05, 0.3, 0.0, 0.5, 0.5): {
        "events": "71aaf1be388d8f2a", "report": "009d704d935dac00",
        "registry": "d49eba8bc04d805e", "spend": "244bcb02ca5558da",
        "recharacterizations": 4, "coalesced": 3, "scalar": 4,
        "failed": 10, "event_count": 146},
}


class TestPinnedBrownoutTranscripts(object):
    def test_runs_match_pinned_digests(self):
        for args, pinned in PINNED_BROWNOUT_RUNS.items():
            assert _brownout_run_digests(*args) == pinned, args
