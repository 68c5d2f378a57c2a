"""The event catalog: every emitted event is catalogued, and the bridge
creates and updates exactly the series its rows declare."""

import os
import re

import pytest

from repro.obs import EVENT_METRICS, UNBRIDGED, Observability
from repro.obs.catalog import (
    BATCH_SIZE_BUCKETS,
    BREAKER_STATE_CODES,
    Constant,
    Field,
    Lookup,
    catalog_markdown,
)
from repro.obs.metrics import COUNTER, GAUGE
from repro.obs.ship import WALL_MS_BUCKETS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
#: ``bus.emit("name"`` and the engine's ``self._emit("name"``.
EMIT = re.compile(r"""(?<![A-Za-z])_?emit\(\s*["']([a-z_.]+)["']""")


def emitted_names():
    names = set()
    for directory, _, files in os.walk(SRC):
        for filename in files:
            if filename.endswith(".py"):
                with open(os.path.join(directory, filename)) as handle:
                    names.update(EMIT.findall(handle.read()))
    return names


class TestCatalogCoverage(object):
    def test_every_emitted_event_is_catalogued(self):
        names = emitted_names()
        assert "serve.batch" in names  # the scan itself works
        missing = names - set(EVENT_METRICS) - UNBRIDGED
        assert not missing, sorted(missing)

    def test_no_row_waits_for_an_event_nobody_emits(self):
        stale = (set(EVENT_METRICS) | UNBRIDGED) - emitted_names()
        assert not stale, sorted(stale)

    def test_bridged_and_unbridged_are_disjoint(self):
        assert not set(EVENT_METRICS) & UNBRIDGED

    def test_api_docs_carry_the_generated_reference(self):
        with open(os.path.join(REPO_ROOT, "docs", "api.md")) as handle:
            assert catalog_markdown() in handle.read()


def _fields_for(rows):
    """Distinct, non-zero field values for every field the rows read."""
    fields = {}
    for row in rows:
        for field in row.labels:
            fields[field.name] = "v-" + field.name
        value = row.value
        if isinstance(value, Field):
            fields[value.name] = float(len(fields) + 2)
        elif isinstance(value, Lookup):
            fields[value.name] = next(iter(value.mapping))
    return fields


def _expected(row, fields):
    value = row.value
    if isinstance(value, Constant):
        return value.value
    if isinstance(value, Field):
        return fields[value.name]
    return value.mapping[fields[value.name]]


class TestBridgeFollowsTheRows(object):
    @pytest.mark.parametrize("name", sorted(EVENT_METRICS))
    def test_each_row_feeds_its_series(self, name):
        rows = EVENT_METRICS[name]
        fields = _fields_for(rows)
        obs = Observability()
        for _ in range(2):
            obs.bus.emit(name, 1.0, **fields)
        for row in rows:
            labels = {field.name: fields[field.name] for field in row.labels}
            labels.update(row.const)
            series = obs.registry.get(row.metric, **labels)
            assert series is not None, row.metric
            assert obs.registry.kind(row.metric) == row.kind
            expected = _expected(row, fields)
            if row.kind == COUNTER:
                assert series.value == 2 * expected
            elif row.kind == GAUGE:
                assert series.value == expected
            else:
                assert series.count == 2
                assert series.sum == 2 * expected
                if row.buckets is not None:
                    assert series.buckets == row.buckets

    def test_unbridged_events_touch_no_metric(self):
        obs = Observability()
        for name in sorted(UNBRIDGED):
            obs.bus.emit(name, 0.0, zone="z", cpu="c", count=3)
        assert len(obs.registry) == 0
        assert obs.recorder.count("host.reuse") == 1


class TestSeriesAppearAsBefore(object):
    def test_failed_requests_series_only_once_a_flush_fails(self):
        obs = Observability()
        batch = dict(zone="z", mode="coalesced", size=300, served=300,
                     cold_starts=0, cost_usd=0.5)
        obs.bus.emit("serve.batch", 0.0, failed=0, **batch)
        registry = obs.registry
        assert registry.labels_of("serve_requests_total") == [
            {"outcome": "served"}]
        obs.bus.emit("serve.batch", 0.0, failed=7, **batch)
        obs.bus.emit("serve.batch", 0.0, failed=0, **batch)
        assert registry.get("serve_requests_total",
                            outcome="failed").value == 7
        assert registry.get("serve_requests_total",
                            outcome="served").value == 900

    def test_cold_starts_only_for_fresh_instances(self):
        obs = Observability()
        invoke = dict(zone="z", cpu="c", latency_s=0.1, cost_usd=0.01)
        obs.bus.emit("cloud.invoke", 0.0, reused=True, **invoke)
        assert obs.registry.get("cold_starts_total", zone="z",
                                cpu="c") is None
        obs.bus.emit("cloud.invoke", 0.0, reused=False, **invoke)
        obs.bus.emit("cloud.invoke", 0.0, reused=True, **invoke)
        assert obs.registry.get("cold_starts_total", zone="z",
                                cpu="c").value == 1
        assert obs.registry.get("invocations_total", zone="z",
                                cpu="c").value == 3

    def test_hedge_wins_and_cell_failures_are_conditional(self):
        obs = Observability()
        obs.bus.emit("router.hedge", 0.0, zone="z", won=False)
        obs.bus.emit("sweep.cell", 0.0, ok=True, wall_ms=12.0)
        assert obs.registry.get("hedge_wins_total", zone="z") is None
        assert obs.registry.get("sweep_cell_failures_total") is None
        obs.bus.emit("router.hedge", 0.0, zone="z", won=True)
        obs.bus.emit("sweep.cell", 0.0, ok=False, wall_ms=12.0)
        assert obs.registry.get("hedge_wins_total", zone="z").value == 1
        assert obs.registry.get("sweep_cell_failures_total").value == 1

    def test_missing_fields_take_their_defaults(self):
        obs = Observability()
        obs.bus.emit("sweep.resumed", 0.0)
        obs.bus.emit("sweep.telemetry", 0.0)
        obs.bus.emit("sweep.telemetry_dropped", 0.0)
        registry = obs.registry
        assert registry.get("sweep_chunks_replayed_total").value == 0
        assert registry.get("sweep_cells_replayed_total").value == 0
        for metric, value in (("sweep_shipped_chunks_total", 1),
                              ("sweep_shipped_events_total", 0),
                              ("sweep_shipped_spans_total", 0),
                              ("sweep_telemetry_dropped_total", 0)):
            assert registry.get(metric, worker="unknown").value == value

    def test_breaker_state_codes(self):
        obs = Observability()
        for state, code in sorted(BREAKER_STATE_CODES.items()):
            obs.bus.emit("breaker.transition", 0.0, zone="z", to=state)
            assert obs.registry.get("breaker_state", zone="z").value == code
        obs.bus.emit("breaker.transition", 0.0, zone="z", to="weird")
        assert obs.registry.get("breaker_state", zone="z").value == -1
        assert len(obs.registry.labels_of("breaker_transitions_total")) == 4

    def test_count_and_millisecond_histograms_use_their_own_buckets(self):
        obs = Observability()
        obs.bus.emit("serve.batch", 0.0, zone="z", mode="coalesced",
                     size=300, served=300, failed=0, cold_starts=0,
                     cost_usd=0.0)
        obs.bus.emit("sweep.cell", 0.0, ok=True, wall_ms=1500.0)
        size = obs.registry.get("serve_batch_size", mode="coalesced")
        assert size.buckets == BATCH_SIZE_BUCKETS
        assert BATCH_SIZE_BUCKETS[0] == 1.0 and BATCH_SIZE_BUCKETS[-1] == 4096
        assert size.cumulative_buckets()[8] == (256.0, 0)
        assert size.cumulative_buckets()[9] == (512.0, 1)
        wall = obs.registry.get("sweep_cell_wall_ms")
        assert wall.buckets == WALL_MS_BUCKETS
        assert wall.bucket_counts[-1] == 0  # 1.5 s is not +Inf

    def test_cleared_registry_rebinds_series(self):
        obs = Observability()
        placement = dict(zone="z", requested=4, served=3, failed=1,
                         occupancy=0.5)
        obs.bus.emit("az.placement", 0.0, **placement)
        obs.registry.clear()
        obs.bus.emit("az.placement", 0.0, **placement)
        assert obs.registry.get("placements_total", zone="z").value == 1
        assert obs.registry.get("placement_served_total",
                                zone="z").value == 3
