"""``import repro`` stays light: heavy optional libraries load on use.

Sweep workers and every CLI run import the package first, so a
module-level import of networkx (graph workloads), scipy (estimators,
similarity), the stdlib HTTP/TLS stack (``repro.obs.serve``) or a
package module only some runs use (the remote sweep transport, run
manifests, exporters, fleet chaos, the study harness) costs every
process its memory and start-up time.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


#: Package modules ``import repro`` leaves to first use, with the name
#: each package still serves from it.
LAZY_MODULES = {
    "repro.engine.remote": ("repro.engine", "SweepWorker"),
    "repro.engine.protocol": ("repro.engine", "Transport"),
    "repro.engine.journal": ("repro.engine", "ChunkJournal"),
    "repro.engine.progress": ("repro", "SweepProgress"),
    "repro.obs.ship": ("repro.obs", "TelemetryCapture"),
    "repro.obs.manifest": ("repro.obs", "RunManifest"),
    "repro.obs.export": ("repro.obs", "export"),
    "repro.faults.fleet": ("repro.faults", "FleetChaos"),
    "repro.core.study": ("repro", "RoutingStudy"),
    "repro.reporting": None,
}


#: Every package that serves names lazily through
#: :func:`repro.common.lazy_exports.lazy_getattr`.
LAZY_PACKAGES = ("repro", "repro.obs", "repro.engine", "repro.core",
                 "repro.faults")


@pytest.mark.parametrize("module", ["networkx", "scipy", "ssl",
                                    "http.server", "http.client",
                                    "urllib.request", "socket",
                                    "subprocess"] + sorted(LAZY_MODULES))
def test_import_repro_does_not_load(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print({!r} in sys.modules)".format(module)],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    assert loaded == "False"


def test_obs_serve_names_still_import():
    from repro.obs import ObsServer, render_tail, scrape
    from repro.obs import serve

    assert (ObsServer, render_tail, scrape) == \
        (serve.ObsServer, serve.render_tail, serve.scrape)


def test_graph_workloads_still_run():
    import numpy as np

    from repro.workloads import workload_by_name

    for name in ("graph_mst", "graph_bfs"):
        workload = workload_by_name(name)
        data = workload.generate_input(np.random.default_rng(3), scale=0.1)
        assert workload.summarize(workload.run(data))


@pytest.mark.parametrize("module", sorted(
    name for name, served in LAZY_MODULES.items() if served))
def test_lazy_names_still_import(module):
    import importlib

    package, name = LAZY_MODULES[module]
    value = getattr(importlib.import_module(package), name)
    loaded = importlib.import_module(module)
    assert value is (loaded if module.endswith("." + name)
                     else getattr(loaded, name))


def test_unknown_name_still_raises():
    import repro.engine

    with pytest.raises(AttributeError):
        repro.engine.no_such_name


#: A worker after the fork server's preload: runs one campaign cell and
#: one short study cell, then prints the repro modules they imported.
WORKER_SCRIPT = """
import importlib, sys
from repro.engine.executor import FORKSERVER_PRELOAD
for name in FORKSERVER_PRELOAD:
    importlib.import_module(name)
before = set(sys.modules)
from repro.engine import CampaignTask, CloudSpec, StudyTask, run_task
zone = "us-west-1a"
spec = CloudSpec.for_zones([zone], seed=0)
run_task(CampaignTask(spec, zone, endpoints=3, n_requests=150,
                      max_polls=2))
run_task(StudyTask(spec, "sha1_hash", [zone], days=1, burst_size=20,
                   polls_per_day=1, sampling_count=1,
                   policy_specs=(("baseline",),)))
print(sorted(name for name in set(sys.modules) - before
             if name.startswith("repro")))
"""


def test_fork_server_preloads_what_workers_run():
    # The modules ``import repro`` leaves lazy must not cost a pool
    # worker an import on its first cell.
    env = dict(os.environ, PYTHONPATH=SRC)
    loaded = subprocess.run(
        [sys.executable, "-c", WORKER_SCRIPT], env=env,
        capture_output=True, text=True, check=True).stdout.strip()
    assert loaded == "[]"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    # A deleted module must not leave a lazy name behind that raises on
    # first use.
    import importlib

    module = importlib.import_module(package)
    for name in module.__all__:
        getattr(module, name)


@pytest.mark.parametrize("build", [
    "from repro.engine import CloudSpec; "
    "CloudSpec.for_zones(['us-west-1b']).build().zone('us-west-1b')",
    "from repro import build_sky; build_sky(aws_only=True)",
], ids=["one-region-spec", "aws-only-sky"])
def test_core_provider_builds_do_not_load_packs(build):
    # Only the installed regions' providers resolve, so a sky without
    # pack regions never imports the scenario-pack tables.
    env = dict(os.environ, PYTHONPATH=SRC)
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys; {}; print('repro.cloudsim.packs' in sys.modules)"
         .format(build)],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    assert loaded == "False"
