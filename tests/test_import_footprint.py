"""``import repro`` stays light: heavy optional libraries load on use.

Sweep workers and every CLI run import the package first, so a
module-level import of networkx (graph workloads), scipy (estimators,
similarity) or the stdlib HTTP/TLS stack (``repro.obs.serve``) costs
every process its memory and start-up time.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


@pytest.mark.parametrize("module", ["networkx", "scipy", "ssl",
                                    "http.server", "http.client",
                                    "urllib.request"])
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
