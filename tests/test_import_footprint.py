"""``import repro`` stays light: heavy optional libraries load on use.

Sweep workers and every CLI run import the package first, so a
module-level import of networkx (graph workloads) or scipy (estimators,
similarity) costs every process its memory and start-up time.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


@pytest.mark.parametrize("module", ["networkx", "scipy"])
def test_import_repro_does_not_load(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print({!r} in sys.modules)".format(module)],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    assert loaded == "False"


def test_graph_workloads_still_run():
    import numpy as np

    from repro.workloads import workload_by_name

    for name in ("graph_mst", "graph_bfs"):
        workload = workload_by_name(name)
        data = workload.generate_input(np.random.default_rng(3), scale=0.1)
        assert workload.summarize(workload.run(data))
