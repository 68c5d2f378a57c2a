"""repro.engine — the deterministic parallel experiment engine.

The paper's evaluation is a grid of embarrassingly-parallel runs: sampling
campaigns per AZ (EX-1), progressive-sampling accuracy curves (EX-3),
multi-day temporal series (EX-4), and routing studies (EX-5).  This
package fans such grids out over a ``ProcessPoolExecutor`` while keeping
the results **byte-identical to a serial run**:

* :class:`CloudSpec` — a picklable description of a private simulated sky;
  each grid cell's worker builds its own cloud, so no live simulator
  object crosses a process boundary;
* :class:`Grid` / :class:`Cell` — deterministic enumeration of axis cross
  products, with per-cell seeds spawn-keyed from the root seed
  (:func:`repro.common.rng.spawn_seed`) independent of worker count and
  scheduling order;
* task adapters (:class:`CampaignTask`, :class:`ProgressiveTask`,
  :class:`TemporalTask`, :class:`StudyTask`) wrapping the existing
  experiment entry points as picklable value objects;
* :class:`SweepEngine` — chunked dispatch with ordered result merging,
  obs integration, and graceful degradation across backends
  (remote coordinator → local process pool → serial);
* :class:`SweepCoordinator` / :class:`SweepWorker` — the socket-based
  distributed backend (:mod:`repro.engine.remote`), speaking the
  length-prefixed protocol of :mod:`repro.engine.protocol` and serving
  ``python -m repro sweep-worker --connect host:port`` peers;
* :class:`SweepProgress` — an event-bus progress aggregator.

See ``python -m repro sweep --help`` for the CLI front end.
"""

from repro.common.lazy_exports import lazy_getattr
from repro.engine.executor import BACKENDS, SweepEngine
from repro.engine.grid import Cell, Grid
from repro.engine.spec import CloudSpec
from repro.engine.tasks import (
    DEFAULT_POLICY_SPECS,
    CampaignSummary,
    CampaignTask,
    ProgressiveTask,
    StudyTask,
    SweepTask,
    TemporalTask,
    build_policy,
    run_task,
)

__all__ = [
    "BACKENDS",
    "Cell",
    "ChunkJournal",
    "CloudSpec",
    "FaultyTransport",
    "Grid",
    "SweepCoordinator",
    "SweepEngine",
    "SweepProgress",
    "SweepTask",
    "SweepWorker",
    "Transport",
    "CampaignSummary",
    "CampaignTask",
    "ProgressiveTask",
    "TemporalTask",
    "StudyTask",
    "DEFAULT_POLICY_SPECS",
    "build_policy",
    "client_auth",
    "connect",
    "guard_hash_for_tasks",
    "run_task",
    "server_auth",
    "spawn_local_workers",
]

#: The journal, progress aggregator and the remote backend's transport
#: serve only the sweeps that use them; they load on first access
#: (:mod:`repro.common.lazy_exports`).
__getattr__ = lazy_getattr(globals(), {
    "ChunkJournal": "repro.engine.journal",
    "guard_hash_for_tasks": "repro.engine.journal",
    "SweepProgress": "repro.engine.progress",
    "FaultyTransport": "repro.engine.protocol",
    "Transport": "repro.engine.protocol",
    "client_auth": "repro.engine.protocol",
    "connect": "repro.engine.protocol",
    "server_auth": "repro.engine.protocol",
    "SweepCoordinator": "repro.engine.remote",
    "SweepWorker": "repro.engine.remote",
    "spawn_local_workers": "repro.engine.remote",
})
