"""Last import of the sweep fork server: warm the catalog, freeze the heap.

:func:`repro.engine.executor._start_forkserver` lists this module after
the packages it preloads.  Importing it

* builds the per-process catalog index
  (:func:`repro.cloudsim.catalog._catalog`, the static spec tables in
  install order), so every pool worker forks with the index its first
  cloud build would otherwise make already memoized;
* collects whatever garbage the imports left, then moves every surviving
  object into the collector's permanent generation (``gc.freeze()``).
  Workers' full collections then walk only the objects they allocate
  themselves: no pass over the ~30,000 inherited objects, and no
  copy-on-write of the pages holding them.

Results are unaffected; only start-up, collection time and shared
memory change.  Freezing before ``fork()`` is the pattern the
:func:`gc.freeze` documentation recommends.  The module is meant for
the fork server alone: importing it anywhere else freezes that
process's heap too.
"""

import gc

from repro.cloudsim.catalog import _catalog

_catalog()
gc.collect()
gc.freeze()
