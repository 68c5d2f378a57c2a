"""Package names that load their module on first access.

``import repro`` runs in every CLI process, sweep worker and benchmark
run, so a package re-exports the modules only some runs need (the remote
sweep transport, run manifests, exporters, fleet chaos) lazily: the name
stays importable from the package, and the module loads the first time
anyone asks for it.
"""

import importlib


def lazy_getattr(namespace, table):
    """A module-level ``__getattr__`` for ``namespace`` (a package's
    ``globals()``) serving ``table``: name -> dotted module path.

    A name equal to the module's last path component is the module
    itself; any other name is that module's attribute.  The value is
    cached in ``namespace``, so each name costs one import.
    """
    def __getattr__(name):
        path = table.get(name)
        if path is None:
            raise AttributeError("module {!r} has no attribute {!r}".format(
                namespace["__name__"], name))
        module = importlib.import_module(path)
        value = (module if path.rpartition(".")[2] == name
                 else getattr(module, name))
        namespace[name] = value
        return value

    return __getattr__
