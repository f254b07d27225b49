"""The benchmark's traced layers name functions that exist.

perfbench/workloads.py resolves every LAYERS entry when it is imported, so
a renamed or deleted function would stop the benchmark before its first
run.  This test loads that module the same way and checks each entry
against the package, so such a change fails here first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" \
    / "workloads.py"


def test_every_traced_layer_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    layers = workloads.LAYERS
    assert layers
    for name, fn in layers:
        module, *path = name.split(".")
        obj = importlib.import_module(f"hgs.{module}")
        for attr in path:
            obj = getattr(obj, attr)
        assert obj is fn and callable(fn), name
