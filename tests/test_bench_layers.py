"""The benchmark's traced layers name functions that exist, and one pass of
each workload runs clean.

perfbench/workloads.py resolves every LAYERS entry when it is imported, so
a renamed or deleted function would stop the benchmark before its first
run.  A changed signature or output would instead fail an op or one of its
independent checks.  These tests load that module the same way, check each
LAYERS entry against the package, and run one pass of every workload at the
tiny size, so such a change fails here first.
"""

import contextlib
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" \
    / "workloads.py"
SEED = 0x5EED   # the benchmark's default seed


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_layer_resolves(workloads):
    layers = workloads.LAYERS
    assert layers
    for name, fn in layers:
        module, *path = name.split(".")
        obj = importlib.import_module(f"hgs.{module}")
        for attr in path:
            obj = getattr(obj, attr)
        assert obj is fn and callable(fn), name


@pytest.mark.parametrize("name", ["loops", "arrays"])
def test_workload_pass_runs_clean(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    ctxs = workload.setup(SEED, workloads.SIZES["tiny"], tmp_path, {})
    _, chk = workload.run_pass(ctxs, lambda _: contextlib.nullcontext(), 0)
    assert chk.attempted
    assert not chk.failures, chk.failures
