"""The names and calls that README.md quotes exist in the package, and so
do the names the package exports.

Every backticked `hgs.<module>.<name>` must resolve, and every backticked
call `name(kw=...)` of a name the package exports must accept those
keywords, so a renamed function or a removed parameter fails here.  Every
name in hgs.__all__ must resolve too, or `from hgs import *` would fail.
The pair kernels that README describes as private to hgs.windows stay
there.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import hgs

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
SPANS = re.findall(r"`([^`\n]+)`", README)


def _resolve(dotted, root):
    obj = root
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    return obj


def test_module_references_resolve():
    refs = {m.groups() for span in SPANS
            for m in [re.match(r"hgs\.(\w+)((?:\.\w+)*)", span)] if m}
    assert refs
    for module, path in refs:
        obj = importlib.import_module(f"hgs.{module}")
        if path:
            _resolve(path[1:], obj)


def test_quoted_calls_accept_their_keywords():
    checked = 0
    for span in SPANS:
        call = re.fullmatch(r"([A-Za-z_][\w.]*)\((.*)\)", span)
        if not call or call.group(1).split(".")[0] not in hgs.__all__:
            continue
        keywords = re.findall(r"(\w+)\s*=(?!=)", call.group(2))
        params = inspect.signature(_resolve(call.group(1), hgs)).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        for kw in keywords:
            assert kw in params, f"{span}: no parameter {kw!r}"
        checked += 1
    assert checked


def test_exported_names_resolve_once_in_order():
    names = hgs.__all__
    for name in names:
        assert hasattr(hgs, name), name
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    namespace = {}
    exec("from hgs import *", namespace)
    assert set(names) <= set(namespace)


def _mentions(path, names):
    """(top-level definition or None, name) for every use of one of names
    in the module at path, imports included."""
    found = []
    for top in ast.parse(path.read_text()).body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in names:
                found.append((where, name))
    return found


def test_pair_kernels_stay_in_windows():
    # every term-pair sweep outside hgs.windows goes through _segment_inner
    # or _segment_norm2; only the unfolding sum joins and sweeps its own
    # pairs, the double periodization joins its own pairs but evaluates
    # them pointwise, and inside hgs.windows only those two sweep term pairs
    src = Path(hgs.__file__).resolve().parent
    kernels = {"_translated_pairs", "paired_inner_sweep"}
    for path in sorted(src.glob("*.py")):
        if path.name == "windows.py":
            continue
        for where, name in _mentions(path, kernels):
            users = ("_unfolded_sum", "_theta_terms")[
                :2 if name == "_translated_pairs" else 1]
            assert (path.name == "fieldcheck.py"
                    and where in (None, *users)), (path.name, where, name)
    callers = {where for where, name in _mentions(src / "windows.py",
                                                  {"paired_inner_sweep"})}
    assert callers == {"_segment_inner", "_segment_norm2"}
