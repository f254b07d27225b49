"""The names and calls that README.md quotes exist in the package, and so
do the names the package exports.

Every backticked `hgs.<module>.<name>` must resolve, and every backticked
call `name(kw=...)` of a name the package exports must accept those
keywords, so a renamed function or a removed parameter fails here.  Every
name in hgs.__all__ must resolve too, or `from hgs import *` would fail.
"""

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
