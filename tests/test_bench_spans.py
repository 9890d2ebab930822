"""The benchmark's traced span names must resolve against the package.

bench/child.py wraps each (module, attribute) of its PROBED and TRACED lists
and aborts the benchmark run when one no longer exists.  This test resolves
every target the way child.install() does, so a rename fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_child = _load_child()
_TARGETS = list(dict.fromkeys(_child.PROBED + _child.TRACED))


@pytest.mark.parametrize("module_name, attr, key", _TARGETS,
                         ids=[key for _, _, key in _TARGETS])
def test_span_target_resolves(module_name, attr, key):
    owner = importlib.import_module(module_name)
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    target = vars(owner).get(name)
    assert callable(target), f"{module_name}.{attr} ({key}) does not resolve"


def test_traced_table_reads_resolve(table8_quad):
    # trace mode records the interaction table's size from these attributes
    tracer = _child.Tracer()
    tracer._note_table(table8_quad)
    assert tracer.table["entries"] == table8_quad.n_entries
