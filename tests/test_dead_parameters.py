"""Every parameter and every local name of every function in the package is
read by its body, and every private module-level function is called by the
package.

A parameter that nothing reads is a knob that does nothing: a caller can set
it and see no effect, and a reader has to find out that it is dead.  A local
name that is assigned and never read is work done for nothing.  Nested
functions count as part of the body that encloses them, so a name read only
by a closure is read.  Local names that start with ``_`` are meant to be
unread.  A private (``_``-prefixed) function that only the tests call is a
second path that no run takes: the tests should check the code a run uses.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "wavekin").glob("*.py"))


def unread_parameters(source: str):
    """(function, parameter) pairs whose parameter the body never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.name, p) for p in params if p not in read]
    return unread


def unread_locals(source: str):
    """(function, name) pairs whose body assigns name and never reads it."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [n for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)]
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        stored = dict.fromkeys(n.id for n in names if isinstance(n.ctx, ast.Store))
        unread += [(node.name, v) for v in stored if v not in read and not v.startswith("_")]
    return unread


def uncalled_private_functions(sources: dict):
    """(module, function) pairs of the ``_``-prefixed module-level functions
    of ``sources`` (module name to source) whose name no code reads outside
    the function's own body.  A read by name or as an attribute counts,
    from any module, so a name shared by two modules is read in both."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = (module, stmt.name)
                if stmt.name.startswith("_"):
                    defined.append(own)
            read |= {(own, n.id if isinstance(n, ast.Name) else n.attr)
                     for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    return [f for f in defined if not any(name == f[1] and own != f for own, name in read)]


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_the_scan_sees_unread_parameters():
    src = ("def f(a, b, *c, d=1, **e):\n"
           "    def g(x, y):\n"
           "        return x + d\n"
           "    return a + g(1, 2)\n")
    assert unread_parameters(src) == [("f", "b"), ("f", "c"), ("f", "e"), ("g", "y")]


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_every_local_name_is_read(path):
    assert unread_locals(path.read_text()) == []


def test_the_scan_sees_unread_locals():
    src = ("def f(xs):\n"
           "    a, b = 1, 2\n"
           "    for c, _d in xs:\n"
           "        e = c\n"
           "    def g():\n"
           "        h = 3\n"
           "        return a\n"
           "    return g\n")
    assert unread_locals(src) == [("f", "b"), ("f", "e"), ("f", "h"), ("g", "h")]


def test_every_private_function_is_called():
    assert uncalled_private_functions({p.stem: p.read_text() for p in FILES}) == []


def test_the_scan_sees_uncalled_private_functions():
    sources = {"a": ("def _used():\n"
                     "    return 1\n"
                     "def _self(k):\n"
                     "    return _self(k - 1) if k else 0\n"
                     "def _unused():\n"
                     "    return _used()\n"
                     "def _by_module():\n"
                     "    return 2\n"
                     "class C:\n"
                     "    def _method(self):\n"
                     "        return 3\n"
                     "def f():\n"
                     "    return _used()\n"),
               "b": ("import a\n"
                     "VALUE = a._by_module()\n")}
    assert uncalled_private_functions(sources) == [("a", "_self"), ("a", "_unused")]
