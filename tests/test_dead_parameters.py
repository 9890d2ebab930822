"""Every parameter and every local name of every function in the package is
read by its body.

A parameter that nothing reads is a knob that does nothing: a caller can set
it and see no effect, and a reader has to find out that it is dead.  A local
name that is assigned and never read is work done for nothing.  Nested
functions count as part of the body that encloses them, so a name read only
by a closure is read.  Names that start with ``_`` are meant to be unread.
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
