"""The modules on the recognition and check paths build no tuple from a lazy iterator.

CPython builds `tuple(<generator>)`, or a tuple of any iterator of unknown
length, at a guessed size and shrinks it.  A small tuple built so never comes
from the free list of its final size, yet joins that list when it is freed,
and only a full garbage collection empties the lists: a long-lived caller of
`lrw1.cli.main` would keep one more block for each such tuple it built.  A
named tuple's `_replace` builds its tuple from `map`, and `_make` from
whatever iterable it is given, so neither is called either.
"""

import ast
from pathlib import Path

import lrw1

MODULES = ("cli", "graph", "dh", "recognizer", "splitdec", "gf2", "oracle")
LAZY_BUILTINS = {"map", "filter", "zip"}
NAMED_TUPLE_BUILDERS = {"_replace", "_make"}


def _is_lazy(node: ast.expr) -> bool:
    if isinstance(node, ast.GeneratorExp):
        return True
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in LAZY_BUILTINS
    while isinstance(func, ast.Attribute):  # itertools.chain.from_iterable too
        func = func.value
    return isinstance(func, ast.Name) and func.id == "itertools"


def _lazy_tuple_lines(source: str) -> list[int]:
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "tuple" and node.args:
            lazy = _is_lazy(node.args[0])
        elif isinstance(node.func, ast.Attribute) and node.func.attr in NAMED_TUPLE_BUILDERS:
            lazy = True
        else:  # f(*<generator>) builds its argument tuple the same way
            lazy = any(isinstance(a, ast.Starred) and _is_lazy(a.value) for a in node.args)
        if lazy:
            lines.append(node.lineno)
    return sorted(lines)


def test_no_tuple_is_built_from_a_lazy_iterator():
    package = Path(lrw1.__file__).parent
    found = [
        f"{name}.py:{line}"
        for name in MODULES
        for line in _lazy_tuple_lines((package / f"{name}.py").read_text(encoding="utf-8"))
    ]
    assert not found, "build these from a list: " + ", ".join(found)


def test_the_rule_sees_each_lazy_form():
    source = """
tuple(x for x in y)
tuple(map(f, y))
tuple(zip(a, b))
tuple(itertools.combinations(y, 2))
tuple(itertools.chain.from_iterable(y))
f(*(x for x in y))
tuple([x for x in y])
tuple(sorted(y))
tuple(list(itertools.combinations(y, 2)))
f(*[x for x in y])
cert._replace(family="hole")
Certificate._make([order])
"""
    assert _lazy_tuple_lines(source) == [2, 3, 4, 5, 6, 7, 12, 13]
