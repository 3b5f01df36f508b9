"""Layout rules of the package source, checked on its syntax tree.

- no module imports another module's private (underscore) names;
- relative imports sit at module top, not inside functions;
- letters are drawn by `words.draw_letters`, never by `Generator.choice`
  over the alphabet `sys.size`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "furstlab"
MODULES = sorted(SRC.glob("*.py"))


def _private_imports(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            and any(alias.name.startswith("_") for alias in node.names)]


def _local_relative_imports(tree):
    return sorted({inner.lineno for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(fn)
                   if isinstance(inner, ast.ImportFrom) and inner.level > 0})


def _is_sys_size(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "size"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def _alphabet_choices(tree):
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "choice"):
            population = node.args[:1] + [k.value for k in node.keywords
                                          if k.arg == "a"]
            if any(_is_sys_size(p) for p in population):
                out.append(node.lineno)
    return out


RULES = {"private-import": _private_imports,
         "local-relative-import": _local_relative_imports,
         "choice-over-alphabet": _alphabet_choices}

VIOLATIONS = """\
from .sl2 import _hidden


def f(sys, rng):
    from .words import System
    return rng.choice(sys.size, size=3), rng.choice(a=sys.size)
"""


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_layout(path, rule):
    assert RULES[rule](ast.parse(path.read_text(), filename=str(path))) == []


def test_rules_flag_violations():
    tree = ast.parse(VIOLATIONS)
    assert _private_imports(tree) == [1]
    assert _local_relative_imports(tree) == [5]
    assert _alphabet_choices(tree) == [6, 6]
