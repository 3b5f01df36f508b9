"""Layout rules of the package source, checked on its syntax tree.

- no module imports another module's private (underscore) names;
- relative imports sit at module top, not inside functions;
- letters are drawn by `words.draw_letters`, never by `Generator.choice`
  over the alphabet `sys.size`;
- `np.unique(..., return_inverse=True)` appears only in `dyadic._ranks`, the
  one sort-based labelling of cell keys;
- no module enumerates the alphabet's words by
  `itertools.product(range(sys.size), ...)`: the lab samples words, and
  `checks` expands the products of one length as arrays;
- `fractions` is imported only by `sl2` (the exact-matrix builder) and
  `config` (the literal parser), so the exact decisions stay on integers;
- `engine` and `experiments` make no weighted `bincount`: cell masses and
  their entropies come from `dyadic.cell_entropy`;
- every public top-level function or class, and every public method of a
  top-level class, is referenced by name from the package's code outside
  its own definition and `__init__`, bar a short list of exceptions;
- the number of defaulted parameters stays at or below a pinned count.
"""

import ast
from collections import defaultdict
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


def _inside(tree, name):
    """ids of the nodes inside the functions called `name`."""
    return {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == name
            for node in ast.walk(fn)}


def _inverse_uniques(tree):
    """Lines of `unique(..., return_inverse=True)` calls outside `_ranks`."""
    exempt = _inside(tree, "_ranks")
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in exempt
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and any(k.arg == "return_inverse"
                    and not (isinstance(k.value, ast.Constant)
                             and not k.value.value) for k in node.keywords)]


def _alphabet_products(tree):
    """Lines of `product(range(sys.size), ...)` calls."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Attribute)
                 and node.func.attr == "product"
                 or isinstance(node.func, ast.Name)
                 and node.func.id == "product")
            and node.args and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Name)
            and node.args[0].func.id == "range"
            and any(_is_sys_size(a) for a in node.args[0].args)]


def _fraction_imports(tree):
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Import)
                and any(alias.name == "fractions" for alias in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module == "fractions")]


def _weighted_bincounts(tree):
    """Lines of `bincount(labels, weights)` calls, by keyword or position."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Attribute)
                 and node.func.attr == "bincount"
                 or isinstance(node.func, ast.Name)
                 and node.func.id == "bincount")
            and (len(node.args) > 1
                 or any(k.arg == "weights" for k in node.keywords))]


# the modules that may read rationals: the exact builder and the parser
FRACTION_MODULES = {"sl2.py", "config.py"}
# the modules that take cell masses and entropies from dyadic
MASS_FREE_MODULES = {"engine.py", "experiments.py"}

RULES = {"private-import": _private_imports,
         "local-relative-import": _local_relative_imports,
         "choice-over-alphabet": _alphabet_choices,
         "sort-labelling-outside-ranks": _inverse_uniques,
         # no function is exempt; the id stays as the suite reports it
         "alphabet-product-outside-blocks": _alphabet_products}

VIOLATIONS = """\
from .sl2 import _hidden


def f(sys, rng):
    from .words import System
    return rng.choice(sys.size, size=3), rng.choice(a=sys.size)


def _ranks(a):
    return np.unique(a, return_inverse=True)


def labels(keys):
    first = np.unique(keys, return_inverse=False)
    return first, np.unique(keys, return_inverse=True)[1]


import fractions
from fractions import Fraction
from .fractions import helper


def _blocks(sys, l):
    return list(itertools.product(range(sys.size), repeat=l))


def prefixes(sys, j):
    return itertools.product(range(sys.size), repeat=j), product(range(sys.size))


def masses(labels, w):
    counts = np.bincount(labels)
    return np.bincount(labels, weights=w), bincount(labels, w), counts
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
    assert _inverse_uniques(tree) == [15]
    assert _fraction_imports(tree) == [18, 19]
    assert _alphabet_products(tree) == [24, 28, 28]
    assert _weighted_bincounts(tree) == [33, 33]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fractions_only_in_exact_builders(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert path.name in FRACTION_MODULES or _fraction_imports(tree) == []


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name in MASS_FREE_MODULES],
                         ids=lambda p: p.name)
def test_cell_masses_only_from_dyadic(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _weighted_bincounts(tree) == []


# public definitions no package code calls, each kept for a stated reader
UNREFERENCED_PUBLIC = {
    # fixtures of the acceptance suite
    "svd2", "random_element", "uniform_square", "uniform_segment",
    "dyadic_grid_square", "SvdDecomposition.reconstruct",
    # the per-direction reference the projection_entropies tests compare to
    "project_component",
    # the config parser's round-trip oracle
    "RunConfig.to_text",
}


def _public_definitions(tree):
    """(label, name, node) of each public top-level function or class, and
    of each public method of a top-level class, labelled `Class.method`."""
    out = []
    for top in tree.body:
        if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                and not top.name.startswith("_")):
            out.append((top.name, top.name, top))
        if isinstance(top, ast.ClassDef):
            out += [(f"{top.name}.{m.name}", m.name, m) for m in top.body
                    if isinstance(m, ast.FunctionDef)
                    and not m.name.startswith("_")]
    return out


def _name_sites(tree):
    """name -> ids of the nodes that read it (as a name or an attribute);
    import statements do not count."""
    sites = defaultdict(set)
    for top in tree.body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                sites[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                sites[node.attr].add(id(node))
    return sites


def _unreferenced_public(trees):
    """(module, label) of each public definition (see `_public_definitions`)
    that no code of `trees` (module name -> syntax tree) references outside
    the definition itself."""
    sites = {mod: _name_sites(tree) for mod, tree in trees.items()}
    out = []
    for mod, tree in sorted(trees.items()):
        for label, name, node in _public_definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if not any(sites[m][name] - (own if m == mod else set())
                       for m in trees):
                out.append((mod, label))
    return out


def test_public_definitions_have_callers():
    """A public definition that only tests reach is code the lab carries for
    nothing: it goes, or it joins UNREFERENCED_PUBLIC with its reason. An
    exception that gains a caller leaves the list."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in MODULES if p.name != "__init__.py"}
    found = _unreferenced_public(trees)
    assert sorted(label for _, label in found) == sorted(UNREFERENCED_PUBLIC)


def test_unreferenced_public_rule():
    trees = {"a.py": ast.parse("from .b import imported_only, used\n"
                               "def orphan(x):\n    return orphan(x - 1)\n"
                               "class Kept:\n"
                               "    def called(self):\n        return 1\n"
                               "    def recursive(self):\n"
                               "        return self.recursive()\n"
                               "    def _private(self):\n        pass\n"
                               "def uses():\n    return Kept, used\n"),
             "b.py": ast.parse("import a\n"
                               "def used():\n    return a.uses().called()\n"
                               "def imported_only():\n    pass\n")}
    assert _unreferenced_public(trees) == [("a.py", "orphan"),
                                           ("a.py", "Kept.recursive"),
                                           ("b.py", "imported_only")]


# defaulted parameters of module-level functions and methods at the last count
DEFAULTED_PARAMETERS_PIN = 86


def _defaulted_parameters(tree) -> int:
    """Parameters with a default value, over the module-level functions and
    the methods of module-level classes (nested functions excluded)."""
    fns = [node for top in tree.body
           for node in ([top] if not isinstance(top, ast.ClassDef)
                        else top.body)
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sum(len(f.args.defaults)
               + sum(d is not None for d in f.args.kw_defaults) for f in fns)


def test_defaulted_parameter_count_is_pinned():
    """Each defaulted parameter is a setting that tests and the benchmark
    would have to cover; a value no caller changes belongs in a constant.
    A change that adds a parameter raises DEFAULTED_PARAMETERS_PIN and names,
    in CHANGES.md, the two callers that need different values. A change that
    retires parameters lowers the pin to the new count."""
    count = sum(_defaulted_parameters(ast.parse(p.read_text(), filename=str(p)))
                for p in MODULES)
    assert count <= DEFAULTED_PARAMETERS_PIN


def test_defaulted_parameter_counter():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d): pass\n"
        "class K:\n"
        "    def m(self, x=0):\n"
        "        def inner(y=1): pass\n"
        "async def g(*, e=None): pass\n")
    assert _defaulted_parameters(tree) == 4
