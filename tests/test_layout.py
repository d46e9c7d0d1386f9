"""Package layout: no module reaches into another module's private names,
binsplit reads only the series specification from seriesdef, and only
the numeric layers import mpmath.

Each module of `src/logseries` is parsed with `ast`. The package imports
its siblings relatively, so a `from .mod import _name`, or an attribute
read `mod._name` through a module bound by `from . import mod`, is a
private use and fails the test. A module's own private names are its
business.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "logseries"


def _private_uses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    own = path.stem
    siblings = {}  # local name -> sibling module name
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                for alias in node.names:
                    siblings[alias.asname or alias.name] = alias.name
            elif node.level == 1 and node.module != own:
                found += [f"from {node.module} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in siblings and siblings[node.value.id] != own \
                and node.attr.startswith("_") and not node.attr.startswith("__"):
            found.append(f"{siblings[node.value.id]}.{node.attr}")
    return found


def _names_from(path, module):
    """Names a module imports from its sibling `module`, with "*" when it
    binds the sibling itself and so can read any of its names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == module:
                names.update(alias.name for alias in node.names)
            elif node.module is None and any(alias.name == module
                                              for alias in node.names):
                names.add("*")
    return names


def test_no_module_uses_a_sibling_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {path.name: uses for path in modules
                 if (uses := _private_uses(path))}
    assert offenders == {}


def test_the_checker_sees_private_imports_and_reads(tmp_path):
    bad = tmp_path / "probe.py"
    bad.write_text("from .seriesdef import _hidden, Motive\n"
                   "from . import binsplit as bs\n"
                   "x = bs._leaf\n"
                   "y = bs.evaluate\n")
    assert _private_uses(bad) == ["from seriesdef import _hidden",
                                  "binsplit._leaf"]
    assert _names_from(bad, "seriesdef") == {"_hidden", "Motive"}
    assert _names_from(bad, "binsplit") == {"*"}
    assert _names_from(bad, "machin") == set()


def _imports_mpmath(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) \
                and any(alias.name.split(".")[0] == "mpmath" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "mpmath":
            return True
    return False


def test_only_the_numeric_layers_import_mpmath():
    # quadrature and the closed forms (betaproof), the cost column
    # (seriesdef) and the alternating (r, phi) values (altseries) are
    # transcendental; the front end and the exact layers are not
    users = {path.stem for path in PACKAGE.glob("*.py") if _imports_mpmath(path)}
    assert users <= {"betaproof", "seriesdef", "altseries"}


def test_the_mpmath_checker_sees_both_import_forms(tmp_path):
    probe = tmp_path / "probe.py"
    for text, expected in (("import mpmath\n", True),
                           ("from mpmath import mpf\n", True),
                           ("import math\nfrom . import betaproof\n", False)):
        probe.write_text(text)
        assert _imports_mpmath(probe) is expected, text


def test_binsplit_reads_only_the_spec_from_seriesdef():
    # binsplit sums any SeriesSpec; the catalog, its targets and the
    # families belong to the callers
    assert _names_from(PACKAGE / "binsplit.py", "seriesdef") \
        <= {"SeriesSpec", "estimate_terms"}

