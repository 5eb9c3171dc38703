"""Guards over the package sources: no import goes unused, no
module-level private function or class goes unreferenced, only
``cztube.lp`` makes HiGHS models, sets their starts and factors a basis,
no module draws through NumPy's ``multivariate_normal``, and only
``cztube.tube`` erodes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cztube"


def _modules():
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _exported(tree):
    """The names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _references(node, skip=None):
    """Every name read as a bare name, an attribute or an imported name
    under node, leaving out the subtree ``skip``."""
    names = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
        stack.extend(ast.iter_child_nodes(n))
    return names


def test_every_import_is_used():
    unused = []
    for name, tree in _modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_definition_is_referenced():
    modules = _modules()
    unreferenced = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if not any(node.name in _references(other, skip=node) for other in modules.values()):
                unreferenced.append(f"{name}: {node.name}")
    assert unreferenced == []


def test_only_the_lp_module_builds_solver_models():
    # one backend: HiGHS models are made, filled, restarted, re-costed
    # and given their start bases in cztube.lp alone; a caller hands lp
    # an LpBasis or HiGHS's own basis of an earlier optimum
    solver_calls = {"_Highs", "passModel", "changeColsCost", "setBasis", "clearSolver"}
    holders = {name for name, tree in _modules().items() if solver_calls & _references(tree)}
    assert holders == {"lp.py"}


def test_only_the_lp_module_factors_a_basis():
    # the factored starts of one-step LPs (lp.FactoredStart) are the only
    # sparse factorizations; a caller hands lp a solution to factor
    def factors(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                    "scipy.sparse.linalg"):
                return True
            if isinstance(node, ast.Import) and any(
                    a.name.startswith("scipy.sparse.linalg") for a in node.names):
                return True
        return bool({"splu", "spilu", "factorized", "spsolve"} & _references(tree))

    holders = {name for name, tree in _modules().items() if factors(tree)}
    assert holders == {"lp.py"}


def test_monte_carlo_factors_its_covariances_itself():
    # guidance draws its noise from covariance factors made once per call,
    # not through NumPy's multivariate_normal, which factors on every draw
    holders = {name for name, tree in _modules().items()
               if "multivariate_normal" in _references(tree)}
    assert holders == set()


def test_only_the_tube_module_erodes():
    # erosion runs offline, in the robust recursion; the online side
    # steers into the targets the tube carries (czset defines the method)
    callers = {name for name, tree in _modules().items()
               if "pontryagin_difference" in _references(tree)}
    assert callers == {"tube.py"}
