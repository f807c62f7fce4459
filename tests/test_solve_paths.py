"""The linear-solve code paths of the package, found from its source.

Every factorization or dense solve in ``src/dynmc`` is one of four paths:
the TPFA operator (``fine.solve_flow``), the KKT of a Galerkin block piece
(``cells.factor_piece``), the banded Cholesky of a Galerkin region's face
system (factored in ``cells.build_region_engine``, solved in
``cells.RegionEngine.solve``) and the small dense coarse systems
(``macro._dense_solve``).  A new call site elsewhere is a new path.  Inside
``cells`` every block cell problem goes through one grouped block solve
and the moment rows of a Galerkin region are laid out in one place, the
block piece's KKT (``cells.piece_kkt`` calling ``cells.moment_rows``);
inside ``macro`` each coarse model has one call path from
``run_coarse``, and only the per-region helper of the Galerkin solve builds
region engines.
"""

import ast
from pathlib import Path

import dynmc

SRC = Path(dynmc.__file__).parent

# entry points of scipy/numpy that factor or solve a linear system
SOLVERS = {"splu", "spilu", "spsolve", "factorized", "lu_factor",
           "cho_factor", "cholesky_banded", "cho_solve_banded", "lstsq",
           "inv", "solve"}


def _callee(node: ast.Call) -> str | None:
    """Source text of the called solver (``splu``, ``np.linalg.solve``), or
    None when the call is no solver entry point; ``lu.solve`` on a
    factorization object is not one."""
    f = node.func
    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    if name not in SOLVERS:
        return None
    if name == "solve":
        owner = getattr(f, "value", None)
        if getattr(owner, "attr", getattr(owner, "id", None)) != "linalg":
            return None
    return ast.unparse(f)


def scoped_nodes(tree: ast.AST):
    """(enclosing function qualname, node) for every node below ``tree``."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(child, scope + [child.name])
                continue
            yield ".".join(scope), child
            yield from visit(child, scope)

    return visit(tree, [])


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def solve_call_sites() -> dict:
    """{(module, enclosing function qualname): {callee, ...}} over the package."""
    sites: dict = {}
    for path in sorted(SRC.glob("*.py")):
        for scope, node in scoped_nodes(parse(path.stem)):
            if isinstance(node, ast.Call) and _callee(node) is not None:
                sites.setdefault((path.stem, scope), set()).add(
                    _callee(node))
    return sites


def callers(tree: ast.AST, name: str) -> list[str]:
    """Enclosing function of every call of ``name`` (bare or attribute)."""
    return [scope for scope, node in scoped_nodes(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == name]


def test_four_solve_paths():
    assert solve_call_sites() == {
        ("fine", "solve_flow"): {"splu"},
        ("cells", "factor_piece"): {"splu"},
        ("cells", "build_region_engine"): {"cholesky_banded"},
        ("cells", "RegionEngine.solve"): {"cho_solve_banded"},
        ("macro", "_dense_solve"): {"np.linalg.solve"},
    }


def test_finder_sees_the_call_forms_it_counts():
    tree = ast.parse("lu = splu(A)\nx = np.linalg.solve(K, b)\n"
                     "y = lu.solve(b)\nz = scipy.sparse.linalg.spsolve(A, b)\n"
                     "c = cholesky_banded(ab, lower=True)\n"
                     "w = cho_solve_banded((c, True), b)\n")
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert [_callee(c) for c in calls] == [
        "splu", "np.linalg.solve", None, "scipy.sparse.linalg.spsolve",
        "cholesky_banded", "cho_solve_banded"]


def test_cells_solves_block_loads_in_one_place():
    tree = parse("cells")
    assert set(callers(tree, "solve_flow")) == {"solve_block_loads"}
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Yield, ast.YieldFrom))]


def test_moment_rows_are_laid_out_in_one_place():
    # the region's row index is its pieces' rows, so the engine, its
    # targets and its checks read the layout of piece_kkt
    assert callers(parse("cells"), "moment_rows") == ["piece_kkt"]
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "cells":
            assert callers(parse(path.stem), "moment_rows") == []


def test_region_engines_live_in_one_region_helper():
    # _region_ops returns no engine, so none outlives its region; only the
    # block pieces do, in the memo run_coarse owns
    tree = parse("macro")
    assert callers(tree, "build_region_engine") == ["_region_ops"]
    assert callers(tree, "_region_ops") == ["_galerkin_velocity"]
    assert callers(tree, "StepMemo") == ["run_coarse"]


def test_macro_has_one_call_path_per_coarse_model():
    tree = parse("macro")
    assert callers(tree, "solve_coarse_flow_mixed") == ["_mixed_velocity"]
    assert callers(tree, "_mixed_velocity") == ["run_coarse"]
    assert callers(tree, "_galerkin_velocity") == ["run_coarse"]
    dense = [scope for scope, node in scoped_nodes(tree)
             if isinstance(node, ast.Call) and _callee(node) is not None]
    assert dense == ["_dense_solve"]
