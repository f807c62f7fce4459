"""The linear-solve code paths of the package, found from its source.

Every factorization or dense solve in ``src/dynmc`` is one of three paths:
the TPFA operator (``fine.solve_flow``), the Galerkin KKT engine
(``cells.SaddleSolver``) and the small dense coarse systems
(``macro._dense_solve``).  A new call site elsewhere is a new path.
"""

import ast
from pathlib import Path

import dynmc

SRC = Path(dynmc.__file__).parent

# entry points of scipy/numpy that factor or solve a linear system
SOLVERS = {"splu", "spilu", "spsolve", "factorized", "lu_factor",
           "cho_factor", "lstsq", "inv", "solve"}


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


def solve_call_sites() -> dict:
    """{(module, enclosing function qualname): {callee, ...}} over the package."""
    sites: dict = {}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and _callee(child) is not None:
                sites.setdefault((module, ".".join(scope)), set()).add(
                    _callee(child))
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, [])
    return sites


def test_three_solve_paths():
    assert solve_call_sites() == {
        ("fine", "solve_flow"): {"splu"},
        ("cells", "SaddleSolver.__init__"): {"splu"},
        ("macro", "_dense_solve"): {"np.linalg.solve"},
    }


def test_finder_sees_the_call_forms_it_counts():
    tree = ast.parse("lu = splu(A)\nx = np.linalg.solve(K, b)\n"
                     "y = lu.solve(b)\nz = scipy.sparse.linalg.spsolve(A, b)\n")
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert [_callee(c) for c in calls] == [
        "splu", "np.linalg.solve", None, "scipy.sparse.linalg.spsolve"]
