"""Each fixed decision of the coarse model has one owner, found from the
source: ``macro`` cuts every Galerkin region and holds the region recipe
(``FLOW_REFINE``, ``LAYERS``, ``EXTENSION_RULE``) and the boundary data
(``G_IN``, ``P_IN``, ``P_OUT``); ``CoarseModel`` carries only what differs
from run to run.  The TPFA operator has one way in: one ``solve_flow``
signature, one stencil build for it and the Galerkin block pieces, one
factorization recipe, and a result memo that only the fine run keeps.  No
flow input restates what it is given: a load has buoyancy exactly when it
carries a concentration, the mixed variant follows from Chat and its inlet
labels from ``labels``, and the boundary values are read from ``macro``,
never passed.
"""

import ast
import dataclasses
import inspect

from dynmc.fine import FlowLoad, LastSolve, flux_from_pressure, solve_flow
from dynmc.macro import (CoarseModel, mixed_bases, solve_coarse_flow_galerkin,
                         solve_coarse_flow_mixed)
from test_solve_paths import SRC, callers, parse, scoped_nodes

RECIPE = {"FLOW_REFINE", "LAYERS", "EXTENSION_RULE"}
BOUNDARY = {"G_IN", "P_IN", "P_OUT"}


def modules() -> list[str]:
    return sorted(path.stem for path in SRC.glob("*.py"))


def names(tree: ast.AST) -> set[str]:
    """Every name a module reads, imports or assigns, bare or attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def assigned(tree: ast.Module) -> set[str]:
    """Module-level names bound by assignment."""
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets
            for target in (t.elts if isinstance(t, ast.Tuple) else [t])
            if isinstance(target, ast.Name)}


def test_coarse_model_holds_only_what_varies():
    assert [f.name for f in dataclasses.fields(CoarseModel)] == [
        "coarse", "spec", "approach", "lam_of", "inflow_conc"]


def test_macro_alone_cuts_galerkin_regions():
    sites = {m: callers(parse(m), "oversample_block") for m in modules()}
    assert {m: s for m, s in sites.items() if s} == {
        "macro": ["galerkin_region"]}
    assert callers(parse("macro"), "galerkin_region") == ["_region_ops"]
    assert callers(parse("cli"), "galerkin_region") == ["_cmd_cells_solve"]


def test_the_region_recipe_and_boundary_data_live_in_macro():
    readers = {m: names(parse(m)) & (RECIPE | BOUNDARY) for m in modules()}
    assert readers["macro"] == RECIPE | BOUNDARY
    # config's read-only flow_refine, which the benchmark reads, and
    # flow_bc, which sets the fine run's boundary data
    assert readers.pop("config") == {"FLOW_REFINE"} | BOUNDARY
    del readers["macro"]
    assert {m: r for m, r in readers.items() if r} == {}
    assert [m for m in modules()
            if assigned(parse(m)) & (RECIPE | BOUNDARY)] == ["macro"]


def sites(name: str) -> dict:
    """{module: enclosing functions} of every call of ``name`` in ``src``."""
    found = {m: callers(parse(m), name) for m in modules()}
    return {m: s for m, s in found.items() if s}


def test_the_tpfa_operator_has_one_way_in():
    params = inspect.signature(solve_flow).parameters
    assert [(p.name, p.kind.name) for p in params.values()] == [
        ("grid", "POSITIONAL_OR_KEYWORD"), ("lam", "POSITIONAL_OR_KEYWORD"),
        ("loads", "POSITIONAL_OR_KEYWORD"), ("memo", "KEYWORD_ONLY")]
    # the fine flow and the block pieces build their matrix from one stencil
    assert sites("operator_stencil") == {"fine": ["solve_flow"],
                                         "cells": ["piece_kkt"]}
    assert "diags" not in names(parse("cells"))
    assert [m for m in modules()
            if "assemble_stiffness" in names(parse(m))] == []


def test_every_factorization_takes_the_one_recipe():
    # each splu call factors one matrix with exactly **SPLU_OPTIONS: no
    # option is added or overridden, so no matrix is ordered another way
    found = [(m, scope, node) for m in modules()
             for scope, node in scoped_nodes(parse(m))
             if isinstance(node, ast.Call) and "splu" in (
                 getattr(node.func, "id", None),
                 getattr(node.func, "attr", None))]
    assert {m for m, _scope, _node in found} == {"cells", "fine"}
    for m, scope, node in found:
        assert len(node.args) == 1, (m, scope)
        assert [(k.arg, ast.unparse(k.value)) for k in node.keywords] == [
            (None, "SPLU_OPTIONS")], (m, scope)
    assert [m for m in modules()
            if "permc_spec" in ast.unparse(parse(m))] == ["fine"]


def test_only_the_fine_run_keeps_a_flow_result():
    # a block group never repeats its inputs: the block loads memo has
    # removed every repeat, so the block solves take no memo
    assert [f.name for f in dataclasses.fields(LastSolve)] == [
        "inputs", "result", "reused"]
    assert sites("LastSolve") == {"fine": ["run_fine"]}
    assert [m for m in modules() if "LastSolve" in names(parse(m))] == [
        "fine"]


def test_flow_inputs_do_not_restate_their_data():
    # buoyancy is the load's c, the mixed variant the given Chat, the inlet
    # labels labels[0, :] and the boundary values macro's constants
    assert FlowLoad._fields == ("c", "bc", "f")
    assert {f.__name__: len(inspect.signature(f).parameters) for f in (
        solve_coarse_flow_mixed, mixed_bases, solve_coarse_flow_galerkin,
        flux_from_pressure)} == {
        "solve_coarse_flow_mixed": 7, "mixed_bases": 7,
        "solve_coarse_flow_galerkin": 4, "flux_from_pressure": 6}


def test_no_call_passes_the_boundary_data():
    # the solvers read macro's constants; no function or class of the
    # package is handed one (numpy's are, to build arrays of them)
    def bare(node):
        return getattr(node, "id", getattr(node, "attr", None))

    own = {node.name for m in modules() for node in ast.walk(parse(m))
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    passed = [(m, scope, bare(node.func)) for m in modules()
              for scope, node in scoped_nodes(parse(m))
              if isinstance(node, ast.Call) and bare(node.func) in own
              and BOUNDARY & {bare(a) for a in node.args
                              + [k.value for k in node.keywords]}]
    assert passed == []


def test_every_flow_load_names_its_source():
    # a third positional argument would be read as the volume source f
    found = [(m, scope, len(node.args)) for m in modules()
             for scope, node in scoped_nodes(parse(m))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "FlowLoad"]
    assert {m for m, _scope, _n in found} == {"cells", "fine"}
    assert [(m, scope) for m, scope, n in found if n > 2] == []
