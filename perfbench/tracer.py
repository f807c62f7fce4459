"""Layer tracer that wraps dynmc's functions from outside the package.

``Tracer`` replaces module-level bindings of the pipeline's functions with
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Per-layer metrics are derived from the spans
after the run.  No file under ``src/`` is edited.

Every binding of a traced function is patched, not only the defining one.
``from .fine import solve_flow`` in ``dynmc.cells`` creates a second
binding that patching ``dynmc.fine`` alone would miss, and that binding is
the one the block solves call.  The span name can depend on the binding:
the same ``solve_flow`` is the fine reference flow when ``dynmc.fine``
calls it and a cell problem when ``dynmc.cells`` calls it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time


def _run_coarse_name(args, kwargs) -> str:
    velocity = kwargs.get("velocity", args[4] if len(args) > 4 else "mh")
    return f"macro.run_coarse_{velocity}"


# (defining module, attribute, span name, {binding module: span name}).
# A binding module not in the map gets the default name; a callable name
# is called with the call's arguments.
TARGETS = (
    ("dynmc.fine", "run_fine", "fine.run", {}),
    ("dynmc.fine", "solve_flow", "fine.flow",
     {"dynmc.cells": "cells.block_flow"}),
    ("scipy.sparse.linalg", "splu", "fine.splu",
     {"dynmc.cells": "cells.saddle_splu"}),
    ("dynmc.fine", "interp_velocity", "fine.interp_velocity", {}),
    ("dynmc.fine", "advance_particles", "fine.particles", {}),
    ("dynmc.fine", "deposit", "fine.deposit", {}),
    ("dynmc.fine", "advance_upwind", "fine.upwind", {}),
    ("dynmc.continua", "averages", "continua.averages", {}),
    ("dynmc.continua", "classify", "continua.classify", {}),
    ("dynmc.cells", "solve_edge_flux_basis", "cells.edge_basis", {}),
    ("dynmc.cells", "solve_gravity_basis", "cells.gravity_basis", {}),
    ("dynmc.cells", "solve_interface_basis", "cells.interface_basis", {}),
    ("dynmc.cells", "build_region_engine", "cells.region_engine", {}),
    ("dynmc.cells", "solve_constrained_elliptic", "cells.elliptic", {}),
    ("dynmc.macro", "solve_coarse_flow_mixed", "macro.coarse_flow", {}),
    ("dynmc.macro", "_galerkin_velocity", "macro.coarse_flow", {}),
    ("dynmc.macro", "assemble_effective", "macro.effective", {}),
    ("dynmc.macro", "step_macro_concentration", "macro.transport", {}),
    ("dynmc.macro", "run_coarse", _run_coarse_name, {}),
    ("dynmc.experiment", "reference_states", "experiment.reference_states",
     {}),
    ("dynmc.metrics", "compute_errors", "metrics.errors", {}),
    ("dynmc.experiment", "_write_artifacts", "io.artifacts", {}),
)

# spans whose first positional argument is a sparse matrix to fingerprint
DIGESTED = ("fine.splu",)


def matrix_digest(A) -> str:
    """blake2b content digest of a sparse matrix's CSC arrays."""
    A = A.tocsc()
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(A.shape).encode())
    for arr in (A.indptr, A.indices, A.data):
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class Tracer:
    """Records spans of the wrapped calls while installed.

    ``spans[i]`` is ``[name, start, end, parent]`` with ``parent`` the
    index of the enclosing span or -1; ``digests`` maps span indices of
    factorizations to their matrix digest.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.digests: dict[int, str] = {}
        self.missing: list[str] = []
        self.bindings: list[str] = []  # module.attribute of each patch
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name):
        tracer = self
        digest = name in DIGESTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            if digest:
                # the digest is tracer work: give it its own span so it
                # leaves the caller's self time alone
                d = ["trace.digest", time.perf_counter(), 0.0, parent]
                tracer.spans.append(d)
                key = matrix_digest(args[0])
                d[2] = time.perf_counter()
            idx = len(tracer.spans)
            rec = [label, time.perf_counter(), 0.0, parent]
            tracer.spans.append(rec)
            if digest:
                tracer.digests[idx] = key
            tracer._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def install(self) -> "Tracer":
        """Patch every binding of every target in the loaded dynmc modules."""
        importlib.import_module("dynmc.experiment")
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if (name == "dynmc" or name.startswith("dynmc."))
                   and mod is not None}
        for home, attr, default, per_module in TARGETS:
            fn = getattr(importlib.import_module(home), attr, None)
            if fn is None:
                self.missing.append(f"{home}.{attr}")
                continue
            for modname, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        name = per_module.get(modname, default)
                        setattr(mod, key, self._wrap(fn, name))
                        self._patched.append((mod, key, fn))
                        self.bindings.append(f"{modname}.{key}")
        return self

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _ancestors(spans, i):
    p = spans[i][3]
    while p >= 0:
        yield spans[p][0]
        p = spans[p][3]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and seconds from the recorded spans.

    ``.calls`` are exact counts, ``.s`` inclusive seconds and ``self_s``
    the span time not covered by traced child spans.
    """
    spans = tracer.spans
    # digest time inside each span, taken out of its inclusive time
    overhead = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if name == "trace.digest":
            p = parent
            while p >= 0:
                overhead[p] += t1 - t0
                p = spans[p][3]
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    child: list[float] = [0.0] * len(spans)
    for i, (name, t0, t1, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (t1 - t0 - overhead[i])
        if parent >= 0:
            child[parent] += t1 - t0
    self_s: dict[str, float] = {}
    for i, (name, t0, t1, _parent) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i])

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return incl.get(name, 0.0)

    fine_factor_s = 0.0
    cells_s = 0.0
    cells_in_ref = 0
    cells_in_mh = 0
    mh_classify = 0
    for i, (name, t0, t1, parent) in enumerate(spans):
        up = list(_ancestors(spans, i))
        if name == "fine.splu" and up and up[0] == "fine.flow":
            fine_factor_s += t1 - t0
        if name.startswith("cells."):
            if not any(a.startswith("cells.") for a in up):
                cells_s += t1 - t0 - overhead[i]
            cells_in_ref += "macro.run_coarse_ref" in up
            cells_in_mh += "macro.run_coarse_mh" in up
        if (name == "continua.classify" and up
                and up[0] == "macro.run_coarse_mh"):
            mh_classify += 1
    factorizations = n("fine.splu")
    distinct = len(set(tracer.digests.values()))
    coarse_calls = n("macro.coarse_flow")
    # run_coarse classifies the initial snapshot once, then once per step;
    # a step that did not call the coarse flow model was a cache hit
    steps_mh = max(mh_classify - 1, 0)

    return {
        "fine.flow.calls": n("fine.flow"),
        "fine.flow.s": s("fine.flow"),
        "fine.flow.factor_s": fine_factor_s,
        "fine.flow.self_s": self_s.get("fine.flow", 0.0),
        "fine.factorizations": factorizations,
        "fine.factorizations_distinct": distinct,
        "fine.factor_reuse": distinct / factorizations if factorizations
        else 0.0,
        "fine.factor_s": s("fine.splu"),
        "fine.interp_velocity.calls": n("fine.interp_velocity"),
        "fine.interp_velocity.s": s("fine.interp_velocity"),
        "fine.deposit.s": s("fine.deposit"),
        "fine.upwind.s": s("fine.upwind"),
        "fine.transport.s": (s("fine.particles") + s("fine.deposit")
                             + s("fine.upwind")),
        "fine.run.s": s("fine.run"),
        "continua.averages.calls": n("continua.averages"),
        "continua.averages.s": s("continua.averages"),
        "continua.classify.s": s("continua.classify"),
        "cells.s": cells_s,
        "cells.block_flow.calls": n("cells.block_flow"),
        "cells.block_flow.s": s("cells.block_flow"),
        "cells.edge_basis.calls": n("cells.edge_basis"),
        "cells.edge_basis.s": s("cells.edge_basis"),
        "cells.gravity_basis.calls": n("cells.gravity_basis"),
        "cells.gravity_basis.s": s("cells.gravity_basis"),
        "cells.interface_basis.calls": n("cells.interface_basis"),
        "cells.interface_basis.s": s("cells.interface_basis"),
        "cells.region_engine.calls": n("cells.region_engine"),
        "cells.region_engine.s": s("cells.region_engine"),
        "cells.elliptic.s": s("cells.elliptic"),
        "cells.saddle_sparse_factorizations": n("cells.saddle_splu"),
        "cells.calls_in_ref": cells_in_ref,
        "cells.calls_in_mh": cells_in_mh,
        "macro.coarse_flow.calls": coarse_calls,
        "macro.coarse_cache_hits": steps_mh - coarse_calls,
        "macro.coarse_flow.s": s("macro.coarse_flow"),
        "macro.coarse_flow.self_s": self_s.get("macro.coarse_flow", 0.0),
        "macro.effective.s": s("macro.effective"),
        "macro.transport.s": s("macro.transport"),
        "macro.run_coarse_ref.s": s("macro.run_coarse_ref"),
        "macro.run_coarse_mh.s": s("macro.run_coarse_mh"),
        "experiment.reference_states.s": s("experiment.reference_states"),
        "metrics.errors.s": s("metrics.errors"),
        "io.artifacts.s": s("io.artifacts"),
        "trace.digest_s": s("trace.digest"),
        "trace.spans": len(spans),
    }
