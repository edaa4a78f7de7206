"""Layer tracing from outside the program.

Tracer.install wraps the public functions of each jetlaw module by
rebinding every module and class attribute that holds them, which is
where callers look them up (conslaw.nullspace, _kernel.impl.mul,
QMatrix.__init__, ...).  Each wrapper records calls, total time and self
time (its span minus the spans of traced calls made inside it), and a
few wrappers also count the work they were given.  Spans are folded into
per-function sums as they close, since the solves make millions of
kernel calls.  Time spent in an untraced helper counts toward the
nearest traced caller.

Only the worker of a traced run imports this module; an untraced run
installs nothing.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer -> traced functions, as module attributes or Class.method.  More
# functions are traced than the metrics name, so that each layer's self
# time holds the work done in it rather than in its callers.
TARGETS = {
    "cli": ["build_parser", "load_session"],
    "grammar": ["parse_expr", "format_expr"],
    "expr": ["DiffExpr.__mul__", "DiffExpr.__add__", "DiffExpr.__sub__"],
    "conslaw": [
        "ansatz_monomials",
        "solve_determining_system",
        "solve_multipliers",
        "check_multiplier",
        "check_adjoint_symmetry",
        "current_from_multiplier",
        "multiplier_from_current",
        "is_trivial_current",
        "verify_conservation_law",
    ],
    "symmetry": [
        "solve_symmetries",
        "check_symmetry",
        "act_on_multiplier",
        "psi_current",
        "classify",
        "action_matrix",
    ],
    "soln": ["restrict", "extract_operator", "LinDiffOp.adjoint", "LinDiffOp.apply"],
    "diffops": [
        "euler",
        "frechet",
        "frechet_adjoint",
        "boundary_current",
        "invert_divergence",
        "divergence",
        "total_derivative",
    ],
    "ratlin": [
        "QMatrix.__init__",
        "rref",
        "rank",
        "nullspace",
        "solve",
        "charpoly",
        "rational_roots",
        "rational_eigenpairs",
    ],
    "_kernel": [
        "add",
        "sub",
        "neg",
        "scale",
        "mul",
        "pow_",
        "diff_jet",
        "total_t",
        "total_x",
        "rref",
    ],
}


def metric_prefix(layer: str) -> str:
    """Metric names start with a letter, so _kernel reports as kernel."""
    return layer.lstrip("_")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_: list[float] = []
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import jetlaw._kernel

        for layer, names in TARGETS.items():
            module = jetlaw._kernel.impl if layer == "_kernel" else sys.modules[f"jetlaw.{layer}"]
            for dotted in names:
                owner = module
                attr = dotted
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                name = f"{metric_prefix(layer)}.{dotted}"
                wrapper = self._wrap(name, original, _AFTER.get(name))
                self._rebind(original, wrapper, owner)

    @staticmethod
    def _rebind(original, wrapper, owner) -> None:
        if isinstance(owner, type):
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
            return
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("jetlaw"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _wrap(self, name, fn, after):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_.append(0.0)
        stack, calls, total, self_ = self._stack, self.calls, self.total, self.self_
        counters = self.counters
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                inner = stack.pop()
                calls[idx] += 1
                total[idx] += dt
                self_[idx] += dt - inner
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(counters, args, result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------

    def report(self) -> dict:
        """Per-function calls, total_s and self_s, per-layer self_s, and
        the work counters."""
        out = {"functions": {}, "layers": {}, "counters": dict(sorted(self.counters.items()))}
        for name, c, tot, slf in zip(self.names, self.calls, self.total, self.self_):
            out["functions"][name] = {"calls": c, "total_s": tot, "self_s": slf}
            layer = name.split(".", 1)[0]
            out["layers"][layer] = out["layers"].get(layer, 0.0) + slf
        return out


def _count(counters, key, n):
    counters[key] = counters.get(key, 0) + n


def _after_qmatrix(counters, args, _result):
    rows = args[0].rows
    _count(counters, "ratlin.QMatrix.cells", len(rows) * (len(rows[0]) if rows else 0))


def _after_system(counters, args, result):
    basis, images = args
    _count(counters, "conslaw.system.rows", len({k for img in images for k in img._d}))
    _count(counters, "conslaw.system.cols", len(basis))
    _count(counters, "conslaw.system.nnz", sum(len(img._d) for img in images))
    _count(counters, "conslaw.system.nullity", len(result))


def _after_ansatz(counters, _args, result):
    _count(counters, "conslaw.ansatz.size", len(result))


_AFTER = {
    "ratlin.QMatrix.__init__": _after_qmatrix,
    "conslaw.solve_determining_system": _after_system,
    "conslaw.ansatz_monomials": _after_ansatz,
}
