"""Spans around the public functions of each gknextend module.

`Tracer.install` replaces every public module-level function of the
traced modules, wherever a gknextend namespace holds it, with a wrapper
that records its self time (duration minus the time of nested spans) and
its call count.  Two more hooks only count: `Poly.__mul__` and the
`solve_ivp` the shooting oracle calls (summing its `nfev`).  `uninstall`
puts every original back.  Spans live in memory; `layer_metrics` folds
them into the per-layer figures that `BENCHMARK.json` names.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = (
    "cli",
    "catalog",
    "expressions",
    "extension",
    "symplectic",
    "collocation",
    "spectral",
    "legendre",
    "polynomials",
)

# per-layer time metric -> traced functions whose self time it sums
TIME_METRICS = {
    "cli.load_config_s": ("cli.load_config",),
    "cli.self_s": None,  # every other cli function
    "catalog.build_example_s": ("catalog.build_example",),
    "expressions.boundary_form_s": ("expressions.boundary_form",),
    "expressions.apply_expr_s": ("expressions.apply_expr",),
    "extension.derive_boundary_conditions_s": ("extension.derive_boundary_conditions",),
    "extension.verify_self_adjoint_domain_s": ("extension.verify_self_adjoint_domain",),
    "extension.check_gkn_extended_s": ("extension.check_gkn_extended",),
    "extension.extended_deficiency_vectors_s": ("extension.extended_deficiency_vectors",),
    "symplectic.radical_s": ("symplectic.radical",),
    "symplectic.quotient_by_s": ("symplectic.quotient_by",),
    "collocation.make_grid_s": ("collocation.make_grid",),
    "spectral.assemble_s": ("spectral.assemble",),
    "spectral.spectrum_s": ("spectral.spectrum",),
    "spectral.symmetry_defect_s": ("spectral.symmetry_defect",),
    "spectral.shooting_oracle_s": ("spectral.shooting_oracle", "spectral.characteristic_value"),
    "spectral.eigenrelation_residual_s": ("spectral.eigenrelation_residual",),
    "legendre.gram_schmidt_s": ("legendre.gram_schmidt", "legendre.mu_inner"),
    "legendre.identity_checks_s": (
        "legendre.eigen_check",
        "legendre.boundary_identity_check",
        "legendre.extended_eigen_check",
        "legendre.extended_maximal_action",
        "legendre.lt_eigenvalue",
    ),
    "legendre.orthogonality_checks_s": (
        "legendre.extended_orthogonality_check",
        "legendre.extended_inner",
    ),
}

# per-layer count metric -> traced function whose calls it counts
CALL_METRICS = {
    "expressions.apply_expr_calls": "expressions.apply_expr",
    "spectral.symmetry_defect_calls": "spectral.symmetry_defect",
    "spectral.characteristic_value_calls": "spectral.characteristic_value",
    "legendre.orthogonality_checks": "legendre.extended_orthogonality_check",
    "polynomials.poly_mul_calls": "polynomials.Poly.__mul__",
}


class Tracer:
    def __init__(self):
        self.modules = {m: importlib.import_module(f"gknextend.{m}") for m in MODULES}
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.rk_nfev = 0
        self.reduced_dim = 0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, key: str, fn):
        stack, self_time, calls = self._stack, self.self_time, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_time[key] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return traced

    def _counted(self, key: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _solve_ivp(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.rk_nfev += sol.nfev
            return sol

        return counted

    def _assemble(self, fn):
        @functools.wraps(fn)
        def sized(*args, **kwargs):
            op = fn(*args, **kwargs)
            self.reduced_dim = max(self.reduced_dim, op.reduced_dim)
            return op

        return sized

    # -- install / uninstall ---------------------------------------------

    def _replace(self, original, wrapper):
        """Swap `original` for `wrapper` in every gknextend namespace holding it."""
        namespaces = [importlib.import_module("gknextend"), *self.modules.values()]
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, name, original))
                    setattr(ns, name, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped = self._span(f"{layer}.{name}", obj)
                if (layer, name) == ("spectral", "assemble"):
                    wrapped = self._assemble(wrapped)
                self._replace(obj, wrapped)
        spectral = self.modules["spectral"]
        self._patches.append((spectral, "solve_ivp", spectral.solve_ivp))
        spectral.solve_ivp = self._solve_ivp(spectral.solve_ivp)
        poly = self.modules["polynomials"].Poly
        self._patches.append((poly, "__mul__", poly.__mul__))
        poly.__mul__ = self._counted("polynomials.Poly.__mul__", poly.__mul__)

    def uninstall(self):
        for ns, name, original in reversed(self._patches):
            setattr(ns, name, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, ops: int, rounds: int) -> dict[str, float]:
        """Self seconds per op for the time metrics, counts per round for the rest."""
        out = {}
        for metric, keys in TIME_METRICS.items():
            if keys is None:
                keys = [
                    k for k in self.self_time
                    if k.startswith("cli.") and k != "cli.load_config"
                ]
            out[metric] = sum(self.self_time.get(k, 0.0) for k in keys) / ops
        for metric, key in CALL_METRICS.items():
            out[metric] = self.calls[key] // rounds
        out["symplectic.calls"] = (
            sum(n for k, n in self.calls.items() if k.startswith("symplectic.")) // rounds
        )
        out["spectral.rk_nfev"] = self.rk_nfev // rounds
        out["spectral.reduced_dim"] = self.reduced_dim
        return out
