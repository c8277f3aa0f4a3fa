"""Per-layer tracing of the ncqm package, applied from outside.

Tracer.install() rebinds the public functions of each layer module, and
every module-level name that refers to the same function object (the
names consumer modules imported, e.g. spectra.effective_coefficients or
oracle.build_heisenberg_rep), to timing wrappers. Tracer.uninstall()
puts the originals back. The package itself is never edited.

Three kinds of wrapper keep the overhead proportional to the information
needed:

* SPAN   - records (id, name, start, end, parent id, op id) in memory, for
           calls made a few times per operation;
* TIMED  - aggregates calls and self time only, for functions called
           thousands of times per operation (effective_coefficients, the
           scalar special functions);
* COUNT  - counts calls and nothing else (the quantization residual).

Self time of a call is its duration minus the durations of the wrapped
calls made directly inside it. A COUNT call is not a frame: its own work
stays in its caller's self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

SPAN, TIMED, COUNT = "span", "timed", "count"

# (module, attribute, kind); attribute "Class.method" wraps a method.
TARGETS = (
    ("cli", "main", SPAN),
    ("params", "effective_coefficients", TIMED),
    ("spectra", "ec_solve_energy", SPAN),
    ("spectra", "ec_quantization_residual", COUNT),
    ("wavefunctions", "ec_radial_solution", SPAN),
    ("wavefunctions", "RadialSolution.__call__", SPAN),
    ("algebra", "build_heisenberg_rep", SPAN),
    ("algebra", "sw_forward", SPAN),
    ("algebra", "sw_inverse", SPAN),
    ("algebra", "alternative_maps", SPAN),
    ("algebra", "commutator_residuals", SPAN),
    ("oracle", "radial_fd_eigensolve", SPAN),
    ("oracle", "fock_matrix_eigensolve", SPAN),
    ("oracle", "self_consistent_wrap", SPAN),
    ("verify", "run_verification", SPAN),
) + tuple(("specfun", name, TIMED) for name in (
    "gamma_fn", "log_gamma", "recip_gamma", "beta_fn", "bessel_j",
    "bessel_j_asymptotic", "bessel_y", "laguerre", "mittag_leffler",
)) + tuple(("fractional", name, SPAN) for name in (
    "caputo_series_derivative", "caputo_exp", "liouville_exp",
    "riemann_liouville", "grunwald_letnikov", "grunwald_letnikov_richardson",
    "plane_wave_eigenvalue", "caputo_plane_wave", "eo_coefficients",
)) + tuple(("ring", name, SPAN) for name in (
    "nc_flux", "ring_levels", "persistent_current", "ground_level_index",
    "ground_persistent_current", "ring_eta_from_params",
    "alpha_from_theta_eta",
))

# Failures counted per layer: the solver errors a caller can act on.
FAILURE_NAMES = ("BracketingError", "ConvergenceError")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_s(self_s: dict, layer: str) -> float:
    """Self time of a layer: the sum over its functions."""
    return sum(v for k, v in self_s.items() if layer_of(k) == layer)


def _array_bytes(m) -> int:
    """Bytes held by a dense array or by a sparse matrix's component arrays."""
    if hasattr(m, "indptr") or hasattr(m, "row") or hasattr(m, "offsets"):
        return sum(getattr(m, f).nbytes for f in
                   ("data", "indices", "indptr", "row", "col", "offsets")
                   if hasattr(m, f))
    return int(m.nbytes)


def operator_bytes(rep) -> int:
    """Bytes held by the operator matrices of a FockRep or MappedRep."""
    fields = ("a", "b", "x", "y", "px", "py")
    return sum(_array_bytes(getattr(rep, f)) for f in fields
               if hasattr(rep, f))


def _nnz_counts(m, axis: int):
    """Nonzeros per column (axis 0) or per row (axis 1) of an operand."""
    import numpy as np
    if hasattr(m, "tocsc"):
        s = m.tocsc() if axis == 0 else m.tocsr()
        return np.diff(s.indptr)
    other = m.shape[axis]
    return np.full(m.shape[1 - axis], other, dtype=np.int64)


def matmul_flops(a, b) -> int:
    """Floating-point operations of a @ b, computed from the operands.

    Dense operands give 2·n·k·m multiply-adds; sparse operands count only
    the products of stored entries. Complex arithmetic costs four times
    real arithmetic.
    """
    import numpy as np
    pairs = int(np.dot(_nnz_counts(a, 0).astype(np.int64),
                       _nnz_counts(b, 1).astype(np.int64)))
    complex_ = np.iscomplexobj(a.data if hasattr(a, "tocsc") else a) or \
        np.iscomplexobj(b.data if hasattr(b, "tocsc") else b)
    return 2 * pairs * (4 if complex_ else 1)


def commutator_flops(mapped) -> int:
    """Computed flops of the six commutators commutator_residuals forms."""
    pairs = (("x", "y"), ("px", "py"), ("x", "px"), ("y", "py"),
             ("x", "py"), ("y", "px"))
    total = 0
    for left, right in pairs:
        a, b = getattr(mapped, left), getattr(mapped, right)
        total += matmul_flops(a, b) + matmul_flops(b, a)
    return total


class Tracer:
    """Spans and per-function aggregates of one traced run.

    clock is injectable so tests can drive a synthetic span tree.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []            # (id, name, start, end, parent, op)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.failures = defaultdict(int)
        self.extra = defaultdict(float)   # hook-derived counters
        self.op = None
        self._stack = []           # frames: [child seconds, span id]
        self._open = defaultdict(int)
        self._next_id = 0
        self._last_failure = None
        self._saved = []

    # -- recording -------------------------------------------------------
    def _call(self, fn, name, kind, hook, args, kwargs):
        stack = self._stack
        parent = stack[-1][1] if stack else None
        span_id = parent
        if kind == SPAN:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id]
        stack.append(frame)
        self._open[name] += 1
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if (type(exc).__name__ in FAILURE_NAMES
                    and exc is not self._last_failure):
                self._last_failure = exc
                self.failures[layer_of(name)] += 1
            raise
        finally:
            end = self.clock()
            stack.pop()
            self._open[name] -= 1
            dur = end - start
            if stack:
                stack[-1][0] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - frame[0]
            self.total_s[name] += dur
            if kind == SPAN:
                self.spans.append((span_id, name, start, end, parent, self.op))
        if hook is not None:
            hook_start = self.clock()
            hook(self, args, kwargs, result)
            if stack:  # hook work belongs to no layer
                stack[-1][0] += self.clock() - hook_start
        return result

    def wrap(self, fn, name, kind, hook=None):
        if kind == COUNT:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        def traced(*args, **kwargs):
            return self._call(fn, name, kind, hook, args, kwargs)
        return functools.wraps(fn)(traced)

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    # -- installation ----------------------------------------------------
    def install(self, package):
        """Rebind every target of the package's modules to its wrapper."""
        import importlib
        mods = {m: importlib.import_module(f"{package.__name__}.{m}")
                for m in {t[0] for t in TARGETS}}
        every = [package] + list(mods.values())
        for mod_name, attr, kind in TARGETS:
            mod = mods[mod_name]
            name = f"{mod_name}.{attr.replace('.__call__', '.call')}"
            hook = HOOKS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, self.wrap(orig, name, kind, hook))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(orig, name, kind, hook)
            for m in every:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._rebind(m, key, wrapped)
        # run_verification iterates this tuple, not the module attributes
        ver = mods["verify"]
        checks = tuple(self.wrap(fn, f"verify.{fn.__name__}", SPAN)
                       for fn in ver.ALL_CHECKS)
        self._rebind(ver, "ALL_CHECKS", checks)

    def _rebind(self, owner, key, value):
        self._saved.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()


def _solve_hook(tracer, args, kwargs, result):
    tracer.extra["spectra.levels_returned"] += 1
    tracer.extra["spectra.roots_seen"] += result.roots_found


def _rep_hook(tracer, args, kwargs, result):
    key = "algebra.operator_bytes"
    tracer.extra[key] = max(tracer.extra[key], operator_bytes(result))


def _residuals_hook(tracer, args, kwargs, result):
    mapped = args[0] if args else kwargs["mapped"]
    tracer.extra["algebra.commutator_flops"] += commutator_flops(mapped)


def _samples_hook(tracer, args, kwargs, result):
    import numpy as np
    r = args[1] if len(args) > 1 else kwargs["r"]
    tracer.extra["wavefunctions.samples"] += np.size(r)


def _frozen_hook(tracer, args, kwargs, result):
    if tracer.inside("oracle.self_consistent_wrap"):
        tracer.extra["oracle.frozen_solves"] += 1


HOOKS = {
    "spectra.ec_solve_energy": _solve_hook,
    "algebra.build_heisenberg_rep": _rep_hook,
    "algebra.sw_forward": _rep_hook,
    "algebra.alternative_maps": _rep_hook,
    "algebra.commutator_residuals": _residuals_hook,
    "wavefunctions.RadialSolution.call": _samples_hook,
    "oracle.radial_fd_eigensolve": _frozen_hook,
    "oracle.fock_matrix_eigensolve": _frozen_hook,
}
