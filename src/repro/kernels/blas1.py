"""Dense level-1 "glue" kernels chained between sparse kernels.

Iterative solvers (:mod:`repro.solvers`) interleave the paper's sparse
kernels with short dense vector operations — dot products, AXPYs,
elementwise updates. These are the assembled *glue stages* of the
pipeline subsystem (:mod:`repro.pipeline`): BASE-idiom scalar loops
with **one canonical implementation per operation**, deliberately
shared by every pipeline variant. Because the glue never changes with
the variant, a solver's accumulation order differs across
BASE/SSR/ISSR only through the CsrMV stage — the precondition for the
cross-variant bit-identity contract documented in ``docs/solvers.md``.

Scalars (``alpha``) are passed *through memory* (a pointer argument
into the pipeline's TCDM scalar table), not through FP argument
registers: the producing stage (a ``dot``) writes the very word the
consuming stage (an ``axpy``) loads, so scalar dataflow stays inside
the TCDM like every other pipeline buffer.

Register conventions (all glue kernels; ``n`` may be zero):

========  ==========================================================
register  meaning
========  ==========================================================
``a0``    first input vector base (``x``; ``y = Rx`` for jacobi)
``a1``    second vector base (input, in/out, or output — see kinds)
``a2``    element count ``n``
``a3``    scalar pointer (``&alpha``) or ``dinv`` base (jacobi)
``a4``    result pointer (dot/diff2) or output base (jacobi)
========  ==========================================================

Kinds (exact per-element semantics, in simulator FP order — every
product and sum rounds exactly like the corresponding NumPy float64
expression, see :func:`apply_glue`):

- ``dot``       result = chained ``x[i]*y[i] + acc`` from ``+0.0``
- ``axpy``      ``y[i] = alpha*x[i] + y[i]``       (``fmadd.d``)
- ``axpy_sub``  ``y[i] = -(alpha*x[i]) + y[i]``    (``fnmsub.d``)
- ``aypx``      ``y[i] = alpha*y[i] + x[i]``       (``fmadd.d``)
- ``scale``     ``y[i] = alpha*x[i]``              (``fmul.d``)
- ``copy``      ``y[i] = x[i]``
- ``diff2``     result = chained ``(x[i]-y[i])^2 + acc`` from ``+0.0``
- ``jacobi``    ``out[i] = (b[i] - y[i]) * dinv[i]``
"""

import numpy as np

from repro.errors import ConfigError
from repro.isa.program import ProgramBuilder
from repro.kernels.common import PROGRAM_CACHE, KernelMeta
from repro.sim.harness import SingleCC

#: Glue-operation names accepted by :func:`build_glue`.
GLUE_KINDS = ("dot", "axpy", "axpy_sub", "aypx", "scale", "copy",
              "diff2", "jacobi")

#: Kinds writing a scalar result through ``a4``.
SCALAR_KINDS = ("dot", "diff2")


def check_glue_kind(kind):
    """Validate a glue-operation name."""
    if kind not in GLUE_KINDS:
        raise ConfigError(
            f"unknown glue kind {kind!r}; expected one of {GLUE_KINDS}")


def build_glue(kind):
    """Build (and cache) the assembled program for one glue kind."""
    check_glue_kind(kind)

    def build():
        builder = _BUILDERS[kind]
        return builder(), KernelMeta(f"glue_{kind}", "base", 32)

    return PROGRAM_CACHE.get_or_build(("glue", kind), build)


def _loop_bounds(b, end_of="a0"):
    """t6 = end pointer of the ``end_of`` vector (n already nonzero)."""
    b.slli("t6", "a2", 3)
    b.add("t6", "t6", end_of)


def _build_dot():
    b = ProgramBuilder("glue_dot")
    b.fcvt_d_w("fa0", "zero")
    b.beqz("a2", "done")
    _loop_bounds(b)
    b.label("loop")
    b.fld("ft0", "a0", 0)
    b.fld("ft1", "a1", 0)
    b.addi("a0", "a0", 8)
    b.addi("a1", "a1", 8)
    b.fmadd_d("fa0", "ft0", "ft1", "fa0")
    b.bne("a0", "t6", "loop")
    b.label("done")
    b.fsd("fa0", "a4", 0)
    b.halt()
    return b.build()


def _build_diff2():
    b = ProgramBuilder("glue_diff2")
    b.fcvt_d_w("fa0", "zero")
    b.beqz("a2", "done")
    _loop_bounds(b)
    b.label("loop")
    b.fld("ft0", "a0", 0)
    b.fld("ft1", "a1", 0)
    b.fsub_d("ft2", "ft0", "ft1")
    b.addi("a0", "a0", 8)
    b.addi("a1", "a1", 8)
    b.fmadd_d("fa0", "ft2", "ft2", "fa0")
    b.bne("a0", "t6", "loop")
    b.label("done")
    b.fsd("fa0", "a4", 0)
    b.halt()
    return b.build()


def _axpy_like(name, mac):
    """Shared y-updating loop; ``mac`` emits the per-element FP op."""
    b = ProgramBuilder(name)
    b.beqz("a2", "done")
    b.fld("fa1", "a3", 0)  # alpha from the scalar table
    _loop_bounds(b)
    b.label("loop")
    b.fld("ft0", "a0", 0)
    b.fld("ft1", "a1", 0)
    b.addi("a0", "a0", 8)
    mac(b)
    b.fsd("ft2", "a1", 0)
    b.addi("a1", "a1", 8)
    b.bne("a0", "t6", "loop")
    b.label("done")
    b.halt()
    return b.build()


def _build_axpy():
    return _axpy_like(
        "glue_axpy", lambda b: b.fmadd_d("ft2", "fa1", "ft0", "ft1"))


def _build_axpy_sub():
    return _axpy_like(
        "glue_axpy_sub", lambda b: b.fnmsub_d("ft2", "fa1", "ft0", "ft1"))


def _build_aypx():
    return _axpy_like(
        "glue_aypx", lambda b: b.fmadd_d("ft2", "fa1", "ft1", "ft0"))


def _build_scale():
    b = ProgramBuilder("glue_scale")
    b.beqz("a2", "done")
    b.fld("fa1", "a3", 0)
    _loop_bounds(b)
    b.label("loop")
    b.fld("ft0", "a0", 0)
    b.addi("a0", "a0", 8)
    b.fmul_d("ft2", "fa1", "ft0")
    b.fsd("ft2", "a1", 0)
    b.addi("a1", "a1", 8)
    b.bne("a0", "t6", "loop")
    b.label("done")
    b.halt()
    return b.build()


def _build_copy():
    b = ProgramBuilder("glue_copy")
    b.beqz("a2", "done")
    _loop_bounds(b)
    b.label("loop")
    b.fld("ft0", "a0", 0)
    b.addi("a0", "a0", 8)
    b.fsd("ft0", "a1", 0)
    b.addi("a1", "a1", 8)
    b.bne("a0", "t6", "loop")
    b.label("done")
    b.halt()
    return b.build()


def _build_jacobi():
    b = ProgramBuilder("glue_jacobi")
    b.beqz("a2", "done")
    _loop_bounds(b)
    b.label("loop")
    b.fld("ft0", "a1", 0)       # b[i]
    b.fld("ft1", "a0", 0)       # (R x)[i]
    b.fsub_d("ft2", "ft0", "ft1")
    b.fld("ft3", "a3", 0)       # dinv[i]
    b.addi("a0", "a0", 8)
    b.addi("a1", "a1", 8)
    b.addi("a3", "a3", 8)
    b.fmul_d("ft4", "ft2", "ft3")
    b.fsd("ft4", "a4", 0)
    b.addi("a4", "a4", 8)
    b.bne("a0", "t6", "loop")
    b.label("done")
    b.halt()
    return b.build()


_BUILDERS = {
    "dot": _build_dot,
    "axpy": _build_axpy,
    "axpy_sub": _build_axpy_sub,
    "aypx": _build_aypx,
    "scale": _build_scale,
    "copy": _build_copy,
    "diff2": _build_diff2,
    "jacobi": _build_jacobi,
}


def apply_glue(kind, x, y=None, alpha=None, dinv=None):
    """The bit-exact functional semantics of one glue operation.

    Replays the assembled kernel's exact FP rounding order with NumPy
    float64 arithmetic — the compiled pipeline executor computes every glue
    stage through this function, and tests compare it against the
    cycle-stepped run byte for byte. Returns a float for the scalar
    kinds, otherwise the updated/produced vector.
    """
    check_glue_kind(kind)
    x = np.asarray(x, dtype=np.float64)
    if kind == "dot":
        acc = 0.0
        for a, c in zip(x.tolist(), np.asarray(y, dtype=np.float64).tolist()):
            acc = a * c + acc
        return float(acc)
    if kind == "diff2":
        acc = 0.0
        for a, c in zip(x.tolist(), np.asarray(y, dtype=np.float64).tolist()):
            d = a - c
            acc = d * d + acc
        return float(acc)
    if kind == "copy":
        return x.copy()
    if kind == "jacobi":
        return (np.asarray(y, dtype=np.float64) - x) \
            * np.asarray(dinv, dtype=np.float64)
    alpha = float(alpha)
    if kind == "scale":
        return alpha * x
    y = np.asarray(y, dtype=np.float64)
    if kind == "axpy":
        return alpha * x + y
    if kind == "axpy_sub":
        return -(alpha * x) + y
    return alpha * y + x  # aypx


def run_glue(kind, x, y=None, alpha=None, dinv=None, sim=None, check=True):
    """Execute one glue kernel on a single CC; returns (stats, result).

    Single-CC entry point used by calibration and the glue parity
    tests; pipelines run the same programs TCDM-resident instead
    (:mod:`repro.pipeline.cycle`).
    """
    program, _meta = build_glue(kind)
    if sim is None:
        sim = SingleCC()
    n = len(x)
    args = {"a0": sim.alloc_floats(x, name="x"), "a2": n}
    if kind == "jacobi":
        args["a1"] = sim.alloc_floats(y, name="b")
        args["a3"] = sim.alloc_floats(dinv, name="dinv")
        args["a4"] = sim.alloc_zeros(max(n, 1), name="out")
        out_addr, out_count = args["a4"], n
    elif kind in SCALAR_KINDS:
        args["a1"] = sim.alloc_floats(y, name="y")
        args["a4"] = sim.alloc_zeros(1, name="result")
        out_addr, out_count = args["a4"], 1
    else:
        if kind in ("scale", "copy"):
            args["a1"] = sim.alloc_zeros(max(n, 1), name="y")
        else:
            args["a1"] = sim.alloc_floats(y, name="y")
        out_addr, out_count = args["a1"], n
        if kind != "copy":
            args["a3"] = sim.alloc_floats([0.0 if alpha is None else alpha],
                                          name="alpha")
    stats, _ = sim.run(program, args=args)
    out = np.array(sim.read_floats(out_addr, out_count)) if out_count \
        else np.zeros(0, dtype=np.float64)
    result = float(out[0]) if kind in SCALAR_KINDS else out
    if check:
        expect = apply_glue(kind, x, y=y, alpha=alpha, dinv=dinv)
        got = np.asarray(result, dtype=np.float64)
        if got.tobytes() != np.asarray(expect, dtype=np.float64).tobytes():
            raise AssertionError(f"glue {kind} mismatch: {result} vs {expect}")
    return stats, result
