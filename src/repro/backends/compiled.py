"""Compiled backend: lower assembled programs to fused closures.

The non-cycle execution backend (``fast`` is an accepted alias).
Where ``cycle`` simulates every instruction, the compiled backend
starts from the *same assembled ISA program* the cycle engine would
run, lowers it through :mod:`repro.compiler` (one exact match of its
normalized instruction stream against the canonical op templates),
and executes the resulting fused vectorized closure. Everything
downstream of the program is **recovered, not assumed**: the variant,
index width, and accumulator count that parameterize both the closure
and the analytic timing derivation come from the lowered
:class:`~repro.compiler.templates.CompiledKernel`, and a program only
executes if its normalized instruction stream exactly matches a
canonical op template (otherwise :class:`~repro.errors.LoweringError`).

Results are bit-identical to the cycle engine (shared replay
primitives, :mod:`repro.compiler.vectorize` — the ISSR kernels'
staggered accumulation of §III-B/Listing 1 is replayed exactly);
cycle counts come from the analytic contract
:mod:`repro.backends.model` documents (the §IV-A issue rates), within
the documented ``CYCLE_TOLERANCE``. Lowered kernels are cached in the
shared program cache, so steady-state dispatch is a dict hit on the
program's identity; each call then picks its row replay from the row
lengths and column count
(:meth:`~repro.compiler.templates.CompiledKernel.reduce_rows`).
"""

import numpy as np

from repro.backends.base import Backend
from repro.backends.model import (
    cluster_csrmv_stats,
    csrmm_stats,
    csrmv_stats,
    masked_csrmv_stats,
    masked_spvv_stats,
    spgemm_stats,
    spvv_stats,
)
from repro.compiler.templates import lower
from repro.compiler.vectorize import (
    masked_rows,
    pin_nan_products,
    spgemm_numeric,
    spvv_value,
)
from repro.core.intersect import MergeProfile
from repro.errors import ConfigError, LoweringError
from repro.formats.csr import CsrMatrix
from repro.kernels.ttv import leaf_fiber_coords


class CompiledBackend(Backend):
    """Execute kernels by lowering their assembled programs."""

    name = "compiled"

    @staticmethod
    def _lower(build, family, variant, index_bits):
        """Build the canonical program and lower it (both cached).

        The matched identity must round-trip to the requested one —
        a mismatch would mean the builder and the template set have
        diverged, which is a programming error worth failing loudly on.
        """
        program, _meta = build(variant, index_bits)
        kernel = lower(program, family_hint=family)
        if (kernel.family, kernel.variant,
                kernel.index_bits) != (family, variant, index_bits):
            raise LoweringError(
                f"program {program.name!r} lowered to {kernel!r}, "
                f"expected ({family}, {variant}, {index_bits})")
        return kernel

    def _exec_spvv(self, fiber, x, variant, index_bits=32, check=True):
        """Lower the SpVV program; run its fused reduction closure."""
        from repro.kernels.spvv import build_spvv

        kernel = self._lower(build_spvv, "spvv", variant, index_bits)
        products = fiber.values * x[fiber.indices]
        result = spvv_value(products, kernel.variant, kernel.index_bits)
        if np.isnan(result) and pin_nan_products(products, fiber.values,
                                                 x[fiber.indices]):
            result = spvv_value(products, kernel.variant, kernel.index_bits)
        return spvv_stats(fiber.nnz, kernel.variant,
                          kernel.index_bits), result

    def _exec_csrmv(self, matrix, x, variant, index_bits=32, check=True):
        """Lower the CsrMV program; replay its rows."""
        from repro.kernels.csrmv import build_csrmv

        kernel = self._lower(build_csrmv, "csrmv", variant, index_bits)
        y = kernel.gather_rows(matrix.vals, matrix.idcs, matrix.ptr, x)
        stats = csrmv_stats(matrix.row_lengths(), kernel.variant,
                            kernel.index_bits)
        return stats, y

    def _exec_csrmm(self, matrix, dense, variant, index_bits=32,
                    check=True):
        """Lower the CsrMM program; replay all k columns in one pass.

        The kernel iterates columns outer, but each column's rows replay
        independently, so the row replay takes the (nnz, k) products
        with a trailing column axis and reproduces every column's order.
        """
        from repro.kernels.csrmm import build_csrmm

        kernel = self._lower(build_csrmm, "csrmm", variant, index_bits)
        out = kernel.gather_rows(matrix.vals, matrix.idcs, matrix.ptr, dense)
        stats = csrmm_stats(matrix.row_lengths(), dense.shape[1],
                            kernel.variant, kernel.index_bits)
        return stats, out

    def _exec_ttv(self, tensor, vector, index_bits=32, check=True):
        """Lower the leaf-level CsrMV program; scatter fiber results.

        TTV executes the CsrMV ISSR program over the concatenated leaf
        fibers (see :mod:`repro.kernels.ttv`), so that is the program
        lowered here.
        """
        from repro.kernels.csrmv import build_csrmv

        kernel = self._lower(build_csrmv, "csrmv", "issr", index_bits)
        leaf_ptr = tensor.ptrs[-1]
        fiber_results = kernel.gather_rows(tensor.vals, tensor.idcs[-1],
                                           leaf_ptr, vector)
        out = np.zeros(tensor.shape[:-1], dtype=np.float64)
        out[leaf_fiber_coords(tensor)] = fiber_results
        stats = csrmv_stats(np.diff(leaf_ptr), kernel.variant,
                            kernel.index_bits)
        return stats, out

    def _exec_masked_spvv(self, fiber_a, fiber_b, variant, index_bits=32,
                          check=True):
        """Lower the masked-dot program; replay the merge-order chain."""
        from repro.kernels.masked import build_masked_spvv

        kernel = self._lower(build_masked_spvv, "masked_spvv", variant,
                             index_bits)
        y, profile = masked_rows([0, fiber_a.nnz], fiber_a.indices,
                                 fiber_a.values, fiber_b.indices,
                                 fiber_b.values)
        profile = MergeProfile(*(int(field[0]) for field in profile))
        stats = masked_spvv_stats(profile, fiber_a.nnz, fiber_b.nnz,
                                  kernel.variant, kernel.index_bits)
        return stats, float(y[0])

    def _exec_masked_csrmv(self, matrix, x_fiber, variant, index_bits=32,
                           check=True):
        """Lower the masked CsrMV program; replay every row's merge."""
        from repro.kernels.masked import build_masked_csrmv

        kernel = self._lower(build_masked_csrmv, "masked_csrmv", variant,
                             index_bits)
        y, profiles = masked_rows(matrix.ptr, matrix.idcs, matrix.vals,
                                  x_fiber.indices, x_fiber.values)
        stats = masked_csrmv_stats(profiles, matrix.row_lengths(),
                                   x_fiber.nnz, kernel.variant,
                                   kernel.index_bits)
        return stats, y

    def _exec_spgemm(self, a, b, variant, index_bits=32, check=True,
                     pattern=None):
        """Lower the SpGEMM numeric program; replay Gustavson's order."""
        from repro.kernels.spgemm import build_spgemm

        kernel = self._lower(build_spgemm, "spgemm", variant, index_bits)
        ptr, idcs, vals, counters = spgemm_numeric(a, b, pattern)
        c = CsrMatrix(ptr, idcs, vals, (a.nrows, b.ncols))
        stats = spgemm_stats(counters["n_pattern"], counters["n_skip"],
                             int(ptr[-1]), counters["n_a"], counters["n_k"],
                             counters["flops"], kernel.variant,
                             kernel.index_bits)
        return stats, c

    def _exec_cluster_csrmv(self, matrix, x, variant="issr", index_bits=16,
                            check=True, cluster=None, max_cycles=None,
                            **kwargs):
        """Lower the per-worker CsrMV program; model the §IV-B schedule.

        Every worker core runs the same single-CC CsrMV program on its
        row tiles, so that program is what gets lowered; the cluster
        schedule (DMA double-buffering, barriers) is the analytic model
        of :func:`~repro.backends.model.cluster_csrmv_stats`.
        """
        from repro.kernels.csrmv import build_csrmv

        if kwargs:
            raise ConfigError(
                f"CompiledBackend.cluster_csrmv does not model "
                f"{sorted(kwargs)}")
        kernel = self._lower(build_csrmv, "csrmv", variant, index_bits)
        y = kernel.gather_rows(matrix.vals, matrix.idcs, matrix.ptr, x)
        model_kwargs = {}
        if cluster is not None:  # honor a custom cluster configuration
            model_kwargs["n_workers"] = cluster.n_workers
            model_kwargs["tcdm_words"] = cluster.tcdm.storage.size // 8
        stats = cluster_csrmv_stats(matrix, kernel.variant,
                                    kernel.index_bits, **model_kwargs)
        return stats, y
