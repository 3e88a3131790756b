"""Cycle-accurate backend: the existing simulator entry points.

Thin adapter over :mod:`repro.kernels` and
:mod:`repro.cluster.runtime`; every call builds a fresh single-CC
harness (or Snitch cluster, §II-C/Fig. 3) and runs the assembled
kernel of §III through the cycle-stepped engine — the measurement
path behind every Fig. 4 reproduction. Kernels are implemented as
``_exec_*`` methods and dispatched through
:meth:`~repro.backends.base.Backend.run`.
"""

from repro.backends.base import Backend
from repro.cluster.runtime import run_cluster_csrmv
from repro.kernels.csrmm import run_csrmm
from repro.kernels.csrmv import run_csrmv
from repro.kernels.masked import run_masked_csrmv, run_masked_spvv
from repro.kernels.spgemm import run_spgemm
from repro.kernels.spvv import run_spvv
from repro.kernels.ttv import run_ttv


class CycleBackend(Backend):
    """Execute kernels on the cycle-stepped simulation engine."""

    name = "cycle"

    def _exec_spvv(self, fiber, x, variant, index_bits=32, check=True):
        """Simulate the §III-B SpVV kernel on one core complex."""
        return run_spvv(fiber, x, variant, index_bits, check=check)

    def _exec_csrmv(self, matrix, x, variant, index_bits=32, check=True):
        """Simulate the §III-B CsrMV kernel on one core complex."""
        return run_csrmv(matrix, x, variant, index_bits, check=check)

    def _exec_csrmm(self, matrix, dense, variant, index_bits=32,
                    check=True):
        """Simulate the §III-B CsrMM kernel (column-looped CsrMV)."""
        return run_csrmm(matrix, dense, variant, index_bits, check=check)

    def _exec_ttv(self, tensor, vector, index_bits=32, check=True):
        """Simulate the §III-B CSF tensor-times-vector kernel."""
        return run_ttv(tensor, vector, index_bits, check=check)

    def _exec_masked_spvv(self, fiber_a, fiber_b, variant, index_bits=32,
                          check=True):
        """Simulate the sparse-sparse masked dot (intersection unit)."""
        return run_masked_spvv(fiber_a, fiber_b, variant, index_bits,
                               check=check)

    def _exec_masked_csrmv(self, matrix, x_fiber, variant, index_bits=32,
                           check=True):
        """Simulate the CSR x sparse-vector kernel (one masked SpVV/row)."""
        return run_masked_csrmv(matrix, x_fiber, variant, index_bits,
                                check=check)

    def _exec_spgemm(self, a, b, variant, index_bits=32, check=True,
                     pattern=None):
        """Simulate the Gustavson SpGEMM numeric phase on one CC."""
        del pattern  # symbolic-phase reuse is a compiled-path knob
        return run_spgemm(a, b, variant, index_bits, check=check)

    def _exec_cluster_csrmv(self, matrix, x, variant="issr", index_bits=16,
                            check=True, **kwargs):
        """Simulate the §IV-B double-buffered 8-core cluster CsrMV."""
        return run_cluster_csrmv(matrix, x, variant, index_bits,
                                 check=check, **kwargs)
