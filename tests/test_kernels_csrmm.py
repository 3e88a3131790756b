"""Integration tests for CsrMM kernels."""

import numpy as np
import pytest

from repro import api
from repro.errors import FormatError
from repro.kernels.csrmm import run_csrmm
from repro.kernels.csrmv import run_csrmv
from repro.workloads import (
    RAGUSA18,
    random_csr,
    random_dense_matrix,
    random_dense_vector,
)

ALL_KERNELS = [("base", 32), ("ssr", 32), ("issr", 32), ("issr", 16)]


@pytest.mark.parametrize("variant,bits", ALL_KERNELS)
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_correct_column_counts(variant, bits, k):
    m = random_csr(24, 128, 24 * 6, seed=1)
    b = random_dense_matrix(128, k, seed=2)
    stats, c = run_csrmm(m, b, variant, bits)
    assert c.shape == (24, k)


@pytest.mark.parametrize("variant,bits", ALL_KERNELS)
def test_empty_rows(variant, bits):
    dense = np.zeros((6, 32))
    dense[0, 5] = 1.0
    dense[5, [1, 2, 3]] = 2.0
    from repro.formats import CsrMatrix
    m = CsrMatrix.from_dense(dense)
    b = random_dense_matrix(32, 4, seed=3)
    run_csrmm(m, b, variant, bits)


def test_non_power_of_two_rejected():
    m = random_csr(8, 32, 32, seed=4)
    b = random_dense_matrix(32, 3, seed=5)
    with pytest.raises(FormatError, match="power of two"):
        api.run("csrmm", backend="cycle", variant="issr", index_bits=16,
                matrix=m, dense=b)


def test_k1_matches_csrmv():
    """A 1-column CsrMM must equal CsrMV numerically."""
    m = random_csr(20, 64, 160, seed=6)
    x = random_dense_vector(64, seed=7)
    _, y = run_csrmv(m, x, "issr", 16)
    _, c = run_csrmm(m, x.reshape(-1, 1), "issr", 16)
    assert np.allclose(c[:, 0], y)


class TestOverheadClaim:
    """§IV-A: CsrMM speedups/utilizations near identical to CsrMV."""

    def test_ragusa18_edge_case(self):
        rag = RAGUSA18.generate(seed=1)
        x = random_dense_vector(rag.ncols, seed=2)
        b = random_dense_matrix(rag.ncols, 2, seed=3)
        mv, _ = run_csrmv(rag, x, "issr", 16)
        mm, _ = run_csrmm(rag, b, "issr", 16)
        delta = abs(mm.fpu_utilization - mv.fpu_utilization)
        assert delta < 0.005  # paper: 0.12%

    def test_utilization_tracks_csrmv(self):
        m = random_csr(48, 512, 48 * 32, seed=8)
        x = random_dense_vector(512, seed=9)
        b = random_dense_matrix(512, 4, seed=10)
        mv, _ = run_csrmv(m, x, "issr", 16)
        mm, _ = run_csrmm(m, b, "issr", 16)
        assert mm.fpu_utilization == pytest.approx(mv.fpu_utilization, abs=0.05)

    def test_per_column_cost_flat(self):
        """Doubling k roughly doubles cycles (small per-column setup)."""
        m = random_csr(32, 256, 32 * 16, seed=11)
        b2 = random_dense_matrix(256, 2, seed=12)
        b4 = random_dense_matrix(256, 4, seed=12)
        s2, _ = run_csrmm(m, b2, "issr", 16)
        s4, _ = run_csrmm(m, b4, "issr", 16)
        assert s4.cycles / s2.cycles == pytest.approx(2.0, rel=0.1)
