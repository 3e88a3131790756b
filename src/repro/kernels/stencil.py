"""Sparse-stencil convolution through the ISSR (§III-C).

"SSRs can accelerate convolutions with rectangular stencils [...];
ISSRs could extend this capability to arbitrarily-shaped sparse
stencils by streaming an offset index array providing the stencil's
shape and incrementing the data base address on the core."

The kernel convolves a 1-D signal with a sparse stencil given as
(offset, weight) taps: for every output position the core bumps the
ISSR's data base by one element and relaunches the offset-stream job,
while the SSR re-streams the weights; the inner loop is one FREP'd
fmadd per tap.
"""

import numpy as np

from repro.core import config as cfg
from repro.errors import FormatError
from repro.isa.isa import CSR_SSR
from repro.isa.program import ProgramBuilder
from repro.kernels.common import (PROGRAM_CACHE, check_index_bits,
                                  check_reference)
from repro.sim.harness import SingleCC


def _build(index_bits):
    """Arguments: a0 = weights, a1 = offset indices, a2 = tap count,
    a3 = signal base (first window), a4 = output base, a5 = n outputs."""
    b = ProgramBuilder(f"stencil_{index_bits}")
    b.scfgw("a2", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.li("t1", 8)
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_STRIDE_0))
    b.scfgw("a2", cfg.cfg_addr(1, cfg.REG_BOUND_0))
    b.li("t1", cfg.idx_cfg_value(index_bits))
    b.scfgw("t1", cfg.cfg_addr(1, cfg.REG_IDX_CFG))
    b.li("s3", 0)               # output counter
    b.csrsi(CSR_SSR, 1)
    b.label("outer")
    b.scfgw("a3", cfg.cfg_addr(1, cfg.REG_DATA_BASE))  # window base
    b.scfgw("a0", cfg.cfg_addr(0, cfg.REG_RPTR_0))     # weights
    b.scfgw("a1", cfg.cfg_addr(1, cfg.REG_IRPTR))      # taps
    b.fcvt_d_w("fa0", "zero")
    b.frep("a2", 1)
    b.fmadd_d("fa0", "ft0", "ft1", "fa0")
    b.fsd("fa0", "a4", 0)
    b.addi("a4", "a4", 8)
    b.addi("a3", "a3", 8)       # slide the window by one element
    b.addi("s3", "s3", 1)
    b.bne("s3", "a5", "outer")
    b.csrci(CSR_SSR, 1)
    b.halt()
    return b.build()


def run_stencil(signal, taps, index_bits=16, sim=None, check=True):
    """Convolve ``signal`` with sparse ``taps`` = [(offset, weight)].

    Offsets are relative to the window start (0 .. window-1); the
    output has ``len(signal) - window + 1`` positions (valid mode).
    Returns (stats, output array).
    """
    check_index_bits(index_bits)
    if not taps:
        raise FormatError("stencil needs at least one tap")
    offsets = [int(o) for o, _w in taps]
    weights = [float(w) for _o, w in taps]
    if min(offsets) < 0:
        raise FormatError("tap offsets must be window-relative (>= 0)")
    window = max(offsets) + 1
    n_out = len(signal) - window + 1
    if n_out <= 0:
        raise FormatError(f"signal shorter than the stencil window ({window})")

    program = PROGRAM_CACHE.get_or_build(("stencil", index_bits),
                                         lambda: _build(index_bits))
    if sim is None:
        sim = SingleCC()
    wbase = sim.alloc_floats(weights, name="weights")
    obase = sim.alloc_indices(offsets, index_bits, name="offsets")
    sbase = sim.alloc_floats(signal, name="signal")
    ybase = sim.alloc_zeros(n_out, name="out")
    stats, _ = sim.run(program, args={
        "a0": wbase, "a1": obase, "a2": len(taps), "a3": sbase,
        "a4": ybase, "a5": n_out,
    })
    out = np.array(sim.read_floats(ybase, n_out))
    if check:
        sig = np.asarray(signal, dtype=np.float64)
        expect = np.zeros(n_out)
        for o, w in zip(offsets, weights):
            expect += w * sig[o:o + n_out]
        check_reference(out, expect, "stencil convolution")
    return stats, out
