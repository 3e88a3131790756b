"""Codebook decoding through the ISSR (§III-C).

"ISSRs can stream codebook-compressed data, representing arrays with
repeated values as a series of indices pointing to a compact value
array." A single ISSR streams the decoded sequence — the codes are the
index array, the codebook is the indirection data base.

Kernels:

- :func:`run_decode` — expand codes to a dense array (ISSR read +
  SSR write stream, one ``fmv.d`` per element);
- :func:`run_codebook_dot` — dot product of a dense vector with a
  codebook-compressed vector: the SSR streams the dense operand, the
  ISSR streams decoded values, the loop body is one FREP'd fmadd —
  identical code shape and performance to the SpVV kernels.
"""

import numpy as np

from repro.core import config as cfg
from repro.errors import FormatError
from repro.isa.isa import CSR_SSR
from repro.isa.program import ProgramBuilder
from repro.kernels.common import (
    ACC_BASE,
    N_ACCUMULATORS,
    PROGRAM_CACHE,
    STAGGER_RD_RS3,
    check_index_bits,
    check_reference,
    emit_tree_reduction,
    emit_zero_accumulators,
)
from repro.kernels.gather import run_gather
from repro.sim.harness import SingleCC


def compress(values, max_codebook=None):
    """Build (codebook, codes) for a value sequence.

    Raises :class:`FormatError` if the number of distinct values
    exceeds ``max_codebook`` (compression would not be useful).
    """
    codebook = []
    lookup = {}
    codes = []
    for v in values:
        v = float(v)
        code = lookup.get(v)
        if code is None:
            code = len(codebook)
            lookup[v] = code
            codebook.append(v)
            if max_codebook is not None and len(codebook) > max_codebook:
                raise FormatError(
                    f"more than {max_codebook} distinct values; "
                    "codebook compression is not applicable"
                )
        codes.append(code)
    return codebook, codes


def run_decode(codebook, codes, index_bits=16, sim=None, check=True):
    """Decode a codebook-compressed array to dense; returns (stats, out).

    Decoding IS a gather with the codebook as the gathered table.
    """
    stats, out = run_gather(codebook, codes, index_bits=index_bits,
                            sim=sim, check=False)
    if check:
        expect = np.asarray(codebook)[np.asarray(codes)]
        if not np.array_equal(out, expect):
            raise AssertionError("codebook decode mismatch")
    return stats, out


def _build_dot(index_bits, n_acc):
    """Dense . decode(codebook, codes): single FREP'd fmadd loop.

    Arguments: a0 = dense array, a1 = codes, a2 = count,
    a3 = codebook base, a4 = &result.
    """
    b = ProgramBuilder(f"codebook_dot_{index_bits}")
    b.scfgw("a2", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.li("t1", 8)
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_STRIDE_0))
    b.scfgw("a2", cfg.cfg_addr(1, cfg.REG_BOUND_0))
    b.li("t1", cfg.idx_cfg_value(index_bits))
    b.scfgw("t1", cfg.cfg_addr(1, cfg.REG_IDX_CFG))
    b.scfgw("a3", cfg.cfg_addr(1, cfg.REG_DATA_BASE))
    emit_zero_accumulators(b, ACC_BASE, n_acc)
    b.beqz("a2", "empty")
    b.csrsi(CSR_SSR, 1)
    b.scfgw("a0", cfg.cfg_addr(0, cfg.REG_RPTR_0))
    b.scfgw("a1", cfg.cfg_addr(1, cfg.REG_IRPTR))
    b.frep("a2", 1, n_acc, STAGGER_RD_RS3)
    b.fmadd_d(ACC_BASE, 0, 1, ACC_BASE)
    b.csrci(CSR_SSR, 1)
    b.label("empty")
    emit_tree_reduction(b, ACC_BASE, n_acc)
    b.fsd(ACC_BASE, "a4", 0)
    b.halt()
    return b.build()


def run_codebook_dot(dense, codebook, codes, index_bits=16, sim=None,
                     check=True):
    """dot(dense, decoded) with the compressed operand never expanded."""
    check_index_bits(index_bits)
    if len(dense) != len(codes):
        raise FormatError("dense operand and code stream length mismatch")
    n_acc = N_ACCUMULATORS[index_bits]
    program = PROGRAM_CACHE.get_or_build(
        ("codebook_dot", index_bits), lambda: _build_dot(index_bits, n_acc))
    if sim is None:
        sim = SingleCC()
    dbase = sim.alloc_floats(dense, name="dense")
    cbase = sim.alloc_indices(codes, index_bits, name="codes")
    bbase = sim.alloc_floats(codebook, name="codebook")
    rbase = sim.alloc_zeros(1, name="result")
    stats, _ = sim.run(program, args={
        "a0": dbase, "a1": cbase, "a2": len(codes), "a3": bbase, "a4": rbase,
    })
    result = sim.read_floats(rbase, 1)[0]
    if check:
        expect = float(np.dot(np.asarray(dense),
                              np.asarray(codebook)[np.asarray(codes)]))
        check_reference(result, expect, "codebook dot")
    return stats, result
