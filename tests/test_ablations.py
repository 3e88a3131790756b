"""Ablations of the ISSR design choices the paper argues for.

Each ablation varies one microarchitectural knob of the ISSR/streamer
on the cycle engine and checks its effect on SpVV/CsrMV performance:

- one shared ISSR port (the paper) vs a dedicated index port,
- data FIFO depth (the paper synthesizes 5 stages),
- staggered accumulator count vs the FPU latency,
- index width 16 vs 32 bit across the density sweep,
- TCDM bank count vs conflict-induced utilization loss.
"""

from repro.kernels.csrmv import run_csrmv
from repro.kernels.spvv import run_spvv
from repro.sim.harness import SingleCC
from repro.workloads import random_csr, random_dense_vector, random_sparse_vector


def test_port_sharing_ablation():
    """§II-B: one shared ISSR port (paper) vs a dedicated index port.

    The paper's area-optimized mux caps SpVV utilization at 4/5 and
    2/3; a third memory port removes the cap at ~1.5x interconnect
    cost.
    """
    x = random_dense_vector(4096, seed=20)
    fiber = random_sparse_vector(4096, 4096, seed=21)
    for bits in (16, 32):
        two, _ = run_spvv(fiber, x, "issr", bits, sim=SingleCC())
        three, _ = run_spvv(fiber, x, "issr", bits,
                            sim=SingleCC(three_port=True))
        assert three.fpu_utilization > two.fpu_utilization
        assert three.fpu_utilization > 0.95


def test_fifo_depth_ablation():
    """Shallower data FIFOs throttle the stream; 5 stages suffice."""
    x = random_dense_vector(2048, seed=1)
    fiber = random_sparse_vector(2048, 2048, seed=2)
    util = {}
    for depth in (1, 2, 3, 5, 8, 16):
        stats, _ = run_spvv(fiber, x, "issr", 16,
                            sim=SingleCC(fifo_depth=depth))
        util[depth] = stats.fpu_utilization
    # depth 1 cannot cover the 2-cycle memory latency: credit-starved
    assert util[1] < util[5] - 0.2
    assert util[16] - util[5] < 0.02    # paper's 5 stages are enough


def test_accumulator_count_ablation():
    """Fewer staggered accumulators than FPU latency x rate stalls."""
    from repro.kernels import common

    x = random_dense_vector(2048, seed=3)
    fiber = random_sparse_vector(2048, 2048, seed=4)
    util = {}
    saved = dict(common.N_ACCUMULATORS)
    try:
        for n_acc in (1, 2, 4, 8):
            common.N_ACCUMULATORS[16] = n_acc
            common.PROGRAM_CACHE.clear()
            stats, _ = run_spvv(fiber, x, "issr", 16)
            util[n_acc] = stats.fpu_utilization
    finally:
        common.N_ACCUMULATORS.update(saved)
        common.PROGRAM_CACHE.clear()
    assert util[1] < 0.3      # RAW-bound: ~1 MAC per FPU_LATENCY
    assert util[8] > 0.75     # enough partial sums hide the latency


def test_index_width_ablation():
    """16 vs 32-bit indices across row density (Fig. 4b crossover)."""
    x = random_dense_vector(1024, seed=5)
    ratios = []
    for npr in (4, 16, 64, 192):
        m = random_csr(48, 1024, 48 * npr, seed=6 + npr)
        s16, _ = run_csrmv(m, x, "issr", 16)
        s32, _ = run_csrmv(m, x, "issr", 32)
        ratios.append(s32.cycles / s16.cycles)
    assert ratios[0] < 1.0    # 32-bit wins on short rows
    assert ratios[-1] > 1.1   # 16-bit wins on long rows


def test_tcdm_bank_ablation():
    """More banks reduce conflict loss (the 0.8 -> ~0.7 cluster drop)."""
    from repro.cluster.cluster import SnitchCluster
    from repro.kernels.csrmv import build_csrmv
    from repro.utils.bits import pack_indices

    def peak_util(n_banks):
        ncols, nrows, npr = 1024, 64, 96
        m = random_csr(nrows, ncols, npr * nrows, seed=7)
        x = random_dense_vector(ncols, seed=8)
        cl = SnitchCluster(n_banks=n_banks, ideal_icache=True)
        st = cl.tcdm.storage
        xb = st.alloc(8 * ncols)
        st.write_floats(xb, x)
        vb = st.alloc(8 * m.nnz)
        st.write_floats(vb, m.vals)
        iw = pack_indices(m.idcs, 16)
        ib = st.alloc(8 * len(iw))
        st.write_words(ib, iw)
        pw = pack_indices(m.ptr, 32)
        pb = st.alloc(8 * len(pw))
        st.write_words(pb, pw)
        yb = st.alloc(8 * nrows)
        prog, _ = build_csrmv("issr", 16)
        per = nrows // 8
        for w in range(8):
            cc = cl.ccs[w]
            w0, w1 = w * per, (w + 1) * per
            nnz0 = int(m.ptr[w0])
            cc.core.load_program(prog)
            for reg, v in {10: vb + 8 * nnz0, 11: ib + 2 * nnz0,
                           12: pb + 4 * w0, 13: xb, 14: yb + 8 * w0,
                           15: per, 17: int(m.ptr[w1] - m.ptr[w0])}.items():
                cc.core.set_reg(reg, v)
        cycles = cl.engine.run(lambda: all(cc.idle for cc in cl.ccs))
        return max(cc.fpu.compute_ops / cycles for cc in cl.ccs)

    peak = {banks: peak_util(banks) for banks in (16, 32, 64)}
    assert peak[16] < peak[32] < peak[64]
