"""Functional pipeline execution: exact replay + composed models.

The ``compiled`` backend's pipeline executor. Mirrors
:mod:`repro.pipeline.cycle` stage for stage:

- **results** — every stage replays the assembled kernel's exact FP
  rounding order (CsrMV through the row replay of the pipeline's
  *lowered* CsrMV program, :mod:`repro.compiler`; glue
  through :func:`repro.kernels.blas1.apply_glue`; reductions through
  the shared :func:`~repro.pipeline.executor.combine_partials`
  order), so outputs, recorded histories, and early-stop decisions are
  bit-identical to the cycle executor;
- **cycles** — composed analytic stage models: the documented CsrMV /
  glue models plus :data:`~repro.pipeline.executor.STAGE_LAUNCH_CYCLES`
  per launched stage, the shared coordination constants (barrier,
  host-stage, allreduce), and the DMA model for setup, spill, and
  exchange traffic. Whole-run predictions carry the
  ``CYCLE_TOLERANCE["pipeline"]`` contract.
"""

import math

import numpy as np

from repro.backends.model import _dma_cycles, csrmv_stats, glue_stats
from repro.cluster.runtime import BARRIER_CYCLES
from repro.compiler.templates import lower
from repro.kernels.blas1 import apply_glue
from repro.mem.dma import BEAT_WORDS
from repro.pipeline.buffers import plan_buffers
from repro.pipeline.executor import (
    HOST_STAGE_CYCLES,
    STAGE_LAUNCH_CYCLES,
    PipelineStats,
    allreduce_cycles,
    combine_partials,
    replicated_writes,
)
from repro.sim.counters import RunStats

_AGG_ATTRS = ("retired", "fpu_compute_ops", "fpu_mac_ops",
              "fpu_issued_ops", "mem_reads", "mem_writes")


def _accumulate(stats, stage_stats):
    for attr in _AGG_ATTRS:
        setattr(stats, attr, getattr(stats, attr)
                + getattr(stage_stats, attr))


def run_pipeline_fast(pipeline, partition, shards, n_iters, hbm,
                      tcdm_bytes=256 * 1024):
    """Execute one pipeline functionally; see the module docstring."""
    from repro.kernels.csrmv import build_csrmv

    program, _meta = build_csrmv(pipeline.variant, pipeline.index_bits)
    kernel = lower(program, family_hint="csrmv")

    n_clusters = partition.n_clusters
    tcdm_words = tcdm_bytes // 8
    plans = [plan_buffers(pipeline, shards[c], shard.nrows, tcdm_words)
             for c, shard in enumerate(partition.shards)]
    bounds = []
    for shard in partition.shards:
        r0 = int(shard.rows[0]) if shard.nrows else 0
        bounds.append((r0, r0 + shard.nrows))
    bw = hbm.cluster_bandwidth(n_clusters) if n_clusters > 1 \
        else float(BEAT_WORDS)

    # -- functional state: global arrays + the scalar table --------------
    state = {}
    for name, buf in pipeline.vectors.items():
        state[name] = buf.init.copy() if buf.init is not None \
            else np.zeros(buf.length, dtype=np.float64)
    scalars = dict(pipeline.scalars)

    stats = PipelineStats()
    stats.backend = "compiled"
    stats.n_clusters = n_clusters
    stats.spilled = sorted(set().union(*(p.spilled for p in plans))
                           if plans else ())
    stats.history = {name: [] for name in pipeline.record}

    # -- setup: matrix + resident vector DMA, modeled --------------------
    setup = 0
    for c, plan in enumerate(plans):
        words = transfers = 0
        for mname in pipeline.matrices:
            for part in ("vals", "idcs", "ptr"):
                w = plan.words[f"{mname}.{part}"]
                words += w
                transfers += 1
                stats.matrix_dma_words += w
        for name, buf in pipeline.vectors.items():
            if buf.temp or name in plan.spilled:
                continue
            w = max(buf.length, 1) if buf.replicated \
                else (bounds[c][1] - bounds[c][0])
            if w:
                words += w
                transfers += 1
        stats.dma_words += words
        setup = max(setup, _dma_cycles(words, transfers, bw))
    stats.setup_cycles = setup

    exchange_after = replicated_writes(pipeline)
    n_setup_stages = len(pipeline.setup_stages)
    local_rows = [r1 - r0 for r0, r1 in bounds]
    row_lengths = {name: op.matrix.row_lengths()
                   for name, op in pipeline.matrices.items()}

    # Stage costs depend only on the stage index (never on the data),
    # so each is modeled once and its cached (cycles, words, counter
    # increments) replayed every iteration.
    stage_costs = {}

    def stage_cycles_and_traffic(stage, gidx):
        """(cycles, dma words, counter increments) of one stage."""
        if gidx in stage_costs:
            return stage_costs[gidx]
        inc = RunStats()
        if stage.kind == "host":
            stage_costs[gidx] = (HOST_STAGE_CYCLES, 0, inc)
            return stage_costs[gidx]
        words = 0
        spill_in = spill_out = compute = 0
        for c, plan in enumerate(plans):
            cin = cout = 0
            for name, _slot in plan.stage_spills[gidx]["in"]:
                buf = pipeline.vectors[name]
                w = max(buf.length, 1) if buf.replicated else local_rows[c]
                if w:
                    cin += _dma_cycles(w, 1, bw)
                    words += w
            for name, _slot in plan.stage_spills[gidx]["out"]:
                if local_rows[c]:
                    cout += _dma_cycles(local_rows[c], 1, bw)
                    words += local_rows[c]
            spill_in = max(spill_in, cin)
            spill_out = max(spill_out, cout)
            if stage.kind == "csrmv":
                mname = stage.args["matrix"]
                r0, r1 = bounds[c]
                lengths = row_lengths[mname][r0:r1]
                st = csrmv_stats(lengths, pipeline.variant,
                                 pipeline.index_bits)
            else:
                st = glue_stats(stage.kind, local_rows[c])
            _accumulate(inc, st)
            compute = max(compute, st.cycles + STAGE_LAUNCH_CYCLES)
        cycles = spill_in + compute + spill_out
        if n_clusters > 1:
            ex_out = ex_in = 0
            for c, plan in enumerate(plans):
                for name in exchange_after[gidx]:
                    if name in plan.spilled:
                        continue
                    # slice writeback only from clusters that own rows;
                    # the full re-fetch reaches every resident copy
                    # (empty shards included — mirror the cycle executor)
                    if local_rows[c]:
                        ex_out = max(ex_out,
                                     _dma_cycles(local_rows[c], 1, bw))
                        words += local_rows[c]
                    full = max(pipeline.vectors[name].length, 1)
                    ex_in = max(ex_in, _dma_cycles(full, 1, bw))
                    words += full
            cycles += ex_out + ex_in
        if stage.kind in ("dot", "diff2"):
            cycles += allreduce_cycles(partition, hbm)
        stage_costs[gidx] = (cycles, words, inc)
        return stage_costs[gidx]

    def apply_stage(stage):
        """Replay one stage's exact FP semantics on the global state."""
        if stage.kind == "host":
            scalars.update(stage.args["fn"](dict(scalars)))
            return
        if stage.kind == "csrmv":
            mat = pipeline.matrices[stage.args["matrix"]].matrix
            state[stage.args["y"]] = kernel.gather_rows(
                mat.vals, mat.idcs, mat.ptr, state[stage.args["x"]])
            return
        if stage.kind in ("dot", "diff2"):
            x, y = state[stage.args["x"]], state[stage.args["y"]]
            parts = [apply_glue(stage.kind, x[r0:r1], y=y[r0:r1])
                     for r0, r1 in bounds]
            scalars[stage.args["out"]] = combine_partials(parts)
            return
        if stage.kind == "jacobi":
            state[stage.args["out"]] = apply_glue(
                "jacobi", state[stage.args["y"]], y=state[stage.args["b"]],
                dinv=state[stage.args["dinv"]])
            return
        alpha = scalars[stage.args["alpha"]] \
            if "alpha" in stage.args else None
        state[stage.args["y"]] = apply_glue(
            stage.kind, state[stage.args["x"]],
            y=state.get(stage.args["y"]), alpha=alpha)

    def run_stage(stage, gidx):
        cycles, words, inc = stage_cycles_and_traffic(stage, gidx)
        cycles += BARRIER_CYCLES
        _accumulate(stats, inc)
        apply_stage(stage)
        stats.per_stage[stage.name] = \
            stats.per_stage.get(stage.name, 0) + cycles
        return cycles, words

    total = stats.setup_cycles
    for gidx, stage in enumerate(pipeline.setup_stages):
        cycles, words = run_stage(stage, gidx)
        total += cycles
        stats.dma_words += words
    stats.setup_cycles = total

    for _ in range(n_iters):
        iter_words = 0
        for sidx, stage in enumerate(pipeline.stages):
            cycles, words = run_stage(stage, n_setup_stages + sidx)
            total += cycles
            iter_words += words
        stats.iterations += 1
        stats.dma_words += iter_words
        stats.dma_words_by_iteration.append(iter_words)
        for name in pipeline.record:
            stats.history[name].append(scalars[name])
        if pipeline.stop is not None and pipeline.stop(dict(scalars)):
            break

    # final writeback of partitioned outputs (modeled)
    wb = 0
    for c, plan in enumerate(plans):
        for name in pipeline.outputs:
            buf = pipeline.vectors[name]
            if name in plan.spilled:
                continue
            if buf.replicated:
                if n_clusters == 1:
                    wb = max(wb, _dma_cycles(max(buf.length, 1), 1, bw))
                    stats.dma_words += max(buf.length, 1)
            elif local_rows[c]:
                wb = max(wb, _dma_cycles(local_rows[c], 1, bw))
                stats.dma_words += local_rows[c]
    total += wb

    stats.cycles = int(math.ceil(total))
    stats.dma_busy_cycles = min(stats.cycles,
                                int(math.ceil(stats.dma_words / bw)))
    stats.scalars = dict(scalars)
    outputs = {name: state[name].copy() for name in pipeline.outputs}
    return stats, outputs
