"""Cycle-level pipeline execution: TCDM-resident stages on N clusters.

One :class:`~repro.cluster.cluster.SnitchCluster` per partition shard
(n_workers=1: stages are sequential programs on worker CC 0), all
stepped by one shared :class:`~repro.sim.engine.Engine` behind a
shared main memory (plus an :class:`~repro.multicluster.hbm.HbmFabric`
when N > 1). Per cluster:

- setup DMAs the matrix shard and every resident vector buffer into
  the TCDM **once**; the matrix never moves again (the zero-re-DMA
  contract, checked from the real ``Dma`` word counters);
- each stage loads its assembled program (CsrMV or a
  :mod:`~repro.kernels.blas1` glue kernel) on CC 0 with buffer
  addresses from the :class:`~repro.pipeline.buffers.BufferPlan`;
- spilled buffers stage through TCDM slots around their stages;
- after a stage writes a ``replicated`` buffer, every cluster writes
  its owned slice back to the buffer's main-memory home and re-fetches
  the full vector (the solver-loop allgather);
- dot/diff2 partials are combined by the coordinator in cluster order
  (:func:`~repro.pipeline.executor.combine_partials`) and re-broadcast
  into every cluster's scalar table, charged the partition's combine
  cost.

The coordinator itself (scalar math, stage sequencing) is modeled as
charged engine delays — the same treatment the cluster runtime gives
the DMCC control program.
"""

import numpy as np

from repro.cluster.cluster import SnitchCluster
from repro.cluster.runtime import BARRIER_CYCLES, add_counters
from repro.errors import SimulationError
from repro.kernels.blas1 import build_glue
from repro.kernels.csrmv import build_csrmv
from repro.mem.mainmem import MainMemory
from repro.multicluster.hbm import HbmFabric
from repro.pipeline.buffers import plan_buffers
from repro.pipeline.executor import (
    HOST_STAGE_CYCLES,
    PipelineStats,
    allreduce_cycles,
    combine_partials,
    replicated_writes,
)
from repro.sim.counters import collect_cc_stats
from repro.sim.engine import Engine
from repro.utils.bits import pack_indices


class _ClusterCtx:
    """One cluster's residency state: plan, addresses, memory homes."""

    def __init__(self, cluster, plan, shard_mats, r0, r1, base):
        self.cluster = cluster
        self.plan = plan
        self.shard_mats = shard_mats
        self.r0 = r0
        self.r1 = r1
        self.base = base
        self.mm_mats = {}
        self._stage_slots = [
            {name: slot
             for name, slot in spec["in"] + spec["out"]}
            for spec in plan.stage_spills
        ]

    @property
    def local_rows(self):
        return self.r1 - self.r0

    def addr(self, key):
        return self.base + 8 * self.plan.offsets[key]

    def scalar_addr(self, name):
        return self.addr("scalars") + 8 * self.plan.scalar_index[name]

    def vec_base(self, name, stage_idx):
        """TCDM base of a vector operand for one stage (spill-aware)."""
        if name in self.plan.spilled:
            slot = self._stage_slots[stage_idx][name]
            return self.base + 8 * self.plan.staging_offsets[slot]
        return self.addr(name)

    def vec_addr(self, name, stage_idx, pipeline):
        """Owned-range address of a vector operand for a glue stage."""
        base = self.vec_base(name, stage_idx)
        if pipeline.vectors[name].replicated:
            base += 8 * self.r0
        return base


def _wait_dma(engine, ctxs, max_cycles):
    engine.run(lambda: not any(c.cluster.dma.busy for c in ctxs),
               max_cycles=max_cycles)


def _advance(engine, cycles, max_cycles):
    if cycles <= 0:
        return
    target = engine.cycle + cycles
    engine.at(target, lambda: None)  # feeds the watchdog during the wait
    engine.run(lambda: engine.cycle >= target, max_cycles=max_cycles)


def _launch(ctx, program, args):
    cc = ctx.cluster.ccs[0]
    cc.core.load_program(program)
    for reg, value in args.items():
        cc.core.set_reg(reg, value)


def _stage_program_args(ctx, stage, stage_idx, pipeline):
    """(program, {reg: value}) for one kernel/glue stage on one cluster."""
    if stage.kind == "csrmv":
        mname = stage.args["matrix"]
        mat = ctx.shard_mats[mname]
        program, _meta = build_csrmv(pipeline.variant, pipeline.index_bits)
        return program, {
            10: ctx.addr(f"{mname}.vals"),
            11: ctx.addr(f"{mname}.idcs"),
            12: ctx.addr(f"{mname}.ptr"),
            # x spans the full column space (vec_base); y receives this
            # shard's rows, so a replicated y lands at its owned slice
            13: ctx.vec_base(stage.args["x"], stage_idx),
            14: ctx.vec_addr(stage.args["y"], stage_idx, pipeline),
            15: mat.nrows,
            17: mat.nnz,
        }
    program, _meta = build_glue(stage.kind)
    n = ctx.local_rows
    args = {12: n}  # a2
    if stage.kind == "jacobi":
        args[10] = ctx.vec_addr(stage.args["y"], stage_idx, pipeline)
        args[11] = ctx.vec_addr(stage.args["b"], stage_idx, pipeline)
        args[13] = ctx.vec_addr(stage.args["dinv"], stage_idx, pipeline)
        args[14] = ctx.vec_addr(stage.args["out"], stage_idx, pipeline)
        return program, args
    args[10] = ctx.vec_addr(stage.args["x"], stage_idx, pipeline)
    if stage.kind in ("dot", "diff2"):
        args[11] = ctx.vec_addr(stage.args["y"], stage_idx, pipeline)
        args[14] = ctx.scalar_addr(stage.args["out"])
    else:
        args[11] = ctx.vec_addr(stage.args["y"], stage_idx, pipeline)
        if stage.kind != "copy":
            args[13] = ctx.scalar_addr(stage.args["alpha"])
    return program, args


def run_pipeline_cycle(pipeline, partition, shards, n_iters, hbm,
                       tcdm_bytes=256 * 1024, watchdog=200000,
                       max_cycles=200_000_000):
    """Execute one pipeline cycle-by-cycle; see the module docstring."""
    n_clusters = partition.n_clusters
    engine = Engine(watchdog=watchdog)
    fabric = None
    if n_clusters > 1:
        fabric = HbmFabric(engine, hbm)
        engine.add(fabric)
    mainmem = MainMemory()
    mm = mainmem.storage

    # Main-memory homes: one global array per vector buffer (initial
    # data, spill backing, exchange rendezvous, final writeback).
    homes = {}
    for name, buf in pipeline.vectors.items():
        base = mm.alloc(8 * max(buf.length, 1), name=f"home.{name}")
        init = buf.init if buf.init is not None \
            else np.zeros(buf.length, dtype=np.float64)
        mm.write_floats(base, init)
        homes[name] = base

    ctxs = []
    for c, shard in enumerate(partition.shards):
        plan = plan_buffers(pipeline, shards[c], shard.nrows,
                            tcdm_bytes // 8)
        cl = SnitchCluster(n_workers=1, tcdm_bytes=tcdm_bytes,
                           engine=engine, mainmem=mainmem,
                           name=f"cl{c}" if n_clusters > 1 else "")
        if fabric is not None:
            fabric.attach(cl.dma)
        st = cl.tcdm.storage
        st.reset_allocator()
        base = st.alloc(8 * plan.total_words, name="pipeline")
        r0 = int(shard.rows[0]) if shard.nrows else 0
        ctx = _ClusterCtx(cl, plan, shards[c], r0, r0 + shard.nrows, base)
        for mname, mat in shards[c].items():
            vals = mm.alloc(8 * max(mat.nnz, 1))
            mm.write_floats(vals, mat.vals)
            idx_words = pack_indices(mat.idcs, pipeline.index_bits)
            idcs = mm.alloc(8 * max(len(idx_words), 1))
            mm.write_words(idcs, idx_words)
            ptr_words = pack_indices(mat.ptr, 32)
            ptr = mm.alloc(8 * len(ptr_words))
            mm.write_words(ptr, ptr_words)
            ctx.mm_mats[mname] = (vals, idcs, ptr)
        ctxs.append(ctx)
    for ctx in ctxs:
        ctx.cluster.reset_stats()

    scalars = dict(pipeline.scalars)

    def push_scalars(names=None):
        for ctx in ctxs:
            for name in (names if names is not None else scalars):
                ctx.cluster.tcdm.storage.write_floats(
                    ctx.scalar_addr(name), [scalars[name]])

    push_scalars()

    # -- setup: the one and only matrix DMA + initial vector residency --
    start = engine.cycle
    matrix_dma_words = 0
    for ctx in ctxs:
        for mname, (vals, idcs, ptr) in ctx.mm_mats.items():
            for part, src in (("vals", vals), ("idcs", idcs), ("ptr", ptr)):
                words = ctx.plan.words[f"{mname}.{part}"]
                ctx.cluster.dma.copy_in(src, ctx.addr(f"{mname}.{part}"),
                                        words)
                matrix_dma_words += words
        for name, buf in pipeline.vectors.items():
            if buf.temp or name in ctx.plan.spilled:
                continue  # temps start undefined; spills live in mainmem
            if buf.replicated:
                ctx.cluster.dma.copy_in(homes[name], ctx.addr(name),
                                        max(buf.length, 1))
            elif ctx.local_rows:
                ctx.cluster.dma.copy_in(homes[name] + 8 * ctx.r0,
                                        ctx.addr(name), ctx.local_rows)
    _wait_dma(engine, ctxs, max_cycles)

    stats = PipelineStats()
    stats.backend = "cycle"
    stats.n_clusters = n_clusters
    stats.setup_cycles = engine.cycle - start
    stats.matrix_dma_words = matrix_dma_words
    stats.spilled = sorted(set().union(*(c.plan.spilled for c in ctxs))
                           if ctxs else ())
    stats.history = {name: [] for name in pipeline.record}

    exchange_after = replicated_writes(pipeline)
    n_setup_stages = len(pipeline.setup_stages)

    def run_stage(stage, gidx):
        t0 = engine.cycle
        if stage.kind == "host":
            updates = stage.args["fn"](dict(scalars))
            scalars.update(updates)
            push_scalars(list(updates))
            _advance(engine, HOST_STAGE_CYCLES, max_cycles)
        else:
            # spill-ins
            for ctx in ctxs:
                for name, slot in ctx.plan.stage_spills[gidx]["in"]:
                    buf = pipeline.vectors[name]
                    dst = ctx.base + 8 * ctx.plan.staging_offsets[slot]
                    if buf.replicated:
                        ctx.cluster.dma.copy_in(homes[name], dst,
                                                max(buf.length, 1))
                    elif ctx.local_rows:
                        ctx.cluster.dma.copy_in(homes[name] + 8 * ctx.r0,
                                                dst, ctx.local_rows)
            _wait_dma(engine, ctxs, max_cycles)
            # compute on every cluster's CC 0
            running = []
            for ctx in ctxs:
                program, args = _stage_program_args(ctx, stage, gidx,
                                                    pipeline)
                _launch(ctx, program, args)
                running.append(ctx.cluster.ccs[0])
            engine.run(lambda: all(cc.idle for cc in running),
                       max_cycles=max_cycles)
            for cc in running:
                if not cc.core.halted:
                    raise SimulationError(
                        f"stage {stage.name!r} did not halt")
            # spill-outs + replicated-slice writebacks, then re-fetches
            for ctx in ctxs:
                for name, slot in ctx.plan.stage_spills[gidx]["out"]:
                    buf = pipeline.vectors[name]
                    src = ctx.base + 8 * ctx.plan.staging_offsets[slot]
                    if buf.replicated:
                        src += 8 * ctx.r0
                    if ctx.local_rows:
                        ctx.cluster.dma.copy_out(
                            src, homes[name] + 8 * ctx.r0, ctx.local_rows)
                if n_clusters > 1:
                    for name in exchange_after[gidx]:
                        if name in ctx.plan.spilled or not ctx.local_rows:
                            continue
                        ctx.cluster.dma.copy_out(
                            ctx.addr(name) + 8 * ctx.r0,
                            homes[name] + 8 * ctx.r0, ctx.local_rows)
            _wait_dma(engine, ctxs, max_cycles)
            if n_clusters > 1:
                for ctx in ctxs:
                    for name in exchange_after[gidx]:
                        if name in ctx.plan.spilled:
                            continue
                        ctx.cluster.dma.copy_in(
                            homes[name], ctx.addr(name),
                            max(pipeline.vectors[name].length, 1))
                _wait_dma(engine, ctxs, max_cycles)
            # reduction stages: allreduce partials in cluster order
            if stage.kind in ("dot", "diff2"):
                out = stage.args["out"]
                parts = [
                    ctx.cluster.tcdm.storage.read_floats(
                        ctx.scalar_addr(out), 1)[0]
                    for ctx in ctxs
                ]
                scalars[out] = combine_partials(parts)
                push_scalars([out])
                _advance(engine, allreduce_cycles(partition, hbm),
                         max_cycles)
        _advance(engine, BARRIER_CYCLES, max_cycles)
        stats.per_stage[stage.name] = \
            stats.per_stage.get(stage.name, 0) + (engine.cycle - t0)

    for gidx, stage in enumerate(pipeline.setup_stages):
        run_stage(stage, gidx)

    dma_prev = sum(c.cluster.dma.words_moved for c in ctxs)
    if pipeline.setup_stages:
        stats.setup_cycles = engine.cycle - start
    for _ in range(n_iters):
        for sidx, stage in enumerate(pipeline.stages):
            run_stage(stage, n_setup_stages + sidx)
        stats.iterations += 1
        dma_now = sum(c.cluster.dma.words_moved for c in ctxs)
        stats.dma_words_by_iteration.append(dma_now - dma_prev)
        dma_prev = dma_now
        for name in pipeline.record:
            stats.history[name].append(scalars[name])
        if pipeline.stop is not None and pipeline.stop(dict(scalars)):
            break  # early stop is visible as stats.iterations < n_iters

    # -- final writeback of the output buffers ---------------------------
    for ctx in ctxs:
        for name in pipeline.outputs:
            buf = pipeline.vectors[name]
            if name in ctx.plan.spilled:
                continue  # home is authoritative
            if buf.replicated:
                if n_clusters == 1:
                    ctx.cluster.dma.copy_out(ctx.addr(name), homes[name],
                                             max(buf.length, 1))
                # N > 1: the post-write exchange kept the home current
            elif ctx.local_rows:
                ctx.cluster.dma.copy_out(ctx.addr(name),
                                         homes[name] + 8 * ctx.r0,
                                         ctx.local_rows)
    _wait_dma(engine, ctxs, max_cycles)

    total = engine.cycle - start
    stats.cycles = total
    for ctx in ctxs:
        core = collect_cc_stats(ctx.cluster.ccs[0], total, start_cycle=start)
        stats.per_core.append(core)
        add_counters(stats, [core])
        stats.tcdm_conflicts += ctx.cluster.tcdm.conflict_cycles
        stats.dma_words += ctx.cluster.dma.words_moved
        stats.dma_busy_cycles += ctx.cluster.dma.busy_cycles

    stats.scalars = dict(scalars)
    outputs = {
        name: np.array(mm.read_floats(homes[name],
                                      pipeline.vectors[name].length))
        for name in pipeline.outputs
    }
    return stats, outputs
