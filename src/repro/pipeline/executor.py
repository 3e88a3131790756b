"""Pipeline execution: dispatch, shared coordination model, stats.

:func:`run_pipeline` executes a :class:`~repro.pipeline.ir.Pipeline`
on either backend and on N clusters:

- ``cycle`` (:mod:`repro.pipeline.cycle`) — every stage runs as one
  assembled program on its cluster's worker CC 0, with all buffers
  TCDM-resident per the :mod:`~repro.pipeline.buffers` plan; DMA
  traffic (setup, spills, replicated-buffer exchanges) is real
  :class:`~repro.mem.dma.Dma` transfers.
- ``compiled`` (:mod:`repro.pipeline.fast`) — functionally replays
  every stage's exact FP order (the CsrMV stages through the *lowered*
  assembled program, :mod:`repro.compiler`; bit-identical results and
  histories) and composes the analytic stage models, within the
  documented ``CYCLE_TOLERANCE["pipeline"]``.

Everything that *coordinates* rather than computes lives here so both
backends charge the identical cost: the host-stage cost, the per-stage
barrier, the dot allreduce (through the partition's combine plan), and
the partial-sum combine order that keeps N-cluster dot products
bit-identical across backends.
"""

import numpy as np

from repro.errors import ConfigError
from repro.multicluster.hbm import HbmConfig
from repro.multicluster.partition import get_partitioner, take_rows
from repro.sim.counters import RunStats

#: Cycles charged for one host scalar stage (DMCC-side divisions,
#: square roots, convergence checks) — identical on both backends.
HOST_STAGE_CYCLES = 32

#: Per-stage launch overhead added by the analytic model on top of the
#: single-CC stage cost: the program hand-off by the runtime and the
#: first fetch of the freshly loaded program (measured against the
#: cycle executor's per-stage breakdown — the L0 I-cache turns out to
#: hide refills behind the loop's own issue slots).
STAGE_LAUNCH_CYCLES = 4


class PipelineStats(RunStats):
    """Aggregate counters plus pipeline-level structure for one run."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.backend = None
        self.n_clusters = 1
        self.iterations = 0
        self.setup_cycles = 0
        self.per_stage = {}
        #: {scalar name: [value at each iteration]} — bit-identical
        #: across backends (and across variants under the documented
        #: bounded-row-degree condition, see docs/solvers.md).
        self.history = {}
        #: Total DMA words moved during each iteration (spills +
        #: replicated-buffer exchanges; the matrix moves only once,
        #: during setup — see :attr:`matrix_dma_words`).
        self.dma_words_by_iteration = []
        #: DMA words spent moving matrix operands (setup only).
        self.matrix_dma_words = 0
        self.spilled = []
        #: Final scalar-table state (bit-identical across backends) —
        #: the values the stop predicate last saw.
        self.scalars = {}

    @property
    def cycles_per_iteration(self):
        """Steady-state per-iteration cost (setup excluded)."""
        if not self.iterations:
            return 0.0
        return (self.cycles - self.setup_cycles) / self.iterations


def combine_partials(parts):
    """Sum per-cluster reduction partials in cluster order.

    The one allreduce order both backends share: starting from the
    cluster-0 partial (not ``0.0``), so a single-cluster run reduces
    to exactly the single-cluster kernel result.
    """
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return float(total)


def allreduce_cycles(partition, hbm):
    """Modeled cost of one scalar allreduce across the clusters."""
    if partition.n_clusters <= 1:
        return 0
    return partition.combine_cycles(hbm, result_words=partition.n_clusters)


def partition_pipeline(pipeline, n_clusters, partitioner):
    """Partition the pipeline's row space; returns (partition, shards).

    ``shards[c]`` maps every matrix operand name to cluster ``c``'s
    row block. All matrix operands follow the primary (first) operand's
    partition; only contiguous partitions are executable (replicated
    buffers exchange via one strided DMA per cluster).
    """
    if not pipeline.matrices:
        raise ConfigError(f"pipeline {pipeline.name!r} has no matrix "
                          "operand to partition")
    primary = next(iter(pipeline.matrices.values()))
    partition = get_partitioner(partitioner)(primary.matrix, n_clusters)
    for shard in partition.shards:
        rows = shard.rows
        if len(rows) > 1 and not np.all(np.diff(rows) == 1):
            raise ConfigError(
                f"pipeline execution needs contiguous row partitions; "
                f"{partition.scheme!r} produced a scattered shard "
                "(use 'row_block' or 'nnz_balanced')")
    shards = []
    for shard in partition.shards:
        per_matrix = {}
        for name, operand in pipeline.matrices.items():
            if operand is primary:
                per_matrix[name] = shard.matrix
            else:
                per_matrix[name] = take_rows(operand.matrix, shard.rows)
        shards.append(per_matrix)
    nrows = primary.matrix.nrows
    for name, buf in pipeline.vectors.items():
        if not buf.replicated and buf.length != nrows:
            raise ConfigError(
                f"partitioned buffer {name!r} has length {buf.length}, "
                f"but the row space has {nrows} rows")
    return partition, shards


def replicated_writes(pipeline):
    """Per stage (``all_stages()`` order): replicated buffers written.

    After such a stage every cluster holds a fresh *owned slice* of
    the buffer; on N > 1 clusters the executor re-broadcasts it (slice
    writeback, barrier, full re-fetch) before the next stage.
    """
    out = []
    for stage in pipeline.all_stages():
        out.append(tuple(
            name for name in stage.vector_writes()
            if pipeline.vectors[name].replicated))
    return out


def run_pipeline(pipeline, n_iters, backend=None, n_clusters=1,
                 partitioner="row_block", hbm=None,
                 tcdm_bytes=256 * 1024, watchdog=200000,
                 max_cycles=200_000_000):
    """Execute ``pipeline`` for up to ``n_iters`` iterations.

    Returns ``(PipelineStats, {output name: np.ndarray})``. The run
    ends early when the pipeline's ``stop`` predicate accepts the
    scalar table after an iteration. Results, recorded histories, and
    the stop iteration are bit-identical across backends.
    """
    from repro.backends import get_backend

    pipeline.validate()
    if n_iters < 1:
        raise ConfigError(f"n_iters must be >= 1, got {n_iters}")
    hbm = hbm if hbm is not None else HbmConfig()
    backend_name = get_backend(backend).name
    partition, shards = partition_pipeline(pipeline, n_clusters, partitioner)
    if backend_name == "cycle":
        from repro.pipeline.cycle import run_pipeline_cycle

        return run_pipeline_cycle(pipeline, partition, shards, n_iters,
                                  hbm=hbm, tcdm_bytes=tcdm_bytes,
                                  watchdog=watchdog, max_cycles=max_cycles)
    if backend_name == "compiled":
        from repro.pipeline.fast import run_pipeline_fast

        return run_pipeline_fast(pipeline, partition, shards, n_iters,
                                 hbm=hbm, tcdm_bytes=tcdm_bytes)
    raise ConfigError(
        f"pipelines support the 'cycle' and 'compiled' backends, not "
        f"{backend_name!r}")
