"""Multi-kernel pipelines over TCDM-resident buffers.

The layer iterative algorithms sit on (see :mod:`repro.solvers`):

- :mod:`~repro.pipeline.ir` — the :class:`Pipeline` IR: stages (sparse
  kernels + dense glue + host scalar steps) bound to named buffers;
- :mod:`~repro.pipeline.buffers` — the TCDM buffer manager: resident
  placement, liveness-based temp reuse, spill-to-mainmem planning;
- :mod:`~repro.pipeline.executor` — :func:`run_pipeline`, executing
  the same IR on both backends and on N clusters, bit-identically;
- :mod:`~repro.pipeline.cycle` / :mod:`~repro.pipeline.fast` — the
  cycle and compiled executors.

>>> from repro.pipeline import Pipeline, run_pipeline
>>> pipe = Pipeline("demo", variant="issr", index_bits=16)  # doctest: +SKIP
>>> stats, out = run_pipeline(pipe, n_iters=20)             # doctest: +SKIP
"""

from repro.pipeline.buffers import BufferPlan, matrix_words, plan_buffers
from repro.pipeline.executor import (
    HOST_STAGE_CYCLES,
    STAGE_LAUNCH_CYCLES,
    PipelineStats,
    combine_partials,
    run_pipeline,
)
from repro.pipeline.ir import (
    STAGE_KINDS,
    MatrixOperand,
    Pipeline,
    Stage,
    VectorBuffer,
)

__all__ = [
    "BufferPlan",
    "HOST_STAGE_CYCLES",
    "MatrixOperand",
    "Pipeline",
    "PipelineStats",
    "STAGE_KINDS",
    "STAGE_LAUNCH_CYCLES",
    "Stage",
    "VectorBuffer",
    "combine_partials",
    "matrix_words",
    "plan_buffers",
    "run_pipeline",
]
