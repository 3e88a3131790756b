"""TCDM-resident buffer planning: placement, liveness reuse, spills.

Plans where every pipeline buffer lives for one cluster's TCDM:

- **resident** allocations — matrix operand arrays (vals/idcs/ptr),
  the scalar table, and every vector buffer that fits. The matrix and
  the scalar table are *non-spillable*: keeping the matrix resident
  across iterations is the point of the subsystem (the zero-re-DMA
  contract), and scalars are single words.
- **liveness-based reuse** — ``temp`` vector buffers are live from
  their first write to their last use within one iteration; temps
  with disjoint live ranges share TCDM words.
- **spill-to-mainmem** — when the budget is exceeded, vector buffers
  are evicted (fewest-accessing-stages first, largest first on ties)
  to their main-memory home arrays. A spilled buffer is staged through
  a shared TCDM slot around each stage that touches it: DMA-in before
  a reading stage, DMA-out after a writing stage
  (:data:`BufferPlan.stage_spills`); the executors turn those entries
  into real :class:`~repro.mem.dma.Dma` transfers (cycle) or modeled
  transfer cycles (compiled).

The plan is pure (no simulator state), so both executors derive the
identical layout — addresses on the cycle backend, traffic volumes on
the compiled one.
"""

from repro.errors import ConfigError
from repro.mem.dma import RESERVE_WORDS


def matrix_words(matrix, index_bits):
    """(vals, idcs, ptr) TCDM word footprint of one CSR operand."""
    idx_bytes = index_bits // 8
    vals = max(matrix.nnz, 1)
    idcs = max((matrix.nnz * idx_bytes + 7) // 8, 1)
    ptr = max(((matrix.nrows + 1) * 4 + 7) // 8, 1)
    return vals, idcs, ptr


class BufferPlan:
    """The planned TCDM layout for one cluster (see module docstring)."""

    __slots__ = ("offsets", "words", "total_words", "spilled",
                 "staging_offsets", "slot_words", "stage_spills",
                 "scalar_index")

    def __init__(self):
        self.offsets = {}       # key -> word offset
        self.words = {}         # key -> word count
        self.total_words = 0
        self.spilled = set()    # spilled vector names
        self.staging_offsets = []   # per-slot word offsets
        self.slot_words = 0
        #: Per stage (over ``pipeline.all_stages()`` order):
        #: {"in": [(vector, slot)], "out": [(vector, slot)]}.
        self.stage_spills = []
        self.scalar_index = {}  # scalar name -> word index in the table

    def __repr__(self):
        return (f"BufferPlan(total={self.total_words}w, "
                f"buffers={len(self.offsets)}, "
                f"spilled={sorted(self.spilled)})")


def temp_liveness(pipeline):
    """{temp name: (first write stage, last use stage)} per iteration."""
    live = {}
    for idx, stage in enumerate(pipeline.stages):
        for name in stage.vector_writes():
            if pipeline.vectors[name].temp and name not in live:
                live[name] = [idx, idx]
        for name in stage.vector_reads() + stage.vector_writes():
            if pipeline.vectors[name].temp:
                if name not in live:
                    raise ConfigError(
                        f"temp buffer {name!r} read before any write "
                        f"(stage {stage.name!r})")
                live[name][1] = idx
    return {name: tuple(span) for name, span in live.items()}


def _vector_words(buf, local_rows):
    return max(buf.length if buf.replicated else local_rows, 1)


def _stage_accesses(pipeline):
    """{vector name: number of stages touching it} (spill priority)."""
    counts = {name: 0 for name in pipeline.vectors}
    for stage in pipeline.all_stages():
        for name in set(stage.vector_reads() + stage.vector_writes()):
            counts[name] += 1
    return counts


def _place_vectors(plan, pipeline, sizes, resident, liveness, cursor):
    """Assign offsets for resident vectors; temps reuse expired blocks.

    Returns the new allocation cursor.
    """
    for name in pipeline.vectors:
        if name in resident and name not in liveness:
            plan.offsets[name] = cursor
            plan.words[name] = sizes[name]
            cursor += sizes[name]
    free = []    # (offset, words) blocks released by expired temps
    active = []  # (last_use_stage, offset, words)
    for name, span in sorted(liveness.items(), key=lambda kv: kv[1]):
        if name not in resident:
            continue
        still = []
        for last_use, offset, words in active:
            if last_use >= span[0]:
                still.append((last_use, offset, words))
            else:
                free.append((offset, words))
        active = still
        block = next((b for b in sorted(free) if b[1] >= sizes[name]), None)
        if block is not None:
            free.remove(block)
            plan.offsets[name] = block[0]
            if block[1] > sizes[name]:
                free.append((block[0] + sizes[name],
                             block[1] - sizes[name]))
        else:
            plan.offsets[name] = cursor
            cursor += sizes[name]
        plan.words[name] = sizes[name]
        active.append((span[1], plan.offsets[name], sizes[name]))
    return cursor


def _max_concurrent_spills(pipeline, spilled):
    worst = 0
    for stage in pipeline.all_stages():
        touched = {n for n in stage.vector_reads() + stage.vector_writes()
                   if n in spilled}
        worst = max(worst, len(touched))
    return worst


def plan_buffers(pipeline, shard_matrices, local_rows, tcdm_words,
                 reserve=RESERVE_WORDS):
    """Plan one cluster's TCDM layout; returns a :class:`BufferPlan`.

    ``shard_matrices`` maps matrix operand names to this cluster's
    shard (the full matrix on a single cluster); ``local_rows`` is the
    cluster's owned row count (partitioned buffer length).
    """
    budget = tcdm_words - reserve
    liveness = temp_liveness(pipeline)
    accesses = _stage_accesses(pipeline)
    sizes = {name: _vector_words(buf, local_rows)
             for name, buf in pipeline.vectors.items()}
    spill_order = sorted(pipeline.vectors,
                         key=lambda n: (accesses[n], -sizes[n], n))
    spilled = set()

    while True:
        plan = BufferPlan()
        plan.spilled = set(spilled)
        cursor = 0
        # 1. Non-spillable residents: matrix arrays + scalar table.
        for mname, matrix in shard_matrices.items():
            for part, words in zip(
                    ("vals", "idcs", "ptr"),
                    matrix_words(matrix, pipeline.index_bits)):
                plan.offsets[f"{mname}.{part}"] = cursor
                plan.words[f"{mname}.{part}"] = words
                cursor += words
        plan.scalar_index = {name: i
                             for i, name in enumerate(pipeline.scalars)}
        plan.offsets["scalars"] = cursor
        plan.words["scalars"] = max(len(pipeline.scalars), 1)
        cursor += plan.words["scalars"]
        if cursor > budget:
            raise ConfigError(
                f"matrix operands + scalar table need {cursor} words but "
                f"the TCDM budget is {budget}; the matrix cannot spill — "
                "shard it across more clusters instead")

        # 2. Resident vectors (temps share expired blocks).
        resident = set(pipeline.vectors) - spilled
        cursor = _place_vectors(plan, pipeline, sizes, resident, liveness,
                                cursor)

        # 3. Staging slots for the spilled buffers.
        plan.slot_words = max((sizes[n] for n in spilled), default=0)
        for slot in range(_max_concurrent_spills(pipeline, spilled)):
            plan.offsets[f"spill-slot{slot}"] = cursor
            plan.words[f"spill-slot{slot}"] = plan.slot_words
            plan.staging_offsets.append(cursor)
            cursor += plan.slot_words

        plan.total_words = cursor
        if cursor <= budget:
            break
        victim = next((n for n in spill_order if n not in spilled), None)
        if victim is None:
            raise ConfigError(
                f"pipeline {pipeline.name!r} cannot fit the TCDM even "
                f"with every vector spilled (budget {budget} words)")
        spilled.add(victim)

    # 4. Per-stage spill transfers: stage-in every spilled operand the
    # stage reads (or partially writes), stage-out every one it writes.
    for stage in pipeline.all_stages():
        touched = []
        for name in stage.vector_reads() + stage.vector_writes():
            if name in spilled and name not in touched:
                touched.append(name)
        slots = {name: i for i, name in enumerate(touched)}
        reads = set(stage.vector_reads())
        plan.stage_spills.append({
            "in": [(n, slots[n]) for n in touched if n in reads],
            "out": [(n, slots[n]) for n in touched
                    if n in stage.vector_writes()],
        })
    return plan
