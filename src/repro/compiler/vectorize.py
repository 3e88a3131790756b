"""Vectorized bit-exact replay primitives for the lowered closures.

These are the NumPy bodies the template matcher fuses into compiled
kernels executed by :class:`~repro.backends.compiled.CompiledBackend`.
Results are **bit-identical** to the cycle engine: the simulator's FPU
evaluates ``fmadd.d`` as the Python expression ``a * b + c`` (two
roundings), so replaying each kernel's exact accumulation order with
IEEE-754 double operations reproduces its output to the last bit. The
orders differ per kernel (§III-B, Listing 1):

- BASE/SSR rows, every SpVV lane, the masked merges and SpGEMM's
  output slots clear their accumulators, then add each product in
  stream order: one ``np.bincount`` over accumulator ids
  (:func:`cleared_sums`);
- ISSR short rows start from the first product (``fmul``) and chain;
- ISSR long rows initialize ``n_acc`` accumulators with the first
  ``n_acc`` products, stagger the remaining products round-robin
  (product ``n_acc + i`` lands on accumulator ``i % n_acc``), then
  combine with the same balanced fadd tree the kernel emits.

Ragged ISSR rows replay in one length-sorted ("jagged-diagonal") pass,
one vector update per row position while many rows are live. The
rows still live then finish with one ``np.add.accumulate`` per group
of rows with as many products left (:func:`finish_rows`). A trailing
column axis on the products (CsrMM's k columns) rides the same pass.
ISSR rows holding a NaN product are replayed in Python floats, which
pins the NaN payload (:func:`settle_nan_rows`).
"""

import numpy as np

from repro.core.intersect import merge_rows
from repro.formats.builder import pattern_of_keys, spgemm_pairs
from repro.kernels.common import ISSR, N_ACCUMULATORS
from repro.snitch.fpu import fadd


def tree_reduce(acc):
    """The kernel's balanced fadd tree over accumulator columns.

    ``acc`` has shape (rows, n_acc) or (rows, n_acc, k), a trailing
    axis holding independent columns; reduces into column 0 with the
    exact pairing of ``emit_tree_reduction``.
    """
    count = acc.shape[1]
    stride = 1
    while stride < count:
        for i in range(0, count, 2 * stride):
            j = i + stride
            if j < count:
                acc[:, i] = acc[:, i] + acc[:, j]
        stride *= 2
    return acc[:, 0]


def pin_nan_products(products, left, right):
    """Pin every product of two NaN factors to the left one, quieted.

    ``products`` is ``left * right`` (broadcast; ``right`` may carry a
    trailing column axis) and is updated in place. The FPU's rule
    (:func:`repro.snitch.fpu.fmul`) keeps the left factor's payload;
    NumPy keeps the first factor's in its vector lanes and the
    second's in its scalar remainder. Every kernel multiplies its
    sparse value (or SpGEMM's ``a``) on the left. Callers run this
    only when a result is NaN, the one case a NaN product can reach.
    Returns True when some product has two NaN factors.
    """
    both = np.isnan(left) & np.isnan(right)
    if not both.any():
        return False
    products[both] = np.broadcast_to(left + left, both.shape)[both]
    return True


def cleared_sums(ids, weights, n):
    """``n`` cleared accumulators, each adding its weights in order.

    Accumulator ``ids[i]`` takes ``weights[i]`` as ``p + acc``, in
    array order, from +0.0: the order of every kernel that clears its
    accumulators and then MACs into them (BASE/SSR rows, SpVV lanes,
    the masked merges, SpGEMM's output slots). ``np.bincount`` adds
    each weight into its bin in exactly that order, in one C loop.

    It computes ``acc + p``, so a bin meeting two NaNs may keep the
    accumulator's payload, where the FPU's rule
    (:func:`repro.snitch.fpu.fadd`) lets the product's win. Under that
    rule a NaN product replaces whatever the accumulator held, and only
    a later NaN product replaces it again, so a bin that met a NaN
    weight ends as its last one, quieted. A NaN weight always leaves
    its bin NaN, so bins that end without a NaN skip the search.
    """
    out = np.bincount(ids, weights=weights, minlength=n)
    if np.isnan(out).any():
        nan = np.flatnonzero(np.isnan(weights))[::-1]
        # np.unique keeps each bin's first index: its last NaN weight
        _, first = np.unique(ids[nan], return_index=True)
        last = nan[first]
        out[ids[last]] = weights[last] + weights[last]
    return out


def cleared_rows(products, ptr, nrows):
    """Every CSR row summed from a cleared accumulator (BASE/SSR).

    ``products`` is (nnz,) or (nnz, k); each of the k columns is one
    :func:`cleared_sums`. CsrMM passes the transpose of a (k, nnz)
    array, so each column it sums is contiguous. Returns (nrows,) or
    (nrows, k).
    """
    rows = np.repeat(np.arange(nrows), np.diff(ptr))
    if products.ndim == 1:
        return cleared_sums(rows, products, nrows)
    out = np.empty((products.shape[1], nrows), dtype=np.float64)
    for c, column in enumerate(products.T):
        out[c] = cleared_sums(rows, column, nrows)
    return out.T


def lane_tree(lanes):
    """The kernel's balanced fadd tree over one row's ``lanes``.

    Python floats with the FPU's NaN rule: a sum of two NaNs keeps the
    left operand's payload. Returns a float.
    """
    accs = [float(a) for a in lanes]
    stride = 1
    while stride < len(accs):
        for i in range(0, len(accs) - stride, 2 * stride):
            accs[i] = fadd(accs[i], accs[i + stride])
        stride *= 2
    return accs[0]


def chain_rows(products, starts, length):
    """ISSR short rows of one length: ``fmul``, then a chain (vectorized).

    ``starts`` indexes each row's first product, which initializes the
    row's accumulator.
    """
    cols = starts[:, None] + np.arange(length)
    p = products[cols]
    acc = p[:, 0].copy()
    for j in range(1, length):
        acc = p[:, j] + acc
    return acc


def staggered_rows(products, starts, length, n_acc):
    """The ISSR long-row order: unrolled init, staggered FREP, tree."""
    cols = starts[:, None] + np.arange(length)
    p = products[cols]
    acc = p[:, :n_acc].copy()
    for i in range(length - n_acc):
        k = i % n_acc
        acc[:, k] = p[:, n_acc + i] + acc[:, k]
    return tree_reduce(acc)


def accumulate_rows(products, ptr, variant, index_bits):
    """Per-row reduction of ``products`` in the kernel's exact order.

    The compiled backend replays ISSR rows here and sends BASE/SSR
    rows, one cleared accumulator each, to :func:`cleared_rows`,
    which computes the same order.
    ``products`` is (nnz,) or (nnz, k): a trailing axis replays k
    independent columns in the same pass, and the result is (nrows,)
    or (nrows, k). Rows are sorted longest first, so the rows still
    accumulating at position ``j`` are a prefix ``c`` of that order
    and each position is one in-place ``np.add(p, acc[:c])``: the
    element work equals nnz however skewed the row lengths are.
    The stepper runs while many rows are live; once the chains
    :func:`finish_rows` would accumulate are no more than the positions
    left, that finishes every live row. Extra memory stays O(nrows +
    finished nnz).
    """
    lengths = np.diff(np.asarray(ptr, dtype=np.int64))
    out = np.zeros((len(lengths),) + products.shape[1:], dtype=np.float64)
    n_live = int(np.count_nonzero(lengths))
    if n_live == 0:
        return out
    order = np.argsort(-lengths)[:n_live]
    sorted_len = lengths[order]
    starts = np.asarray(ptr[:-1], dtype=np.int64)[order]
    max_len = int(sorted_len[0])
    # live[j]: rows holding more than j products (a prefix of the order)
    live = n_live - np.cumsum(np.bincount(sorted_len))[:max_len]
    counts = live.tolist()
    n_acc = N_ACCUMULATORS[index_bits] if variant == ISSR else 1
    n_long = int(np.count_nonzero(sorted_len >= n_acc))
    acc = np.zeros((n_acc, n_live) + products.shape[1:], dtype=np.float64)
    step = np.empty((n_live,) + products.shape[1:], dtype=np.float64)

    def gather(j):
        """Products at position ``j`` of the live prefix (CSR order)."""
        c = counts[j]
        # every index is in range; mode="raise" would buffer ``out``
        return np.take(products[j:], starts[:c], axis=0, out=step[:c],
                       mode="clip")

    first = 0
    if variant == ISSR:
        # Unrolled init: long rows load accumulator j with product j;
        # short rows (fewer than n_acc products) chain from product 0.
        for j in range(min(n_acc, max_len)):
            p = gather(j)
            if j == 0:
                acc[0, :len(p)] = p
                continue
            acc[j, :n_long] = p[:n_long]
            chain = acc[0, n_long:len(p)]
            np.add(p[n_long:], chain, out=chain)
        first = n_acc
    # The stepper pays NumPy's per-call overhead at every position; the
    # finisher's accumulate pays an inner-loop call per chain, n_acc per
    # live row and column. Switch at the first position (past the init)
    # where the chains are no more than the positions left.
    per_row = n_acc * (products.size // len(products))
    chains = np.append(live[first:], 0) * per_row
    switch = first + int(np.argmax(chains <= np.arange(len(chains))[::-1]))
    for j in range(first, switch):
        a = acc[j % n_acc, :counts[j]]
        np.add(gather(j), a, out=a)
    if switch < max_len:
        c = counts[switch]
        finish_rows(products, starts[:c], sorted_len[:c], acc[:, :c], switch)
    if n_acc > 1:
        tree_reduce(np.moveaxis(acc[:, :n_long], 0, 1))
    out[order] = acc[0]
    return settle_nan_rows(out, products, ptr, variant, index_bits)


def finish_rows(products, starts, lengths, lanes, position):
    """Chain each row's products from ``position`` on onto its lanes.

    Row ``i`` holds ``lengths[i]`` products from ``products[starts[i]]``
    on; ``lengths`` is nonincreasing and above ``position``. ``lanes``
    is (n_acc, rows) or (n_acc, rows, k) and is updated in place:
    product ``j`` of a row lands on lane ``j % n_acc`` as ``a + p``.
    Each row is laid out as ``depth`` chunks of ``n_acc`` slots: chunk
    0 holds its lanes at the row's current lane offset, each further
    chunk the next ``n_acc`` products, and -0.0, which leaves every sum
    unchanged, pads a short last chunk. Rows of equal depth form one
    ``(rows, depth, n_acc[, k])`` block, so one ``np.add.accumulate``
    over the chunk axis, whose order NumPy defines, chains the whole
    group.
    """
    n_acc = lanes.shape[0]
    cols = products.shape[1:]
    depth = (lengths - (position + 1)) // n_acc + 2
    tops = np.cumsum(depth)
    heads = tops - depth
    # slot u of a row gathers its product at position + u - n_acc;
    # chunk 0 and the pads gather anything in range, then are set
    index = np.repeat(starts + position - n_acc * (heads + 1), n_acc * depth)
    index += np.arange(n_acc * int(tops[-1]))
    slots = np.take(products, index, axis=0, mode="clip")
    if n_acc > 1:
        pads = n_acc * (depth - 1) - (lengths - position)
        last = np.cumsum(pads)
        slots[np.repeat(n_acc * tops - last, pads)
              + np.arange(int(last[-1]))] = -0.0
    rows = slots.reshape((int(tops[-1]), n_acc) + cols)
    # lane t of a row's chunks holds accumulator (position + t) % n_acc
    roll = (np.arange(n_acc) + position) % n_acc
    rows[heads] = np.swapaxes(lanes[roll], 0, 1)
    cut = (np.flatnonzero(depth[1:] != depth[:-1]) + 1).tolist()
    depths, ends = depth.tolist(), tops.tolist()
    for lo, hi in zip([0] + cut, cut + [len(depths)]):
        block = rows[ends[lo] - depths[lo]:ends[hi - 1]]
        block = block.reshape((hi - lo, depths[lo], n_acc) + cols)
        np.add.accumulate(block, axis=1, out=block)
    lanes[roll] = np.swapaxes(rows[tops - 1], 0, 1)
    return lanes


def _chain_lanes(rest, accs, j):
    """Chain a row's products at positions ``j`` and up onto ``accs``.

    ``rest`` and ``accs`` are lists of Python floats. Product ``i`` of
    the row lands on accumulator ``i % len(accs)``, so each accumulator
    chains a strided slice of ``rest`` as ``p + a``. Under the NaN rule
    a NaN product replaces the accumulator whatever NaN it held, and
    only a later NaN product changes it again, so an accumulator that
    ends NaN ends as its last NaN product, if it met one.
    """
    n = len(accs)
    for q in range(n):
        lane = rest[(q - j) % n::n]
        a = accs[q]
        for p in lane:
            a = p + a
        if a != a:
            a = next((p + p for p in reversed(lane) if p != p), a)
        accs[q] = a
    return accs


def _replay_row(row, n_acc):
    """One row's reduction in Python floats (``n_acc`` 0: BASE/SSR)."""
    if not row:
        return 0.0
    if n_acc == 0:  # cleared accumulator, then MACs
        return _chain_lanes(row, [0.0], 0)[0]
    if len(row) < n_acc:  # short row: fmul, then a chain
        return _chain_lanes(row[1:], [row[0]], 1)[0]
    return lane_tree(_chain_lanes(row[n_acc:], row[:n_acc], n_acc))


def settle_nan_rows(out, products, ptr, variant, index_bits):
    """Re-derive every row that holds a NaN product; returns ``out``.

    IEEE-754 leaves open which payload ``NaN + NaN`` keeps. The replay
    pins the FPU's rule (:func:`repro.snitch.fpu.fadd`): the left
    operand's (the product's) payload wins.
    NumPy promises no rule: on x86 its vector lanes keep the first
    operand's and its scalar remainder loops the second's, so a
    vectorized row's payload would depend on where the row fell in the
    array. Only a row with a NaN product can meet two different NaNs
    (``inf - inf`` always yields the same one), so those rows, and only
    those, are replayed in Python floats with the rule applied.
    """
    nan = np.isnan(products)
    if not nan.any():
        return out
    target = out
    if products.ndim == 1:  # a unit column axis, as views
        products, nan, target = products[:, None], nan[:, None], out[:, None]
    n_acc = N_ACCUMULATORS[index_bits] if variant == ISSR else 0
    where, cols = np.nonzero(nan)
    rows = np.searchsorted(ptr, where, side="right") - 1
    for r, col in set(zip(rows.tolist(), cols.tolist())):
        target[r, col] = _replay_row(
            products[ptr[r]:ptr[r + 1], col].tolist(), n_acc)
    return out


def masked_rows(ptr, a_idcs, a_vals, b_idcs, b_vals):
    """Masked CsrMV's rows in merge order; ``(y, profile)``.

    Row ``r`` (``a_idcs[ptr[r]:ptr[r + 1]]``) merges with the fiber
    ``(b_idcs, b_vals)``, clears its accumulator and adds each matched
    pair's product in merge (index) order: one
    :func:`~repro.core.intersect.merge_rows` over every row, then
    :func:`cleared_sums`. The masked kernels share that order across
    BASE/SSR/ISSR (see :mod:`repro.kernels.masked`); masked SpVV is
    the one-row case. ``profile`` holds each row's merge work.
    """
    nrows = len(ptr) - 1
    rows, pos_a, pos_b, profile = merge_rows(ptr, a_idcs, b_idcs)
    left = np.asarray(a_vals, dtype=np.float64)[pos_a]
    right = np.asarray(b_vals, dtype=np.float64)[pos_b]
    products = left * right
    y = cleared_sums(rows, products, nrows)
    if np.isnan(y).any() and pin_nan_products(products, left, right):
        y = cleared_sums(rows, products, nrows)
    return y, profile


def spgemm_numeric(a, b, pattern=None):
    """Both Gustavson phases of ``C = A @ B`` from one pair expansion.

    :func:`~repro.formats.builder.spgemm_pairs` lists every multiply
    in the kernel's k-major order; each output slot, cleared, adds its
    products in that order (:func:`cleared_sums`). ``pattern`` is a
    precomputed ``(ptr, idcs)`` symbolic phase, else the pairs' own.
    Returns ``(ptr, idcs, vals, counters)`` where ``counters`` carries
    the loop-trip counts the analytic model charges: rows with a
    nonempty pattern, skipped rows, A elements walked, nonempty B rows,
    and flops.
    """
    a_pos, b_pos, keys = spgemm_pairs(a, b)
    ptr, idcs = pattern if pattern is not None else \
        pattern_of_keys(keys, a.nrows, b.ncols)
    ptr = np.asarray(ptr, dtype=np.int64)
    idcs = np.asarray(idcs, dtype=np.int64)
    lengths = np.diff(ptr)
    slot_keys = np.repeat(np.arange(a.nrows), lengths) * b.ncols + idcs
    slots = np.searchsorted(slot_keys, keys)
    left, right = a.vals[a_pos], b.vals[b_pos]
    products = left * right
    vals = cleared_sums(slots, products, len(idcs))
    if np.isnan(vals).any() and pin_nan_products(products, left, right):
        vals = cleared_sums(slots, products, len(idcs))
    # the kernel walks A's elements only in rows with a nonempty pattern
    walked = np.repeat(lengths > 0, a.row_lengths())
    b_lengths = b.row_lengths()[a.idcs][walked]
    n_pattern = int(np.count_nonzero(lengths))
    counters = {"n_pattern": n_pattern, "n_skip": a.nrows - n_pattern,
                "n_a": len(b_lengths),
                "n_k": int(np.count_nonzero(b_lengths)),
                "flops": int(b_lengths.sum())}
    return ptr, idcs, vals, counters


def spvv_value(products, variant, index_bits):
    """Whole-fiber reduction in the SpVV kernel's order.

    Every variant clears its accumulators, ISSR's ``n_acc`` of them,
    lands product ``i`` on accumulator ``i % n_acc`` and ends with the
    fadd tree: :func:`cleared_sums` over lane ids, then
    :func:`lane_tree`.
    """
    n_acc = N_ACCUMULATORS[index_bits] if variant == ISSR else 1
    lanes = cleared_sums(np.arange(len(products)) & (n_acc - 1), products,
                         n_acc)
    return lane_tree(lanes)
