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

ISSR rows replay by one of two primitives. :func:`lane_rows` sums
every (row, lane) pair in one ``np.bincount`` and then runs the tree;
it pays per nonzero, whatever the row lengths. The length-sorted
("jagged-diagonal") stepper :func:`accumulate_rows` makes one vector
update per row position while many rows are live, then finishes the
rows still live with one ``np.add.accumulate`` per group of rows with
as many products left (:func:`finish_rows`); it pays per position, so
it wins where many rows share each position. A trailing column axis on
the products (CsrMM's k columns) rides either. ISSR rows holding a NaN
product are replayed in Python floats, which pins the NaN payload
(:func:`settle_nan_rows`).
"""

import numpy as np

from repro.core.intersect import merge_rows
from repro.formats.builder import pattern_of_keys, spgemm_pairs
from repro.kernels.common import ISSR, N_ACCUMULATORS
from repro.snitch.fpu import fadd


def tree_reduce(acc):
    """The kernel's balanced fadd tree over accumulator columns.

    ``acc`` has shape (rows, n_acc) or (rows, n_acc, k), a trailing
    axis holding independent columns, with ``n_acc`` a power of two.
    Each level adds accumulator ``2i + 1`` onto ``2i``, the pairing of
    ``emit_tree_reduction``, in one vector add. Returns (rows,) or
    (rows, k).
    """
    while acc.shape[1] > 1:
        acc = acc[:, 0::2] + acc[:, 1::2]
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


def lane_rows(products, ptr, index_bits):
    """ISSR rows by one ``np.bincount`` over (row, lane) ids, then the tree.

    Product ``j`` of row ``r`` lands on lane ``r * n_acc + ((j - ptr[r])
    & (n_acc - 1))``, so each lane is a cleared sum of its products in
    stream order, and a row of at least ``n_acc`` products ends as the
    kernel's fadd tree over its lanes. A shorter row chains from its
    first product (``fmul``), so all of its products go on lane 0, and
    with no row that long every row is one lane. ``products`` is
    (nnz,) or (nnz, k), one bincount per column; the result is
    (nrows,) or (nrows, k).

    A cleared lane computes ``0.0 + p0 + p1 ...`` where the kernel
    computes ``p0 + p1 ...``: the two differ only for a lane whose
    products are all -0.0 (+0.0 here, -0.0 there). A sign of zero
    changes a sum only when the other operand is a zero too, so only a
    row that ends at ±0 can differ. Those rows are combined again with
    every all-(-0.0) lane, and every empty lane, set to -0.0, the
    additive identity. Rows holding a NaN product go through
    :func:`settle_nan_rows`.
    """
    n_acc = N_ACCUMULATORS[index_bits]
    ptr = np.asarray(ptr, dtype=np.int64)
    lengths = ptr[1:] - ptr[:-1]
    nrows, nnz = len(lengths), len(products)
    width = n_acc if lengths.max(initial=0) >= n_acc else 1
    n_lanes = nrows * width
    ids = np.arange(0, n_lanes, width).repeat(lengths)
    if width > 1:
        lane = np.arange(nnz) - ptr[:-1].repeat(lengths)
        short = lengths < n_acc
        lane &= (np.where(short, 0, n_acc - 1).repeat(lengths)
                 if short.any() else n_acc - 1)
        ids += lane
    trail = (1,) * (products.ndim - 1)  # a row mask's unit column axis

    def lane_sums(weights):
        """(nrows, width[, k]) bincounts of ``weights``, one per column."""
        if weights.ndim == 1:
            return np.bincount(ids, weights, n_lanes).reshape(nrows, width)
        sums = np.empty((nrows, width) + weights.shape[1:])
        flat = sums.reshape(n_lanes, weights.shape[1])
        for c, column in enumerate(weights.T):
            flat[:, c] = np.bincount(ids, column, n_lanes)
        return sums

    out = tree_reduce(lane_sums(products))
    if not out.all():  # some row ends at ±0
        zero = (out == 0) & (lengths > 0).reshape((nrows,) + trail)
        if zero.any():
            negative = (products == 0) & np.signbit(products)
            if negative.any():
                lanes = lane_sums(products)
                count = np.bincount(ids, minlength=n_lanes)
                count = count.reshape((nrows, width) + trail)
                lanes[lane_sums(negative) == count] = -0.0
                out[zero] = tree_reduce(lanes)[zero]
    return settle_nan_rows(out, products, ptr, ISSR, index_bits)


def accumulate_rows(products, ptr, variant, index_bits):
    """Per-row reduction of ``products`` in the kernel's exact order.

    The compiled backend replays ISSR rows here where many rows share
    each position, and CsrMM's k > 1 columns always
    (:meth:`~repro.compiler.templates.CompiledKernel.reduce_rows`);
    BASE/SSR rows, one cleared accumulator each, go to
    :func:`cleared_rows`, which computes the same order.
    ``products`` is (nnz,) or (nnz, k): a trailing axis replays k
    independent columns in the same pass, and the result is (nrows,)
    or (nrows, k). Rows are sorted longest first (rows already in that
    order skip the sort), so the rows still accumulating at position
    ``j`` are a prefix ``c`` of that order and each position is one
    in-place ``np.add(p, acc[:c])``: the element work equals nnz
    however skewed the row lengths are.
    The stepper runs while many rows are live; once the chains
    :func:`finish_rows` would accumulate are no more than the positions
    left, that finishes every live row. Extra memory stays O(nrows +
    finished nnz).
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    lengths = ptr[1:] - ptr[:-1]
    nrows, cols = len(lengths), products.shape[1:]
    n_live = int(np.count_nonzero(lengths))
    if n_live == 0:
        return np.zeros((nrows,) + cols)
    if (lengths[1:] <= lengths[:-1]).all():  # already longest first
        order = None
        sorted_len, starts = lengths[:n_live], ptr[:n_live]
    else:
        order = np.argsort(-lengths)[:n_live]
        sorted_len, starts = lengths[order], ptr[order]
    max_len = int(sorted_len[0])
    # live[j]: rows holding more than j products (a prefix of the order)
    live = n_live - np.bincount(sorted_len).cumsum()[:max_len]
    counts = live.tolist()
    n_acc = N_ACCUMULATORS[index_bits] if variant == ISSR else 1
    n_long = counts[n_acc - 1] if n_acc <= max_len else 0
    acc = np.empty((n_acc, n_live) + cols, dtype=np.float64)
    step = np.empty((n_live,) + cols, dtype=np.float64)

    def gather(j, out=None):
        """Products at position ``j`` of the live prefix (CSR order)."""
        c = counts[j]
        # every index is in range; mode="raise" would buffer ``out``
        return products[j:].take(starts[:c], axis=0,
                                 out=step[:c] if out is None else out,
                                 mode="clip")

    first = 0
    if variant != ISSR:
        acc[0] = 0.0
    elif n_long == n_live:  # unrolled init: accumulator j takes product j
        for j in range(n_acc):
            gather(j, acc[j])
        first = n_acc
    else:
        # long rows load accumulator j with product j; short rows
        # (fewer than n_acc products) chain from product 0
        gather(0, acc[0])
        for j in range(1, min(n_acc, max_len)):
            p = gather(j)
            if n_long:
                acc[j, :n_long] = p[:n_long]
            chain = acc[0, n_long:len(p)]
            np.add(p[n_long:], chain, out=chain)
        first = n_acc
    switch = first
    if first < max_len:
        # The stepper pays NumPy's per-call overhead at every position;
        # the finisher's accumulate pays an inner-loop call per chain,
        # n_acc per live row and column. Switch at the first position
        # (past the init) where the chains are no more than the
        # positions left.
        per_row = n_acc * (products.size // len(products))
        chains = np.append(live[first:], 0) * per_row
        switch += int(np.argmax(chains <= np.arange(len(chains))[::-1]))
    for j in range(first, switch):
        a = acc[j % n_acc, :counts[j]]
        np.add(gather(j), a, out=a)
    if switch < max_len:
        c = counts[switch]
        finish_rows(products, starts[:c], sorted_len[:c], acc[:, :c], switch)
    if n_acc > 1 and n_long:
        acc[0, :n_long] = tree_reduce(acc[:, :n_long].swapaxes(0, 1))
    if order is None and n_live == nrows:
        out = acc[0]
    else:
        out = np.zeros((nrows,) + cols)
        out[slice(n_live) if order is None else order] = acc[0]
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
    # a NaN product leaves its row NaN, so rows that end finite hold none
    if not np.isnan(out).any():
        return out
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
