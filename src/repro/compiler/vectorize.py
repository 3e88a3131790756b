"""Vectorized bit-exact replay primitives for the lowered closures.

These are the NumPy bodies the template matcher fuses into compiled
kernels executed by :class:`~repro.backends.compiled.CompiledBackend`.
Results are **bit-identical** to the cycle engine: the simulator's FPU
evaluates ``fmadd.d`` as the Python expression ``a * b + c`` (two
roundings), so replaying each kernel's exact accumulation order with
IEEE-754 double operations reproduces its output to the last bit. The
orders differ per variant (§III-B, Listing 1):

- BASE/SSR accumulate each row left to right from ``0.0``;
- ISSR short rows start from the first product (``fmul``) and chain;
- ISSR long rows initialize ``n_acc`` accumulators with the first
  ``n_acc`` products, stagger the remaining products round-robin
  (product ``n_acc + i`` lands on accumulator ``i % n_acc``), then
  combine with the same balanced fadd tree the kernel emits.

Ragged rows replay in one length-sorted ("jagged-diagonal") pass,
one vector update per row position while many rows are live. The
rows still live then finish with one ``np.add.accumulate`` per group
of rows with as many products left (:func:`finish_rows`), of which a
whole SpVV fiber is the one-row case. A trailing column axis on the
products (CsrMM's k columns) rides the same pass. Rows holding a NaN
product are replayed in Python floats, which pins the NaN payload
(:func:`settle_nan_rows`).
"""

import numpy as np

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


def chain_rows(products, starts, length, from_zero):
    """Left-to-right accumulation of same-length rows (vectorized).

    ``starts`` indexes each row's first product. ``from_zero`` matches
    the BASE/SSR kernels (accumulator cleared, first op is a MAC);
    otherwise the first product initializes the accumulator (``fmul``).
    """
    cols = starts[:, None] + np.arange(length)
    p = products[cols]
    acc = p[:, 0] + 0.0 if from_zero else p[:, 0].copy()
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


def fold_lanes(products, lanes):
    """Chain a fiber's ``products`` onto ``lanes`` (n_acc, 1) in place.

    The one-row case of :func:`finish_rows`: product ``i`` lands on
    lane ``i % n_acc``. Returns ``lanes``.
    """
    if len(products):
        finish_rows(products, np.zeros(1, dtype=np.int64),
                    np.array([len(products)]), lanes, 0)
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
    accs = _chain_lanes(row[n_acc:], row[:n_acc], n_acc)
    stride = 1  # the kernel's balanced fadd tree
    while stride < n_acc:
        for i in range(0, n_acc - stride, 2 * stride):
            accs[i] = fadd(accs[i], accs[i + stride])
        stride *= 2
    return accs[0]


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


def masked_products(a_idcs, a_vals, b_idcs, b_vals):
    """Products of matched value pairs, in merge (index) order.

    The vectorized form of the lane's functional contract
    (:func:`repro.core.intersect.intersect_indices`): fiber indices
    are sorted and unique, so ``np.intersect1d`` yields exactly the
    merge's matched positions, in order.
    """
    _, pa, pb = np.intersect1d(np.asarray(a_idcs, dtype=np.int64),
                               np.asarray(b_idcs, dtype=np.int64),
                               assume_unique=True, return_indices=True)
    return np.asarray(a_vals, dtype=np.float64)[pa] \
        * np.asarray(b_vals, dtype=np.float64)[pb]


def chain_from_zero(products):
    """Left-to-right accumulation from +0.0 — the masked kernels' order
    (identical across BASE/SSR/ISSR, see :mod:`repro.kernels.masked`)."""
    acc = 0.0
    for p in products:
        acc = p + acc
    return float(acc)


def spgemm_numeric(a, b, ptr, idcs):
    """Gustavson's numeric phase in the kernel's k-major order.

    ``(ptr, idcs)`` is the symbolic pattern of ``C = A @ B``. Returns
    ``(vals, counters)`` where ``counters`` carries the loop-trip
    counts the analytic model charges: rows with a nonempty pattern,
    skipped rows, A elements walked, nonempty B rows, and flops.
    """
    vals = np.zeros(int(ptr[-1]), dtype=np.float64)
    acc = np.zeros(b.ncols, dtype=np.float64)
    n_pattern = n_skip = n_a = n_k = flops = 0
    for r in range(a.nrows):
        plo, phi = int(ptr[r]), int(ptr[r + 1])
        if phi == plo:
            n_skip += 1
            continue
        n_pattern += 1
        pat = idcs[plo:phi]
        acc[pat] = 0.0
        for e in range(int(a.ptr[r]), int(a.ptr[r + 1])):
            n_a += 1
            k = int(a.idcs[e])
            blo, bhi = int(b.ptr[k]), int(b.ptr[k + 1])
            if bhi == blo:
                continue
            n_k += 1
            flops += bhi - blo
            cols = b.idcs[blo:bhi]
            # column indices are unique within a B row, so the fancy
            # update reproduces the kernel's sequential fmadd order
            # (two roundings: multiply, then add)
            acc[cols] = a.vals[e] * b.vals[blo:bhi] + acc[cols]
        vals[plo:phi] = acc[pat]
    counters = {"n_pattern": n_pattern, "n_skip": n_skip, "n_a": n_a,
                "n_k": n_k, "flops": flops}
    return vals, counters


def spvv_value(products, variant, index_bits):
    """Whole-fiber reduction in the SpVV kernel's order.

    Every variant clears its accumulators, ISSR's ``n_acc`` of them,
    lands product ``i`` on accumulator ``i % n_acc`` and ends with the
    fadd tree: :func:`fold_lanes` onto zeroed lanes.
    """
    n_acc = N_ACCUMULATORS[index_bits] if variant == ISSR else 1
    lanes = fold_lanes(products, np.zeros((n_acc, 1), dtype=np.float64))
    return float(tree_reduce(lanes.T)[0])
