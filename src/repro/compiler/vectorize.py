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

Rows are processed grouped by nonzero count, so the work is a small
number of NumPy passes regardless of the matrix size.
"""

import numpy as np

from repro.kernels.common import BASE, ISSR, N_ACCUMULATORS, SSR


def tree_reduce(acc):
    """The kernel's balanced fadd tree over accumulator columns.

    ``acc`` has shape (rows, n_acc); reduces into column 0 with the
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


def _chain_rows_ragged(padded, lengths, from_zero):
    """Masked left-to-right chains over one padded row block.

    ``padded`` holds each row's products left-justified; positions at
    or past the row's length are junk and are frozen out with
    ``np.where``, so every row sees exactly its own accumulation
    chain — the same per-row op order as :func:`chain_rows`, without
    one Python-level pass per distinct row length.
    """
    acc = padded[:, 0] + 0.0 if from_zero else padded[:, 0].copy()
    # Positions below the shortest row need no mask: every row is
    # still accumulating there, so the where (and its bool temp) is
    # pure overhead for the dense prefix.
    min_len = int(lengths.min())
    for j in range(1, min_len):
        acc = padded[:, j] + acc
    for j in range(max(min_len, 1), padded.shape[1]):
        acc = np.where(j < lengths, padded[:, j] + acc, acc)
    return acc


def _staggered_rows_ragged(padded, lengths, n_acc):
    """Masked ISSR long-row order over one padded row block.

    Every row in the block has ``length >= n_acc``; shorter and longer
    rows share the block, with each row's staggered FREP cut off at
    its own length (junk updates are masked away before they land).
    """
    acc = padded[:, :n_acc].copy()
    total = padded.shape[1] - n_acc
    # Unmasked dense prefix: below the shortest row's length every
    # row's FREP is still running, so no freeze-out is needed.
    live = min(int(lengths.min()) - n_acc, total)
    for i in range(live):
        k = i % n_acc
        acc[:, k] = padded[:, n_acc + i] + acc[:, k]
    for i in range(max(live, 0), total):
        k = i % n_acc
        acc[:, k] = np.where(n_acc + i < lengths,
                             padded[:, n_acc + i] + acc[:, k], acc[:, k])
    return tree_reduce(acc)


#: Padded-block memory cap: fall back to per-length grouping when the
#: dense (rows x max_length) product table would exceed this multiple
#: of the actual nonzero count (degenerately skewed rows).
_PAD_WASTE_FACTOR = 8


def accumulate_rows(products, ptr, variant, index_bits):
    """Per-row reduction of ``products`` in the kernel's exact order.

    Rows are reduced together in one padded masked pass bounded by the
    longest row — O(max row length) vectorized steps total, instead of
    one Python pass per distinct row length — with bit-identical
    per-row accumulation order. Degenerately skewed matrices (one huge
    row amid many short ones) fall back to the per-length grouping so
    the padded table cannot blow up memory.
    """
    lengths = np.diff(ptr)
    nrows = len(lengths)
    y = np.zeros(nrows, dtype=np.float64)
    if nrows == 0:
        return y
    starts_all = np.asarray(ptr[:-1], dtype=np.int64)
    n_acc = N_ACCUMULATORS[index_bits] if variant == ISSR else 0
    max_len = int(lengths.max())
    if max_len == 0:
        return y
    if nrows * max_len > max(_PAD_WASTE_FACTOR * len(products), 4096):
        return _accumulate_rows_grouped(products, lengths, starts_all, y,
                                        variant, n_acc)
    cols = starts_all[:, None] + np.arange(max_len)
    np.clip(cols, 0, len(products) - 1, out=cols)  # junk lanes, masked off
    padded = products[cols]
    if variant in (BASE, SSR):
        live = np.nonzero(lengths > 0)[0]
        y[live] = _chain_rows_ragged(padded[live], lengths[live],
                                     from_zero=True)
        return y
    short = np.nonzero((lengths > 0) & (lengths < n_acc))[0]
    if len(short):
        y[short] = _chain_rows_ragged(padded[short], lengths[short],
                                      from_zero=False)
    long = np.nonzero(lengths >= n_acc)[0]
    if len(long):
        y[long] = _staggered_rows_ragged(padded[long], lengths[long], n_acc)
    return y


def _accumulate_rows_grouped(products, lengths, starts_all, y, variant,
                             n_acc):
    """Per-distinct-length grouping (the skew-safe fallback path)."""
    for length in np.unique(lengths):
        length = int(length)
        if length == 0:
            continue
        rows = np.nonzero(lengths == length)[0]
        starts = starts_all[rows]
        if variant in (BASE, SSR):
            y[rows] = chain_rows(products, starts, length, from_zero=True)
        elif length < n_acc:
            y[rows] = chain_rows(products, starts, length, from_zero=False)
        else:
            y[rows] = staggered_rows(products, starts, length, n_acc)
    return y


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
    """Whole-fiber reduction in the SpVV kernel's order."""
    nnz = len(products)
    if variant in (BASE, SSR):
        acc = 0.0
        for p in products:
            acc = p + acc
        return float(acc)
    n_acc = N_ACCUMULATORS[index_bits]
    acc = np.zeros((1, n_acc), dtype=np.float64)
    # chunked round-robin: element i lands on accumulator i % n_acc
    for c in range(0, nnz, n_acc):
        chunk = products[c:c + n_acc]
        acc[0, :len(chunk)] = chunk + acc[0, :len(chunk)]
    return float(tree_reduce(acc)[0])
