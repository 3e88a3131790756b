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
so the work is one vector update per row position and the element
work equals the nonzero count, however skewed the row lengths are.
A trailing column axis on the products (CsrMM's k columns) rides the
same pass. The last few rows' tails, and rows holding a NaN product,
finish in Python floats instead, which also pins the NaN payload
(:func:`settle_nan_rows`).
"""

import numpy as np

from repro.kernels.common import BASE, ISSR, N_ACCUMULATORS, SSR
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


#: Live rows below which a position's products come from one up-front
#: gather into step order instead of a gather per position.
_NARROW_ROWS = 64

#: Live rows at or below which the remaining row tails finish in Python
#: floats: a NumPy call per position costs more than a few scalar adds.
_TAIL_ROWS = 4


def accumulate_rows(products, ptr, variant, index_bits):
    """Per-row reduction of ``products`` in the kernel's exact order.

    ``products`` is (nnz,) or (nnz, k): a trailing axis replays k
    independent columns in the same pass, and the result is (nrows,)
    or (nrows, k). Rows are sorted longest first, so the rows still
    accumulating at position ``j`` are a prefix ``c`` of that order
    and each position is one in-place ``np.add(p, acc[:c])``: the
    element work equals nnz however skewed the row lengths are.
    Positions with many live rows gather straight from CSR order, the
    suffix with fewer than ``_NARROW_ROWS`` is gathered once in step
    order, and the last ``_TAIL_ROWS`` rows finish in Python floats
    (:func:`_chain_lanes`, which also replays NaN rows). Extra memory
    stays O(nrows + narrow nnz).
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
    index = np.empty(n_live, dtype=np.int64)
    step = np.empty((n_live,) + products.shape[1:], dtype=np.float64)

    def gather(j):
        """Products at position ``j`` of the live prefix (CSR order)."""
        c = counts[j]
        np.add(starts[:c], j, out=index[:c])
        # every index is in range; mode="raise" would buffer ``out``
        return np.take(products, index[:c], axis=0, out=step[:c],
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
    # ``live`` never grows: wide positions, the narrow suffix, the tail.
    narrow = max(first, int(np.searchsorted(-live, -_NARROW_ROWS, "right")))
    tail = max(first, int(np.searchsorted(-live, -_TAIL_ROWS, "left")))
    for j in range(first, narrow):
        a = acc[j % n_acc, :counts[j]]
        np.add(gather(j), a, out=a)
    if narrow < tail:
        steps = live[narrow:tail]
        bounds = np.cumsum(steps)
        rank = np.arange(bounds[-1]) - np.repeat(bounds - steps, steps)
        rank = starts[rank] + np.repeat(np.arange(narrow, tail), steps)
        gathered = np.take(products, rank, axis=0)
        lo = 0
        for j, hi in zip(range(narrow, tail), bounds.tolist()):
            a = acc[j % n_acc, :hi - lo]
            np.add(gathered[lo:hi], a, out=a)
            lo = hi
    for r in range(counts[tail] if tail < max_len else 0):
        seg = products[starts[r] + tail:starts[r] + sorted_len[r]]
        seg = seg.reshape(len(seg), -1)
        nan = np.isnan(seg).any(axis=0)  # settle_nan_rows replays these
        lanes = acc[:, r].reshape(n_acc, -1)  # a view: writes land
        for col, rest in enumerate(seg.T.tolist()):
            if not nan[col]:
                lanes[:, col] = _chain_lanes(rest, lanes[:, col].tolist(),
                                             tail)
    if n_acc > 1:
        tree_reduce(np.moveaxis(acc[:, :n_long], 0, 1))
    out[order] = acc[0]
    return settle_nan_rows(out, products, ptr, variant, index_bits)


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
