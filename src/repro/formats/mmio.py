"""Matrix Market I/O.

The paper's matrix set (§IV, Fig. 4c) comes from the SuiteSparse
collection, which ships matrices in the Matrix Market exchange format. We implement a reader and
writer for the coordinate and array formats (real/integer/pattern fields,
general/symmetric/skew-symmetric symmetries) so real SuiteSparse files
can be dropped into our benchmarks when available.
"""

import numpy as np

from repro.errors import FormatError
from repro.formats.csr import CsrMatrix

_HEADER = "%%MatrixMarket"
_FORMATS = ("coordinate", "array")
_FIELDS = ("real", "integer", "pattern")
_SYMMETRIES = ("general", "symmetric", "skew-symmetric")


def read_matrix_market(path_or_lines):
    """Read a Matrix Market file into a :class:`CsrMatrix`.

    Accepts a filesystem path or an iterable of lines (for testing).
    Symmetric and skew-symmetric storage is expanded to general form.
    """
    if isinstance(path_or_lines, (str, bytes)):
        with open(path_or_lines, "r", encoding="ascii") as handle:
            return _parse(list(handle))
    return _parse(list(path_or_lines))


def _parse(lines):
    if not lines:
        raise FormatError("empty Matrix Market input")
    head = lines[0].split()
    if len(head) != 5 or head[0] != _HEADER or head[1].lower() != "matrix":
        raise FormatError(f"bad Matrix Market banner: {lines[0].strip()!r}")
    fmt, field, symmetry = head[2].lower(), head[3].lower(), head[4].lower()
    if fmt not in _FORMATS:
        raise FormatError(f"unsupported Matrix Market format {fmt!r}")
    if field not in _FIELDS:
        raise FormatError(f"unsupported Matrix Market field {field!r}")
    if symmetry not in _SYMMETRIES:
        raise FormatError(f"unsupported Matrix Market symmetry {symmetry!r}")
    if fmt == "array" and field == "pattern":
        raise FormatError("pattern field is invalid for array format")

    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise FormatError("Matrix Market input has no size line")
    size = body[0].split()

    if fmt == "coordinate":
        if len(size) != 3:
            raise FormatError(f"coordinate size line needs 3 fields, got {size}")
        nrows, ncols, nnz = (int(s) for s in size)
        entries = body[1:]
        if len(entries) != nnz:
            raise FormatError(f"expected {nnz} entries, found {len(entries)}")
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        for k, line in enumerate(entries):
            parts = line.split()
            want = 2 if field == "pattern" else 3
            if len(parts) < want:
                raise FormatError(f"entry {k}: expected {want} fields, got {line.strip()!r}")
            rows[k] = int(parts[0]) - 1
            cols[k] = int(parts[1]) - 1
            vals[k] = 1.0 if field == "pattern" else float(parts[2])
        rows, cols, vals = _expand_symmetry(rows, cols, vals, symmetry)
        return CsrMatrix.from_coo(rows, cols, vals, (nrows, ncols))

    # array (dense column-major) format
    if len(size) != 2:
        raise FormatError(f"array size line needs 2 fields, got {size}")
    nrows, ncols = (int(s) for s in size)
    raw = [float(ln.split()[0]) for ln in body[1:]]
    expect = _array_entry_count(nrows, ncols, symmetry)
    if len(raw) != expect:
        raise FormatError(f"expected {expect} array entries, found {len(raw)}")
    dense = _fill_array(raw, nrows, ncols, symmetry)
    return CsrMatrix.from_dense(dense)


def _array_entry_count(nrows, ncols, symmetry):
    if symmetry == "general":
        return nrows * ncols
    if nrows != ncols:
        raise FormatError("symmetric array matrices must be square")
    if symmetry == "symmetric":
        return nrows * (nrows + 1) // 2
    return nrows * (nrows - 1) // 2  # skew-symmetric: no diagonal


def _fill_array(raw, nrows, ncols, symmetry):
    dense = np.zeros((nrows, ncols), dtype=np.float64)
    k = 0
    for c in range(ncols):
        if symmetry == "general":
            r0 = 0
        elif symmetry == "symmetric":
            r0 = c
        else:
            r0 = c + 1
        for r in range(r0, nrows):
            dense[r, c] = raw[k]
            if symmetry == "symmetric" and r != c:
                dense[c, r] = raw[k]
            elif symmetry == "skew-symmetric":
                dense[c, r] = -raw[k]
            k += 1
    return dense


def _expand_symmetry(rows, cols, vals, symmetry):
    """Mirror every stored off-diagonal entry into the other triangle.

    Matrix Market symmetric/skew-symmetric files store one triangle
    only; CSR consumers need both. The mirrored triples are taken from
    the *original* arrays before any concatenation — the previous
    implementation rebound ``rows`` mid-expression and only stayed
    correct through a fragile ``rows[:len(vals)]`` re-slice of the
    rebound array, which silently dropped the mirror (leaving only the
    stored triangle in the CSR) under any reordering of those lines.
    """
    if symmetry == "general":
        return rows, cols, vals
    off = rows != cols
    if symmetry == "skew-symmetric" and not np.all(off):
        raise FormatError("skew-symmetric matrices cannot store diagonal entries")
    mirror_rows, mirror_cols = cols[off], rows[off]
    mirror_vals = -vals[off] if symmetry == "skew-symmetric" else vals[off]
    return (np.concatenate([rows, mirror_rows]),
            np.concatenate([cols, mirror_cols]),
            np.concatenate([vals, mirror_vals]))


def write_matrix_market(matrix, path, comment=None):
    """Write a :class:`CsrMatrix` as a general real coordinate file."""
    lines = [f"{_HEADER} matrix coordinate real general\n"]
    if comment:
        for ln in comment.splitlines():
            lines.append(f"% {ln}\n")
    lines.append(f"{matrix.nrows} {matrix.ncols} {matrix.nnz}\n")
    for r in range(matrix.nrows):
        for k in range(matrix.ptr[r], matrix.ptr[r + 1]):
            lines.append(f"{r + 1} {int(matrix.idcs[k]) + 1} {float(matrix.vals[k])!r}\n")
    with open(path, "w", encoding="ascii") as handle:
        handle.writelines(lines)
