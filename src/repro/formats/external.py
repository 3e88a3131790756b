"""External real-matrix ingestion: binary CSR cache + mmap-backed views.

The paper's matrix set (§IV, Fig. 4c) comes from SuiteSparse, whose
files are Matrix Market text — fine for the paper-sized matrices, hopeless for the
million-row inputs ROADMAP item 3 targets. This layer converts any
source (a ``.mtx`` file, an in-memory :class:`CsrMatrix`, or a
streaming generator) **once** into an on-disk binary CSR cache and
thereafter exposes it as a zero-copy, mmap-backed matrix view whose
working set is bounded by the rows actually touched, not the matrix.

Cache file layout (little-endian, all sections 8-byte aligned)::

    offset   0  magic   b"RCSRCACH"
    offset   8  version u64 (currently 1)
    offset  16  nrows   u64
    offset  24  ncols   u64
    offset  32  nnz     u64
    offset  40  sha256 of (ptr || idcs || vals) bytes   (32 bytes)
    offset  72  zero padding up to HEADER_BYTES
    offset 128  ptr     int64[nrows + 1]
    then        idcs    int64[nnz]
    then        vals    float64[nnz]

Every structural problem — bad magic, version skew, a file shorter
than the header promises, checksum mismatch under ``verify=True`` —
raises :class:`~repro.errors.FormatError`; partial data is never
returned. :class:`CsrCacheWriter` appends row blocks without ever
holding the matrix in memory (the synthetic web-graph/FEM generators
in :mod:`repro.workloads.disk` write straight through it), and
:func:`fetch_suitesparse` downloads real SuiteSparse tarballs with a
pinned checksum.
"""

import hashlib
import mmap
import os
import struct
import tarfile
import tempfile
import urllib.request

import numpy as np

from repro.errors import FormatError
from repro.formats.csr import CsrMatrix
from repro.formats.mmio import read_matrix_market

MAGIC = b"RCSRCACH"
VERSION = 1
#: Fixed header size; the array sections start here.
HEADER_BYTES = 128
_HEADER_STRUCT = struct.Struct("<8sQQQQ32s")

#: Conventional cache-file suffix (the serve ``matrix_ref`` operand
#: spec and the CLI both look for it).
CACHE_SUFFIX = ".csrbin"

#: Streaming chunk size (bytes) for checksum/copy passes.
_CHUNK = 1 << 20


def _sha256_arrays(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(memoryview(np.ascontiguousarray(arr)))
    return h.digest()


def _sha256_file_section(h, fh):
    while True:
        block = fh.read(_CHUNK)
        if not block:
            return
        h.update(block)


def _pack_header(nrows, ncols, nnz, digest):
    head = _HEADER_STRUCT.pack(MAGIC, VERSION, nrows, ncols, nnz, digest)
    return head + b"\x00" * (HEADER_BYTES - len(head))


def write_csr_cache(matrix, path):
    """Write an in-memory :class:`CsrMatrix` as a binary cache file.

    Returns ``path``. The write goes through a same-directory temp
    file renamed into place, so a crashed writer never leaves a
    half-written cache behind a valid name.
    """
    ptr = np.ascontiguousarray(matrix.ptr, dtype=np.int64)
    idcs = np.ascontiguousarray(matrix.idcs, dtype=np.int64)
    vals = np.ascontiguousarray(matrix.vals, dtype=np.float64)
    digest = _sha256_arrays(ptr, idcs, vals)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(_pack_header(matrix.nrows, matrix.ncols, matrix.nnz,
                              digest))
        ptr.tofile(fh)
        idcs.tofile(fh)
        vals.tofile(fh)
    os.replace(tmp, path)
    return path


def ingest_matrix_market(mm_path, cache_path=None):
    """Parse a Matrix Market file into a binary CSR cache.

    Symmetric/skew-symmetric storage is expanded to general form (both
    triangles reach the cache). Returns the cache path (``mm_path``
    with :data:`CACHE_SUFFIX` appended when not given). The text parse
    is in-memory — bounded by the ``.mtx`` file, which SuiteSparse
    keeps modest; matrices too large for any text form are written
    straight to cache by :mod:`repro.workloads.disk`.
    """
    if cache_path is None:
        cache_path = str(mm_path) + CACHE_SUFFIX
    return write_csr_cache(read_matrix_market(mm_path), cache_path)


class MmapCsrMatrix(CsrMatrix):
    """A :class:`CsrMatrix` whose arrays are zero-copy mmap views.

    ``ptr``/``idcs``/``vals`` are int64/int64/float64 views into one
    shared read-only file mapping — opening a cache touches only the
    header plus the row-pointer pages needed for planning. Row-block
    tiles come from :meth:`~CsrMatrix.row_block` (lazy: the nonzero
    payload pages in on first arithmetic touch) and
    :meth:`release_rows` hands tile pages back to the OS so a full
    streaming pass keeps residency bounded by the live tiles.
    """

    __slots__ = ("path", "_raw")

    def __init__(self, path, ptr, idcs, vals, shape, raw):
        # Trusted adoption: the cache header (and optional checksum
        # verification) stands in for CsrMatrix.__init__'s per-row
        # validation loop, which would page in the whole file.
        self.path = path
        self._raw = raw
        self.ptr = ptr
        self.idcs = idcs
        self.vals = vals
        self.nrows = int(shape[0])
        self.ncols = int(shape[1])

    def materialize(self):
        """A fully resident deep copy (small matrices / differential tests)."""
        return CsrMatrix(np.array(self.ptr), np.array(self.idcs),
                         np.array(self.vals), self.shape)

    def release_rows(self, r0, r1):
        """Advise the OS to drop the pages backing rows ``[r0, r1)``.

        Best-effort (``madvise`` may be missing on exotic platforms):
        correctness never depends on it, only the resident-set bound.
        """
        mm = getattr(self._raw, "_mmap", None)
        if mm is None or not hasattr(mm, "madvise"):
            return False
        lo, hi = int(self.ptr[r0]), int(self.ptr[r1])
        page = mmap.ALLOCATIONGRANULARITY
        base = HEADER_BYTES + 8 * (self.nrows + 1)
        for start, stop in ((base + 8 * lo, base + 8 * hi),
                            (base + 8 * self.nnz + 8 * lo,
                             base + 8 * self.nnz + 8 * hi)):
            start = (start + page - 1) // page * page
            stop = stop // page * page
            if stop > start:
                mm.madvise(mmap.MADV_DONTNEED, start, stop - start)
        return True

    def __repr__(self):
        return (f"MmapCsrMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"path={self.path!r})")


def _read_header(path):
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as fh:
            head = fh.read(HEADER_BYTES)
    except OSError as exc:
        raise FormatError(f"cannot read CSR cache {path!r}: {exc}") from None
    if len(head) < HEADER_BYTES:
        raise FormatError(f"CSR cache {path!r} truncated inside the header "
                          f"({len(head)} < {HEADER_BYTES} bytes)")
    magic, version, nrows, ncols, nnz, digest = _HEADER_STRUCT.unpack(
        head[:_HEADER_STRUCT.size])
    if magic != MAGIC:
        raise FormatError(f"{path!r} is not a CSR cache (bad magic {magic!r})")
    if version != VERSION:
        raise FormatError(f"CSR cache {path!r} has version {version}, "
                          f"this build reads version {VERSION}")
    expect = HEADER_BYTES + 8 * (nrows + 1) + 16 * nnz
    if size != expect:
        raise FormatError(
            f"CSR cache {path!r} is {size} bytes but the header promises "
            f"{expect} (nrows={nrows}, nnz={nnz}) — truncated or corrupt")
    return nrows, ncols, nnz, digest


def open_csr_cache(path, verify=False):
    """Open a binary CSR cache as an :class:`MmapCsrMatrix`.

    The header and the row-pointer invariants are always checked
    (O(nrows), pages in only the ptr section); ``verify=True``
    additionally replays the SHA-256 over the full payload and the
    per-row column invariants — an O(file) pass that pages everything
    in once, for ingest-time validation and the test battery.
    """
    nrows, ncols, nnz, digest = _read_header(path)
    raw = np.memmap(path, dtype=np.uint8, mode="r")
    ptr = raw[HEADER_BYTES:HEADER_BYTES + 8 * (nrows + 1)].view(np.int64)
    base = HEADER_BYTES + 8 * (nrows + 1)
    idcs = raw[base:base + 8 * nnz].view(np.int64)
    vals = raw[base + 8 * nnz:base + 16 * nnz].view(np.float64)

    if ptr[0] != 0 or ptr[-1] != nnz:
        raise FormatError(f"CSR cache {path!r}: ptr must run 0..nnz "
                          f"(got {int(ptr[0])}..{int(ptr[-1])})")
    if nrows and np.any(np.diff(ptr) < 0):
        raise FormatError(f"CSR cache {path!r}: ptr is not nondecreasing")

    if verify:
        if _sha256_arrays(ptr, idcs, vals) != digest:
            raise FormatError(f"CSR cache {path!r}: checksum mismatch — "
                              "payload corrupt")
        if nnz and (idcs.min() < 0 or idcs.max() >= ncols):
            raise FormatError(f"CSR cache {path!r}: column index out of "
                              f"range for ncols={ncols}")
        if nnz > 1:
            # strictly increasing within each row: every non-increase
            # must sit exactly on a row boundary
            drops = np.nonzero(np.diff(idcs) <= 0)[0] + 1
            if not np.all(np.isin(drops, ptr[1:-1])):
                raise FormatError(f"CSR cache {path!r}: columns not "
                                  "strictly increasing within a row")
    return MmapCsrMatrix(path, ptr, idcs, vals, (nrows, ncols), raw)


class CsrCacheWriter:
    """Streaming cache writer: append row blocks, never hold the matrix.

    Usage::

        with CsrCacheWriter(path, ncols) as w:
            for block in blocks:
                w.append_rows(lengths, idcs, vals)

    Nonzeros stream into side files; ``close()`` assembles the final
    cache (header + ptr + payload, checksummed) and renames it into
    place. Only the row-pointer array (8 bytes/row) is held in memory.
    Aborting (``abort()`` or an exception inside the ``with`` block)
    removes every temporary — a valid cache name never holds partial
    data.
    """

    def __init__(self, path, ncols):
        self.path = str(path)
        self.ncols = int(ncols)
        self.nnz = 0
        self._lengths = [np.zeros(0, dtype=np.int64)]
        self._tmp_idcs = self.path + f".idcs.{os.getpid()}"
        self._tmp_vals = self.path + f".vals.{os.getpid()}"
        self._fh_idcs = open(self._tmp_idcs, "wb")
        self._fh_vals = open(self._tmp_vals, "wb")
        self._closed = False

    def append_rows(self, lengths, idcs, vals):
        """Append a block of rows (per-row nnz counts + their triples).

        Validates the block eagerly (column range, strictly increasing
        columns per row, length bookkeeping) so a bad generator fails
        at the offending block, not at open time.
        """
        lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        idcs = np.ascontiguousarray(idcs, dtype=np.int64)
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        if self._closed:
            raise FormatError("CsrCacheWriter already closed")
        if len(idcs) != len(vals) or int(lengths.sum()) != len(idcs):
            raise FormatError(
                f"row block bookkeeping mismatch: lengths sum "
                f"{int(lengths.sum())}, {len(idcs)} idcs, {len(vals)} vals")
        if np.any(lengths < 0):
            raise FormatError("negative row length in block")
        if len(idcs):
            if idcs.min() < 0 or idcs.max() >= self.ncols:
                raise FormatError(f"column index out of range for "
                                  f"ncols={self.ncols}")
            ends = np.cumsum(lengths)
            drops = np.nonzero(np.diff(idcs) <= 0)[0] + 1
            if not np.all(np.isin(drops, ends[:-1])):
                raise FormatError("columns not strictly increasing "
                                  "within a row")
        self._lengths.append(lengths)
        self._fh_idcs.write(memoryview(idcs))
        self._fh_vals.write(memoryview(vals))
        self.nnz += len(idcs)

    def abort(self):
        """Discard everything written so far (idempotent)."""
        self._closed = True
        for fh in (self._fh_idcs, self._fh_vals):
            if not fh.closed:
                fh.close()
        for tmp in (self._tmp_idcs, self._tmp_vals):
            if os.path.exists(tmp):
                os.unlink(tmp)

    def close(self):
        """Assemble the final cache file; returns its path."""
        if self._closed:
            raise FormatError("CsrCacheWriter already closed")
        self._fh_idcs.close()
        self._fh_vals.close()
        lengths = np.concatenate(self._lengths)
        ptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=ptr[1:])

        h = hashlib.sha256()
        h.update(memoryview(ptr))
        for tmp in (self._tmp_idcs, self._tmp_vals):
            with open(tmp, "rb") as fh:
                _sha256_file_section(h, fh)

        final_tmp = self.path + f".tmp.{os.getpid()}"
        with open(final_tmp, "wb") as out:
            out.write(_pack_header(len(lengths), self.ncols, self.nnz,
                                   h.digest()))
            ptr.tofile(out)
            for tmp in (self._tmp_idcs, self._tmp_vals):
                with open(tmp, "rb") as fh:
                    while True:
                        block = fh.read(_CHUNK)
                        if not block:
                            break
                        out.write(block)
        os.replace(final_tmp, self.path)
        self._closed = True
        for tmp in (self._tmp_idcs, self._tmp_vals):
            os.unlink(tmp)
        return self.path

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.close()
        return False


#: Default SuiteSparse Matrix Market mirror (``{name}`` is
#: ``Group/Matrix``, e.g. ``"SNAP/web-Stanford"``).
SUITESPARSE_URL = "https://suitesparse-collection-website.herokuapp.com/MM/{name}.tar.gz"


def fetch_suitesparse(name, sha256, dest_dir, url=None, timeout=120):
    """Download a SuiteSparse matrix with a pinned checksum and ingest it.

    ``name`` is ``"Group/Matrix"``; ``sha256`` is the hex digest the
    tarball must match (refusing unpinned downloads keeps experiment
    inputs reproducible). Returns the binary cache path. The download
    is skipped when the cache already exists; a digest mismatch
    removes the tarball and raises :class:`FormatError`.
    """
    base = name.replace("/", "__")
    cache_path = os.path.join(dest_dir, base + CACHE_SUFFIX)
    if os.path.exists(cache_path):
        return cache_path
    os.makedirs(dest_dir, exist_ok=True)
    tar_path = os.path.join(dest_dir, base + ".tar.gz")
    if not os.path.exists(tar_path):
        resolved = url or SUITESPARSE_URL.format(name=name)
        tmp = tar_path + ".part"
        with urllib.request.urlopen(resolved, timeout=timeout) as resp, \
                open(tmp, "wb") as out:
            while True:
                block = resp.read(_CHUNK)
                if not block:
                    break
                out.write(block)
        os.replace(tmp, tar_path)
    h = hashlib.sha256()
    with open(tar_path, "rb") as fh:
        _sha256_file_section(h, fh)
    if h.hexdigest() != sha256:
        os.unlink(tar_path)
        raise FormatError(
            f"SuiteSparse download {name!r}: sha256 {h.hexdigest()} does "
            f"not match the pinned {sha256} — tarball removed")
    with tarfile.open(tar_path, "r:gz") as tar:
        members = [m for m in tar.getmembers()
                   if m.isfile() and m.name.endswith(".mtx")]
        if not members:
            raise FormatError(f"{tar_path!r} contains no .mtx member")
        member = max(members, key=lambda m: m.size)
        with tempfile.TemporaryDirectory(dir=dest_dir) as tmpdir:
            mtx_path = os.path.join(tmpdir, "matrix.mtx")
            with tar.extractfile(member) as src, open(mtx_path, "wb") as dst:
                while True:
                    block = src.read(_CHUNK)
                    if not block:
                        break
                    dst.write(block)
            ingest_matrix_market(mtx_path, cache_path)
    return cache_path
