"""The external-ingestion battery: MM text -> binary cache -> mmap CSR.

Property tests (Hypothesis) pin the tentpole contract of
:mod:`repro.formats.external`: for every Matrix Market variant the
reader supports (coordinate/array x real/integer/pattern x
general/symmetric/skew-symmetric), parsing through the on-disk binary
cache and mmap-opening it yields **bit-identical** arrays to the
in-memory parse. Malformed or truncated input of any kind raises
:class:`~repro.errors.FormatError` — partial data never escapes.
"""

import hashlib
import os
import tarfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, FormatError
from repro.formats import (
    CACHE_SUFFIX,
    CsrCacheWriter,
    CsrMatrix,
    MmapCsrMatrix,
    fetch_suitesparse,
    ingest_matrix_market,
    open_csr_cache,
    read_matrix_market,
    write_csr_cache,
    write_matrix_market,
)
from repro.formats.external import HEADER_BYTES
from repro.workloads import fem_cache, generate_cache, random_csr, webgraph_cache


def assert_bit_identical(cached, parsed):
    """The tentpole oracle: mmap view == in-memory parse, bitwise."""
    assert cached.shape == parsed.shape
    assert np.array_equal(np.asarray(cached.ptr), np.asarray(parsed.ptr))
    assert np.array_equal(np.asarray(cached.idcs), np.asarray(parsed.idcs))
    assert np.asarray(cached.vals).tobytes() == \
        np.asarray(parsed.vals).tobytes()


def render_mm(dense, fmt, field, symmetry):
    """Render a dense matrix as Matrix Market text lines."""
    nrows, ncols = dense.shape
    out = [f"%%MatrixMarket matrix {fmt} {field} {symmetry}\n"]
    if fmt == "array":
        out.append(f"{nrows} {ncols}\n")
        for c in range(ncols):
            r0 = c if symmetry != "general" else 0
            r0 = c + 1 if symmetry == "skew-symmetric" else r0
            for r in range(r0, nrows):
                out.append(f"{_fmt_val(dense[r, c], field)}\n")
        return out
    entries = []
    for r in range(nrows):
        for c in range(ncols):
            if symmetry != "general" and c > r:
                continue
            if symmetry == "skew-symmetric" and c == r:
                continue
            if dense[r, c] != 0.0:
                entries.append((r, c, dense[r, c]))
    out.append(f"{nrows} {ncols} {len(entries)}\n")
    for r, c, v in entries:
        if field == "pattern":
            out.append(f"{r + 1} {c + 1}\n")
        else:
            out.append(f"{r + 1} {c + 1} {_fmt_val(v, field)}\n")
    return out


def _fmt_val(v, field):
    return str(int(v)) if field == "integer" else repr(float(v))


def random_dense(nrows, ncols, seed, field, symmetry):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((nrows, ncols))
    dense[rng.random((nrows, ncols)) < 0.5] = 0.0
    if field == "integer":
        dense = np.rint(dense * 10)
    if symmetry == "skew-symmetric":
        np.fill_diagonal(dense, 0.0)
    return dense


VARIANTS = [
    ("coordinate", "real", "general"),
    ("coordinate", "real", "symmetric"),
    ("coordinate", "real", "skew-symmetric"),
    ("coordinate", "integer", "general"),
    ("coordinate", "integer", "symmetric"),
    ("coordinate", "pattern", "general"),
    ("coordinate", "pattern", "symmetric"),
    ("array", "real", "general"),
    ("array", "real", "symmetric"),
    ("array", "real", "skew-symmetric"),
    ("array", "integer", "general"),
    ("array", "integer", "symmetric"),
]


class TestIngestRoundTrip:
    """MM text -> binary cache -> mmap view == in-memory parse."""

    @pytest.mark.parametrize("fmt,field,symmetry", VARIANTS)
    @given(nrows=st.integers(1, 9), extra=st.integers(0, 4),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_cache_matches_memory_parse(self, fmt, field, symmetry,
                                        nrows, extra, seed, tmp_path_factory):
        ncols = nrows if symmetry != "general" else nrows + extra
        dense = random_dense(nrows, ncols, seed, field, symmetry)
        lines = render_mm(dense, fmt, field, symmetry)
        parsed = read_matrix_market(lines)

        tmp = tmp_path_factory.mktemp("mm")
        mm_path = os.path.join(tmp, "m.mtx")
        with open(mm_path, "w") as fh:
            fh.writelines(lines)
        cache_path = ingest_matrix_market(mm_path)
        assert cache_path.endswith(CACHE_SUFFIX)
        cached = open_csr_cache(cache_path, verify=True)
        assert isinstance(cached, MmapCsrMatrix)
        assert_bit_identical(cached, parsed)

    @given(nrows=st.integers(1, 12), ncols=st.integers(1, 12),
           density=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_writer_roundtrip_any_doubles(self, nrows, ncols, density,
                                          seed, tmp_path_factory):
        """Arbitrary float64 payloads survive text -> cache exactly."""
        matrix = random_csr(nrows, ncols, int(density * nrows * ncols),
                            seed=seed)
        tmp = tmp_path_factory.mktemp("rt")
        mm_path = os.path.join(tmp, "m.mtx")
        write_matrix_market(matrix, mm_path)
        cached = open_csr_cache(ingest_matrix_market(mm_path), verify=True)
        assert_bit_identical(cached, matrix)

    def test_explicit_cache_path(self, tmp_path):
        matrix = random_csr(5, 5, 10, seed=0)
        mm_path = tmp_path / "m.mtx"
        write_matrix_market(matrix, str(mm_path))
        target = tmp_path / "elsewhere.csrbin"
        assert ingest_matrix_market(str(mm_path), str(target)) == str(target)
        assert_bit_identical(open_csr_cache(str(target)), matrix)


class TestBinaryCache:
    def test_write_open_roundtrip(self, tmp_path):
        matrix = random_csr(30, 20, 100, seed=4)
        path = str(tmp_path / "m.csrbin")
        write_csr_cache(matrix, path)
        cached = open_csr_cache(path, verify=True)
        assert_bit_identical(cached, matrix)

    def test_views_are_zero_copy(self, tmp_path):
        matrix = random_csr(10, 10, 30, seed=5)
        path = str(tmp_path / "m.csrbin")
        write_csr_cache(matrix, path)
        cached = open_csr_cache(path)
        raw = cached._raw
        for arr in (cached.ptr, cached.idcs, cached.vals):
            assert np.shares_memory(arr, raw)

    def test_row_block_matches_materialize(self, tmp_path):
        matrix = random_csr(40, 25, 200, seed=6)
        path = str(tmp_path / "m.csrbin")
        write_csr_cache(matrix, path)
        cached = open_csr_cache(path)
        full = cached.materialize()
        assert full == matrix
        for r0, r1 in [(0, 40), (0, 1), (39, 40), (7, 23)]:
            block = cached.row_block(r0, r1)
            assert block.shape == (r1 - r0, 25)
            assert block.ptr[0] == 0
            for local, r in enumerate(range(r0, r1)):
                lo, hi = matrix.ptr[r], matrix.ptr[r + 1]
                blo, bhi = block.ptr[local], block.ptr[local + 1]
                assert np.array_equal(block.idcs[blo:bhi],
                                      matrix.idcs[lo:hi])
                assert np.array_equal(block.vals[blo:bhi],
                                      matrix.vals[lo:hi])

    def test_release_rows_is_safe(self, tmp_path):
        matrix = random_csr(50, 50, 400, seed=7)
        path = str(tmp_path / "m.csrbin")
        write_csr_cache(matrix, path)
        cached = open_csr_cache(path)
        before = np.array(cached.vals)
        cached.release_rows(0, 25)
        cached.release_rows(25, 50)
        # pages come back from the file on demand: data unchanged
        assert np.array_equal(np.asarray(cached.vals), before)

    def test_empty_matrix_cache(self, tmp_path):
        matrix = CsrMatrix([0, 0, 0], [], [], (2, 3))
        path = str(tmp_path / "e.csrbin")
        write_csr_cache(matrix, path)
        cached = open_csr_cache(path, verify=True)
        assert cached.shape == (2, 3)
        assert cached.nnz == 0

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        matrix = random_csr(5, 5, 10, seed=8)
        path = str(tmp_path / "m.csrbin")
        write_csr_cache(matrix, path)
        assert sorted(os.listdir(tmp_path)) == ["m.csrbin"]


def _corrupt(path, offset, new_bytes):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(new_bytes)


class TestMalformedCache:
    """Every structural defect raises FormatError — never partial data."""

    @pytest.fixture
    def cache(self, tmp_path):
        matrix = random_csr(12, 9, 40, seed=9)
        path = str(tmp_path / "m.csrbin")
        write_csr_cache(matrix, path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            open_csr_cache(str(tmp_path / "nope.csrbin"))

    def test_bad_magic(self, cache):
        _corrupt(cache, 0, b"NOTACSRC")
        with pytest.raises(FormatError, match="magic"):
            open_csr_cache(cache)

    def test_version_skew(self, cache):
        _corrupt(cache, 8, (99).to_bytes(8, "little"))
        with pytest.raises(FormatError, match="version"):
            open_csr_cache(cache)

    def test_truncated_header(self, cache):
        with open(cache, "r+b") as fh:
            fh.truncate(HEADER_BYTES - 10)
        with pytest.raises(FormatError, match="truncated"):
            open_csr_cache(cache)

    def test_truncated_payload(self, cache):
        size = os.path.getsize(cache)
        with open(cache, "r+b") as fh:
            fh.truncate(size - 8)
        with pytest.raises(FormatError, match="truncated or corrupt"):
            open_csr_cache(cache)

    def test_trailing_garbage(self, cache):
        with open(cache, "ab") as fh:
            fh.write(b"\x00" * 16)
        with pytest.raises(FormatError, match="truncated or corrupt"):
            open_csr_cache(cache)

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.csrbin")
        open(path, "wb").close()
        with pytest.raises(FormatError, match="truncated"):
            open_csr_cache(path)

    def test_ptr_first_nonzero(self, cache):
        _corrupt(cache, HEADER_BYTES, (1).to_bytes(8, "little"))
        with pytest.raises(FormatError, match="ptr"):
            open_csr_cache(cache)

    def test_ptr_decreasing(self, cache):
        # ptr[1] = huge makes diff(ptr) negative afterwards
        _corrupt(cache, HEADER_BYTES + 8, (10 ** 6).to_bytes(8, "little"))
        with pytest.raises(FormatError, match="nondecreasing"):
            open_csr_cache(cache)

    def test_checksum_mismatch(self, cache):
        size = os.path.getsize(cache)
        with open(cache, "rb") as fh:
            fh.seek(size - 8)
            tail = fh.read(8)
        _corrupt(cache, size - 8, bytes(b ^ 0xFF for b in tail))
        with pytest.raises(FormatError, match="checksum"):
            open_csr_cache(cache, verify=True)

    def test_column_out_of_range(self, tmp_path):
        matrix = CsrMatrix([0, 2], [0, 1], [1.0, 2.0], (1, 2))
        path = str(tmp_path / "m.csrbin")
        write_csr_cache(matrix, path)
        # rewrite idcs[1] to 9 (>= ncols) and refresh the digest
        base = HEADER_BYTES + 8 * 2
        _corrupt(path, base + 8, (9).to_bytes(8, "little"))
        _refresh_digest(path)
        with pytest.raises(FormatError, match="column index"):
            open_csr_cache(path, verify=True)

    def test_columns_not_increasing(self, tmp_path):
        matrix = CsrMatrix([0, 2], [0, 1], [1.0, 2.0], (1, 2))
        path = str(tmp_path / "m.csrbin")
        write_csr_cache(matrix, path)
        base = HEADER_BYTES + 8 * 2
        _corrupt(path, base + 8, (0).to_bytes(8, "little"))
        _refresh_digest(path)
        with pytest.raises(FormatError, match="strictly increasing"):
            open_csr_cache(path, verify=True)

    @given(cut=st.integers(1, 200))
    @settings(max_examples=25, deadline=None)
    def test_any_truncation_raises(self, cut, tmp_path_factory):
        """Chopping any number of bytes off the end is always caught."""
        tmp = tmp_path_factory.mktemp("trunc")
        matrix = random_csr(6, 6, 12, seed=10)
        path = os.path.join(tmp, "m.csrbin")
        write_csr_cache(matrix, path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(max(size - cut, 0))
        with pytest.raises(FormatError):
            open_csr_cache(path)


def _refresh_digest(path):
    """Recompute the header checksum after a deliberate payload edit."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    digest = hashlib.sha256(bytes(data[HEADER_BYTES:])).digest()
    data[40:72] = digest
    with open(path, "wb") as fh:
        fh.write(bytes(data))


class TestCacheWriter:
    def test_streamed_equals_resident_write(self, tmp_path):
        matrix = random_csr(64, 32, 400, seed=11)
        resident = str(tmp_path / "a.csrbin")
        streamed = str(tmp_path / "b.csrbin")
        write_csr_cache(matrix, resident)
        with CsrCacheWriter(streamed, 32) as w:
            for r0 in range(0, 64, 10):
                r1 = min(r0 + 10, 64)
                lo, hi = int(matrix.ptr[r0]), int(matrix.ptr[r1])
                w.append_rows(np.diff(matrix.ptr[r0:r1 + 1]),
                              matrix.idcs[lo:hi], matrix.vals[lo:hi])
        with open(resident, "rb") as fa, open(streamed, "rb") as fb:
            assert fa.read() == fb.read()

    def test_bookkeeping_mismatch(self, tmp_path):
        with CsrCacheWriter(str(tmp_path / "m.csrbin"), 4) as w:
            with pytest.raises(FormatError, match="bookkeeping"):
                w.append_rows([2], [0], [1.0])
            w.abort()

    def test_column_out_of_range(self, tmp_path):
        with CsrCacheWriter(str(tmp_path / "m.csrbin"), 4) as w:
            with pytest.raises(FormatError, match="column index"):
                w.append_rows([1], [4], [1.0])
            w.abort()

    def test_columns_must_increase_within_row(self, tmp_path):
        with CsrCacheWriter(str(tmp_path / "m.csrbin"), 4) as w:
            with pytest.raises(FormatError, match="strictly increasing"):
                w.append_rows([2], [2, 1], [1.0, 2.0])
            w.abort()

    def test_row_boundary_column_reset_is_legal(self, tmp_path):
        path = str(tmp_path / "m.csrbin")
        with CsrCacheWriter(path, 4) as w:
            w.append_rows([2, 2], [2, 3, 0, 1], [1.0, 2.0, 3.0, 4.0])
        cached = open_csr_cache(path, verify=True)
        assert cached.nnz == 4

    def test_abort_leaves_nothing(self, tmp_path):
        path = str(tmp_path / "m.csrbin")
        w = CsrCacheWriter(path, 4)
        w.append_rows([1], [0], [1.0])
        w.abort()
        assert os.listdir(tmp_path) == []

    def test_exception_in_with_block_aborts(self, tmp_path):
        path = str(tmp_path / "m.csrbin")
        with pytest.raises(RuntimeError):
            with CsrCacheWriter(path, 4) as w:
                w.append_rows([1], [0], [1.0])
                raise RuntimeError("generator died")
        assert os.listdir(tmp_path) == []

    def test_close_is_final(self, tmp_path):
        path = str(tmp_path / "m.csrbin")
        w = CsrCacheWriter(path, 4)
        w.append_rows([1], [0], [1.0])
        w.close()
        with pytest.raises(FormatError, match="closed"):
            w.append_rows([1], [0], [1.0])
        with pytest.raises(FormatError, match="closed"):
            w.close()


class TestDiskGenerators:
    @pytest.mark.parametrize("workload", ["webgraph", "fem"])
    def test_deterministic_bytes(self, workload, tmp_path):
        a = str(tmp_path / "a.csrbin")
        b = str(tmp_path / "b.csrbin")
        generate_cache(workload, a, 500, seed=3)
        generate_cache(workload, b, 500, seed=3)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
        c = str(tmp_path / "c.csrbin")
        generate_cache(workload, c, 500, seed=4)
        with open(a, "rb") as fa, open(c, "rb") as fc:
            assert fa.read() != fc.read()

    def test_existing_cache_is_reused(self, tmp_path):
        path = str(tmp_path / "a.csrbin")
        generate_cache("webgraph", path, 200, seed=0)
        mtime = os.path.getmtime(path)
        generate_cache("webgraph", path, 200, seed=0)
        assert os.path.getmtime(path) == mtime

    def test_webgraph_is_valid_and_square(self, tmp_path):
        path = str(tmp_path / "w.csrbin")
        webgraph_cache(path, 1000, avg_degree=6, seed=1)
        m = open_csr_cache(path, verify=True)
        assert m.shape == (1000, 1000)
        vals = np.asarray(m.vals)
        assert np.all(vals > 0) and np.all(vals <= 1.0)

    def test_fem_is_diagonally_dominant(self, tmp_path):
        path = str(tmp_path / "f.csrbin")
        fem_cache(path, 300, band=3, seed=2)
        m = open_csr_cache(path, verify=True).materialize()
        dense = m.to_dense()
        diag = np.abs(np.diag(dense))
        off = np.abs(dense).sum(axis=1) - diag
        assert np.all(diag > off)

    def test_unknown_workload(self, tmp_path):
        with pytest.raises(ConfigError, match="workload"):
            generate_cache("mystery", str(tmp_path / "x.csrbin"), 10)

    def test_block_seams_are_consistent(self, tmp_path):
        """Row content is a pure function of (seed, block) — shrinking
        block_rows only changes which block owns a row boundary, and
        the cache stays structurally valid."""
        path = str(tmp_path / "w.csrbin")
        webgraph_cache(path, 700, avg_degree=5, seed=9, block_rows=256)
        m = open_csr_cache(path, verify=True)
        assert m.nrows == 700

    def test_webgraph_bytes_are_pinned(self, tmp_path):
        """A multi-block webgraph cache hashes as it always has: the
        generator's per-block dedupe changes nothing on disk."""
        path = tmp_path / "w.csrbin"
        webgraph_cache(str(path), 5000, seed=3, block_rows=1024)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9643c9627aac93d3b9c01754a2f1b2ea"
            "14786763010605c24c4d937e139f32c1")


class TestFetchSuitesparse:
    def _tarball(self, tmp_path, matrix):
        mtx = tmp_path / "group" / "name.mtx"
        mtx.parent.mkdir()
        write_matrix_market(matrix, str(mtx))
        tar_path = tmp_path / "name.tar.gz"
        with tarfile.open(tar_path, "w:gz") as tar:
            tar.add(str(mtx), arcname="name/name.mtx")
        digest = hashlib.sha256(tar_path.read_bytes()).hexdigest()
        return f"file://{tar_path}", digest

    def test_pinned_download_and_ingest(self, tmp_path):
        matrix = random_csr(8, 8, 20, seed=12)
        url, digest = self._tarball(tmp_path, matrix)
        dest = tmp_path / "dest"
        cache = fetch_suitesparse("Test/name", digest, str(dest), url=url)
        assert_bit_identical(open_csr_cache(cache, verify=True), matrix)
        # second call is a no-op (cache hit), even with a dead URL
        again = fetch_suitesparse("Test/name", digest, str(dest),
                                  url="file:///nonexistent")
        assert again == cache

    def test_checksum_mismatch_removes_tarball(self, tmp_path):
        matrix = random_csr(8, 8, 20, seed=13)
        url, _digest = self._tarball(tmp_path, matrix)
        dest = tmp_path / "dest"
        with pytest.raises(FormatError, match="sha256"):
            fetch_suitesparse("Test/name", "0" * 64, str(dest), url=url)
        assert not os.path.exists(dest / ("Test__name" + CACHE_SUFFIX))
        assert not os.path.exists(dest / "Test__name.tar.gz")

    def test_tarball_without_mtx(self, tmp_path):
        other = tmp_path / "readme.txt"
        other.write_text("no matrix here")
        tar_path = tmp_path / "name.tar.gz"
        with tarfile.open(tar_path, "w:gz") as tar:
            tar.add(str(other), arcname="name/readme.txt")
        digest = hashlib.sha256(tar_path.read_bytes()).hexdigest()
        with pytest.raises(FormatError, match="no .mtx"):
            fetch_suitesparse("Test/name", digest, str(tmp_path / "dest"),
                              url=f"file://{tar_path}")
