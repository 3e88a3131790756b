"""Out-of-core workload generators: matrices written straight to disk.

The E14 out-of-core experiment needs million-row inputs that no
in-memory generator should ever materialize. Both generators here
stream row blocks through :class:`~repro.formats.external.CsrCacheWriter`,
so peak memory is one block (``block_rows`` rows), never the matrix:

- :func:`webgraph_cache` — a power-law-ish "web graph" adjacency
  matrix (geometric out-degrees, uniform targets), the locality-hostile
  end of the realistic spectrum;
- :func:`fem_cache` — a banded, diagonally dominant FEM-style stencil
  matrix, the locality-friendly end.

Determinism contract: the written cache is a pure function of the
keyword arguments **including** ``block_rows`` (each block derives its
own :class:`numpy.random.Generator` from ``(seed, first-row)``), so
tests and the point cache can rely on byte-identical regeneration.
"""

import os

import numpy as np

from repro.errors import ConfigError
from repro.formats.external import CsrCacheWriter

#: Default rows per streamed generator block.
BLOCK_ROWS = 65536


def _block_rng(seed, r0):
    return np.random.default_rng([np.uint32(seed), np.uint32(r0)])


def _dedupe_sorted(row_ids, cols, ncols, n_block_rows):
    """Per-row sorted+unique triples from (local row, col) pairs.

    One ``np.sort`` over the fused key, keeping each run's first
    entry, gives row-major order with strictly increasing columns per
    row — the CSR contract — regardless of block size. (``np.unique``
    gives the same keys, but may take a slower hashing path.)
    """
    key = np.sort(row_ids.astype(np.int64) * ncols + cols)
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    rows = key // ncols
    cols = key % ncols
    lengths = np.bincount(rows, minlength=n_block_rows).astype(np.int64)
    return lengths, cols


def webgraph_cache(path, nrows, avg_degree=8, seed=0, block_rows=BLOCK_ROWS):
    """Write a square power-law web-graph matrix to a CSR cache.

    Out-degrees are geometric with mean ``avg_degree`` (heavy tail,
    many leaves); targets are uniform over the column space, then
    deduplicated per row. Values are in ``(0, 1]``. Returns ``path``.
    """
    if nrows < 1 or avg_degree < 1:
        raise ConfigError("webgraph_cache needs nrows >= 1 and "
                          "avg_degree >= 1")
    ncols = nrows
    with CsrCacheWriter(path, ncols) as writer:
        for r0 in range(0, nrows, block_rows):
            n = min(block_rows, nrows - r0)
            rng = _block_rng(seed, r0)
            degrees = rng.geometric(1.0 / avg_degree, size=n)
            degrees = np.minimum(degrees, ncols)
            row_ids = np.repeat(np.arange(n), degrees)
            cols = rng.integers(0, ncols, size=int(degrees.sum()))
            lengths, cols = _dedupe_sorted(row_ids, cols, ncols, n)
            vals = rng.random(len(cols)) + 2.0 ** -53  # (0, 1]
            writer.append_rows(lengths, cols, vals)
    return path


def fem_cache(path, nrows, band=4, seed=0, block_rows=BLOCK_ROWS):
    """Write a banded FEM-style stencil matrix to a CSR cache.

    Row ``r`` holds the offsets ``[-band, +band]`` clipped to the
    matrix, with a dominant positive diagonal (``2 * band + 1``) and
    small seeded off-diagonal couplings — a symmetric pattern with the
    contiguous locality of assembled FEM operators. Returns ``path``.
    """
    if nrows < 1 or band < 1:
        raise ConfigError("fem_cache needs nrows >= 1 and band >= 1")
    ncols = nrows
    offsets = np.arange(-band, band + 1)
    with CsrCacheWriter(path, ncols) as writer:
        for r0 in range(0, nrows, block_rows):
            n = min(block_rows, nrows - r0)
            rng = _block_rng(seed, r0)
            rows = np.arange(r0, r0 + n)
            cols = rows[:, None] + offsets[None, :]
            keep = (cols >= 0) & (cols < ncols)
            lengths = keep.sum(axis=1).astype(np.int64)
            flat_cols = cols[keep]
            vals = -rng.random(len(flat_cols)) / (2 * band)
            vals[flat_cols == np.repeat(rows, lengths)] = 2.0 * band + 1.0
            writer.append_rows(lengths, flat_cols, vals)
    return path


def generate_cache(workload, path, nrows, seed=0, **kwargs):
    """Dispatch on ``workload`` ("webgraph" or "fem"); returns the path.

    Skips generation when ``path`` already exists (caches are
    content-deterministic, see the module docstring).
    """
    if os.path.exists(path):
        return path
    if workload == "webgraph":
        return webgraph_cache(path, nrows, seed=seed, **kwargs)
    if workload == "fem":
        return fem_cache(path, nrows, seed=seed, **kwargs)
    raise ConfigError(f"unknown out-of-core workload {workload!r}; "
                      "expected 'webgraph' or 'fem'")
