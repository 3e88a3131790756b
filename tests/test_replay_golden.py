"""Golden replay fixtures: the compiled backend's result bytes pinned.

``perfbench``'s offline check compares compiled results with the
``fast`` backend, an alias of ``compiled``, so it cannot see a change
in reduction order. These fixtures pin, for small seeded operands
salted with both NaN payloads, ±Inf, -0.0 and 5e-324, the sha256 of
every registered kernel's result bytes and its ``RunStats`` cycles on
the compiled backend, for each of the paper's four series, as
committed in ``tests/golden/replay_digests.json``. The row shapes
reach every replay primitive: ragged rows like E2, power-law skewed
rows, constant-length rows (few rows and many, shorter and longer
than the ISSR accumulator count), rows of signed zeros, one CG solve
through the pipeline executor and one ``stream_csrmv`` pass over a
generated ``.csrbin`` file.

Regenerate only after an intentional change to a replay order with::

    PYTHONPATH=src python tests/test_replay_golden.py --regenerate
"""

import functools
import hashlib
import json
import os
import tempfile
import zlib

import numpy as np
import pytest

from repro import api
from repro.formats import CsrMatrix, SparseFiber, open_csr_cache
from repro.formats.csf import CsfTensor
from repro.solvers.cg import solve_cg
from repro.stream import stream_csrmv
from repro.workloads import (
    generate_cache,
    random_csr,
    random_fiber_pair,
    random_spd_csr,
    random_sparse_vector,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "replay_digests.json")

#: The paper's four series.
SERIES = (("base", 32), ("ssr", 32), ("issr", 32), ("issr", 16))

with np.errstate(invalid="ignore"):
    #: ``inf - inf``: the sign-set default NaN, the second payload.
    DEFAULT_NAN = np.float64(np.inf) - np.float64(np.inf)

#: Both NaN payloads, then the other IEEE specials.
SPECIALS = np.array([np.nan, DEFAULT_NAN, np.inf, -np.inf, -0.0, 5e-324])


def _rng(*labels):
    """A generator seeded from ``labels`` identically in every process."""
    return np.random.default_rng(zlib.crc32(repr(labels).encode()))


def _salt(values, rng, rate):
    """A copy of ``values`` with a ``rate`` share set to :data:`SPECIALS`."""
    values = np.array(values, dtype=np.float64)
    hit = rng.random(values.shape) < rate
    values[hit] = rng.choice(SPECIALS, int(hit.sum()))
    return values


def _salted_csr(m, label, rate=0.08):
    return CsrMatrix(m.ptr, m.idcs, _salt(m.vals, _rng("vals", label), rate),
                     m.shape)


@functools.lru_cache(maxsize=None)
def _matrix(shape):
    """One salted CSR operand per named row shape."""
    if shape == "ragged":  # E2-like: uniform column picks, ragged rows
        m = random_csr(24, 512, 24 * 48, seed=61)
    elif shape == "powerlaw":
        m = random_csr(200, 256, 200 * 6, distribution="powerlaw", seed=62)
    elif shape == "uniform_few":
        m = random_csr(16, 64, 16 * 24, distribution="constant", seed=63)
    elif shape == "uniform_few_short":
        m = random_csr(40, 64, 40 * 3, distribution="constant", seed=64)
    elif shape == "uniform_many":
        m = random_csr(1200, 64, 1200 * 5, distribution="constant", seed=65)
    else:  # signed_zeros: many rows whose products are all ±0
        m = random_csr(64, 64, 64 * 6, seed=66)
        rng = _rng("zeros")
        vals = rng.choice(np.array([-0.0, -0.0, 0.0, 1.0, -1.0]), m.nnz)
        return CsrMatrix(m.ptr, m.idcs, vals, m.shape)
    return _salted_csr(m, shape)


SHAPES = ("ragged", "powerlaw", "uniform_few", "uniform_few_short",
          "uniform_many", "signed_zeros")


def _dense(shape, k=None):
    """The salted dense operand of ``shape``'s matrix: (ncols,) or
    (ncols, k); the signed-zero shape keeps finite nonzero factors."""
    ncols = _matrix(shape).ncols
    rng = _rng("dense", shape, k)
    values = rng.standard_normal((ncols,) if k is None else (ncols, k))
    return values if shape == "signed_zeros" else _salt(values, rng, 0.05)


def _csrmv(shape, variant, bits):
    return api.run("csrmv", backend="compiled", variant=variant,
                   index_bits=bits, matrix=_matrix(shape), x=_dense(shape))


def _csrmm(shape, k, variant, bits):
    return api.run("csrmm", backend="compiled", variant=variant,
                   index_bits=bits, matrix=_matrix(shape),
                   dense=_dense(shape, k))


def _cluster_csrmv(shape, variant, bits):
    return api.run("cluster_csrmv", backend="compiled", variant=variant,
                   index_bits=bits, matrix=_matrix(shape), x=_dense(shape))


def _spvv(variant, bits):
    fiber = random_sparse_vector(512, 100, seed=67)
    fiber = SparseFiber(fiber.indices, _salt(fiber.values, _rng("fiber"), 0.1),
                        dim=512)
    x = _salt(_rng("x").standard_normal(512), _rng("x salt"), 0.05)
    return api.run("spvv", backend="compiled", variant=variant,
                   index_bits=bits, fiber=fiber, x=x)


def _ttv(bits):
    rng = _rng("ttv")
    shape = (6, 10, 64)
    cube = rng.standard_normal(shape) * (rng.random(shape) < 0.15)
    t = CsfTensor.from_dense(cube)
    tensor = CsfTensor(t.shape, t.ptrs, t.idcs,
                       _salt(t.vals, _rng("ttv vals"), 0.1))
    vector = _salt(rng.standard_normal(shape[-1]), _rng("ttv salt"), 0.05)
    return api.run("ttv", backend="compiled", index_bits=bits, tensor=tensor,
                   vector=vector)


def _masked_spvv(variant, bits):
    a, b = random_fiber_pair(512, 90, 80, 0.4, seed=68)
    a = SparseFiber(a.indices, _salt(a.values, _rng("masked a"), 0.1),
                    dim=512)
    return api.run("masked_spvv", backend="compiled", variant=variant,
                   index_bits=bits, fiber_a=a, fiber_b=b)


def _masked_csrmv(variant, bits):
    m = _salted_csr(random_csr(40, 256, 40 * 20, seed=69), "masked")
    x_fiber = random_sparse_vector(256, 90, seed=70)
    return api.run("masked_csrmv", backend="compiled", variant=variant,
                   index_bits=bits, matrix=m, x_fiber=x_fiber)


def _spgemm(variant, bits):
    a = _salted_csr(random_csr(24, 20, 100, seed=71), "spgemm", 0.1)
    b = random_csr(20, 24, 110, seed=72)
    return api.run("spgemm", backend="compiled", variant=variant,
                   index_bits=bits, a=a, b=b)


def _cg():
    m = random_spd_csr(96, offdiag_per_row=5, seed=73)
    b = _rng("cg").standard_normal(96)
    res = solve_cg(m, b, n_iters=4, backend="compiled")
    return res.stats, res.x


def _stream(variant, bits):
    with tempfile.TemporaryDirectory() as tmp:
        path = generate_cache("webgraph", os.path.join(tmp, "w.csrbin"),
                              3000, seed=74, avg_degree=8)
        matrix = open_csr_cache(path)
        x = _salt(_rng("stream").standard_normal(matrix.ncols),
                  _rng("stream salt"), 0.02)
        return stream_csrmv(matrix, x, budget_bytes=64 << 10,
                            variant=variant, index_bits=bits)


def _cases():
    cases = {"cg_pipeline": _cg}
    for variant, bits in SERIES:
        series = f"{variant}{bits}"
        for shape in SHAPES:
            cases[f"csrmv {shape} {series}"] = functools.partial(
                _csrmv, shape, variant, bits)
            for k in (1, 4):
                cases[f"csrmm {shape} k{k} {series}"] = functools.partial(
                    _csrmm, shape, k, variant, bits)
        for shape in ("ragged", "powerlaw", "uniform_many"):
            cases[f"cluster_csrmv {shape} {series}"] = functools.partial(
                _cluster_csrmv, shape, variant, bits)
        for name, run in (("spvv", _spvv), ("masked_spvv", _masked_spvv),
                          ("masked_csrmv", _masked_csrmv),
                          ("spgemm", _spgemm), ("stream_csrmv", _stream)):
            cases[f"{name} {series}"] = functools.partial(run, variant, bits)
    for bits in (32, 16):
        cases[f"ttv issr{bits}"] = functools.partial(_ttv, bits)
    return cases


#: Fixture name -> zero-argument run returning ``(stats, result)``.
CASES = _cases()


def record(name):
    """Run one case; the sha256 of its result bytes and its cycles."""
    stats, result = CASES[name]()
    if isinstance(result, CsrMatrix):
        parts = (np.asarray(result.ptr, dtype=np.int64),
                 np.asarray(result.idcs, dtype=np.int64), result.vals)
    else:
        parts = (np.asarray(result, dtype=np.float64),)
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return {"sha256": h.hexdigest(), "cycles": int(stats.cycles)}


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_fixture_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


def test_cases_cover_every_registered_kernel():
    kernels = {name.split()[0] for name in CASES}
    assert set(api.list_kernels()) <= kernels


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN/inf arithmetic
@pytest.mark.parametrize("name", sorted(CASES))
def test_replay_matches_golden(name):
    got, want = record(name), _golden()[name]
    assert got == want, (
        f"{name} drifted from tests/golden/replay_digests.json (golden "
        f"{want}, now {got}); if the order change is intentional, "
        "regenerate with PYTHONPATH=src python "
        "tests/test_replay_golden.py --regenerate")


def _regenerate():
    with np.errstate(all="ignore"):
        golden = {name: record(name) for name in sorted(CASES)}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cases)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
