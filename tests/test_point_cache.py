"""The point cache: key schema, canonical encoding, store/load.

The on-disk cache is shared by the batch sweeps
(:class:`~repro.eval.parallel.ParallelRunner`) and the serve layer,
so a wrong key is served to *everyone*. These tests pin the KEY_SCHEMA
v4 guarantees: two distinct parameter sets never share a key (the
collision grid sweeps the axes that historically mattered — backend,
variant, cluster count, partitioner, HBM config), encoding is
insensitive to dict order but sensitive to every value, and corrupt
entries degrade to misses, never to wrong results or crashes.
"""

import itertools
import pickle

import numpy as np
import pytest

from repro.eval.parallel import (
    KEY_SCHEMA,
    PointCache,
    canonical_params,
    point_key,
)
from repro.multicluster.hbm import HbmConfig
from repro.workloads import MatrixSpec


def fake_point(params):
    """A stable key anchor for these tests (never called)."""
    raise AssertionError("not executed")


def other_point(params):
    """A second anchor: same params, different function."""
    raise AssertionError("not executed")


class Opaque:
    """Default (address-embedding) repr, but picklable."""

    def __init__(self, value):
        self.value = value


class TestCanonicalParams:
    def test_dict_order_is_irrelevant(self):
        a = {"backend": "cycle", "variant": "issr", "n": 3}
        b = {"n": 3, "variant": "issr", "backend": "cycle"}
        assert canonical_params(a) == canonical_params(b)

    def test_nested_dict_order_is_irrelevant(self):
        a = {"hbm": {"x": 1, "y": 2}, "k": [1, 2]}
        b = {"k": [1, 2], "hbm": {"y": 2, "x": 1}}
        assert canonical_params(a) == canonical_params(b)

    def test_list_order_matters(self):
        assert canonical_params([1, 2]) != canonical_params([2, 1])

    def test_set_order_is_canonicalized(self):
        assert canonical_params({3, 1, 2}) == canonical_params({2, 3, 1})

    def test_dataclasses_expand_to_typed_fields(self):
        a = HbmConfig(words_per_cycle=64)
        b = HbmConfig(words_per_cycle=32)
        assert canonical_params(a) != canonical_params(b)
        assert "HbmConfig" in canonical_params(a)
        assert canonical_params(a) == canonical_params(
            HbmConfig(words_per_cycle=64))

    def test_distinct_dataclass_types_never_collide(self):
        # same field dict, different class -> different encoding
        hbm = HbmConfig()
        fields = {"words_per_cycle": hbm.words_per_cycle,
                  "cluster_words_per_cycle": hbm.cluster_words_per_cycle,
                  "sync_cycles": hbm.sync_cycles}
        assert canonical_params(hbm) != canonical_params(fields)

    def test_large_ndarrays_hash_their_full_buffer(self):
        # repr() truncates at ~1000 elements; a middle element flip
        # must still change the encoding
        a = np.zeros(5000)
        b = a.copy()
        b[2500] = 1e-300
        assert canonical_params(a) != canonical_params(b)

    def test_ndarray_dtype_and_shape_are_part_of_the_identity(self):
        a = np.zeros(8, dtype=np.float64)
        assert canonical_params(a) != canonical_params(
            a.astype(np.float32))
        assert canonical_params(a) != canonical_params(a.reshape(2, 4))

    def test_address_reprs_fall_back_to_pickled_hash(self):
        x = canonical_params(Opaque(1))
        assert " at 0x" not in x  # address-free: stable across runs
        assert canonical_params(Opaque(1)) == x
        assert canonical_params(Opaque(2)) != x

    def test_unpicklable_address_repr_raises(self):
        class Hopeless:
            def __reduce__(self):
                raise TypeError("nope")

        with pytest.raises(TypeError, match="no stable"):
            canonical_params(Hopeless())


class TestPointKey:
    GRID = {
        "backend": ["cycle", "fast", "compiled"],
        "variant": ["base", "ssr", "issr"],
        "n_clusters": [1, 4],
        "partitioner": ["rows", "nnz_balanced"],
        "hbm": [HbmConfig(), HbmConfig(words_per_cycle=32)],
    }

    def grid_points(self):
        names = sorted(self.GRID)
        for combo in itertools.product(*(self.GRID[n] for n in names)):
            yield dict(zip(names, combo))

    def test_no_two_grid_points_share_a_key(self):
        """The KEY_SCHEMA v4 regression: 72 distinct param sets over
        the axes that historically collided -> 72 distinct keys."""
        keys = {}
        for params in self.grid_points():
            key = point_key(fake_point, params)
            assert key not in keys, (
                f"key collision between {params} and {keys[key]}")
            keys[key] = params
        assert len(keys) == 72

    def test_key_depends_on_the_point_function(self):
        params = {"backend": "cycle"}
        assert (point_key(fake_point, params)
                != point_key(other_point, params))

    def test_key_is_deterministic_and_hex(self):
        params = {"backend": "cycle", "spec": MatrixSpec(
            name="m", nrows=8, ncols=8, nnz=16, distribution="uniform",
            domain="synthetic", params={})}
        key = point_key(fake_point, params)
        assert key == point_key(fake_point, dict(params))
        assert len(key) == 64 and int(key, 16) >= 0

    def test_schema_version_is_keyed(self, monkeypatch):
        import repro.eval.parallel as parallel

        params = {"backend": "cycle"}
        v_now = point_key(fake_point, params)
        monkeypatch.setattr(parallel, "KEY_SCHEMA", KEY_SCHEMA + 1)
        assert point_key(fake_point, params) != v_now

    def test_serve_requests_key_through_the_same_schema(self):
        """The serve layer derives its dedupe identity from point_key,
        so tenancy axes must not leak into it."""
        from repro.serve.protocol import request_key, validate_request

        def payload(**overrides):
            base = {"kernel": "csrmv", "workload": {
                "matrix": {"gen": "random_csr", "nrows": 8, "ncols": 8,
                           "nnz": 16, "seed": 0},
                "x": {"gen": "random_dense_vector", "dim": 8, "seed": 0},
            }}
            base.update(overrides)
            return validate_request(base)

        same = request_key(payload(tenant="a", priority=0))
        assert same == request_key(payload(tenant="b", priority=9))
        assert same != request_key(payload(backend="cycle"))
        assert len(same) == 64  # a point_key, same keyspace


class TestPointCacheStore:
    def test_round_trip(self, tmp_path):
        cache = PointCache(cache_dir=str(tmp_path))
        key = point_key(fake_point, {"n": 1})
        assert cache.load(key) is None
        cache.store(key, {"n": 1}, {"cycles": 123,
                                    "y": np.arange(4.0)})
        entry = cache.load(key)
        assert entry["params"] == {"n": 1}
        assert entry["result"]["cycles"] == 123
        assert np.array_equal(entry["result"]["y"], np.arange(4.0))

    def test_entries_are_sharded_by_key_prefix(self, tmp_path):
        cache = PointCache(cache_dir=str(tmp_path))
        key = point_key(fake_point, {"n": 2})
        cache.store(key, {}, 1)
        assert cache.path(key).endswith(f"{key[:2]}/{key}.pkl".replace(
            "/", __import__("os").sep))

    def test_disabled_cache_neither_stores_nor_loads(self, tmp_path):
        cache = PointCache(cache_dir=str(tmp_path), use_cache=False)
        key = point_key(fake_point, {"n": 3})
        cache.store(key, {}, 42)
        assert cache.load(key) is None
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("garbage", [
        b"",                                   # torn write
        b"\x00\xffnot a pickle",               # binary junk
        pickle.dumps("not a dict"),            # wrong type
        pickle.dumps({"no_result_key": 1}),    # wrong shape
    ])
    def test_corrupt_entries_degrade_to_misses(self, tmp_path, garbage):
        cache = PointCache(cache_dir=str(tmp_path))
        key = point_key(fake_point, {"n": 4})
        cache.store(key, {"n": 4}, "good")
        with open(cache.path(key), "wb") as fh:
            fh.write(garbage)
        assert cache.load(key) is None
        # and the slot is recoverable
        cache.store(key, {"n": 4}, "fresh")
        assert cache.load(key)["result"] == "fresh"

    def test_store_is_atomic_no_tmp_debris(self, tmp_path):
        cache = PointCache(cache_dir=str(tmp_path))
        for n in range(5):
            cache.store(point_key(fake_point, {"n": n}), {"n": n}, n)
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp." in p.name]
        assert not leftovers

    def test_env_var_selects_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = PointCache()
        assert cache.cache_dir == str(tmp_path / "envcache")

    def test_runner_exposes_cache_counters(self, tmp_path):
        from repro.eval.parallel import ParallelRunner

        runner = ParallelRunner(processes=1, cache_dir=str(tmp_path))
        assert runner.cache_hits == 0 and runner.cache_misses == 0
        assert runner.cache_dir == str(tmp_path)
        assert runner.use_cache is True
        runner.cache.hits += 2
        assert runner.cache_hits == 2  # delegating properties
