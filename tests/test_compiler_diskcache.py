"""Tests for the persistent cross-process compiled-kernel cache.

The contract: entries are *hints only* (verified by exact
normalized-stream comparison at use time), written atomically,
versioned by ``git describe``, and disableable via environment — so
nothing here can ever make ``lower()`` produce a wrong kernel, only
make it faster or slower.
"""

import json
import os

import pytest

from repro.compiler import diskcache, lower
from repro.isa.introspect import normalize_program
from repro.kernels.common import PROGRAM_CACHE
from repro.kernels.csrmv import build_csrmv


@pytest.fixture
def cache_base(tmp_path, monkeypatch):
    """An isolated on-disk cache rooted under tmp_path."""
    monkeypatch.delenv(diskcache.DISABLE_ENV, raising=False)
    monkeypatch.delenv(diskcache.DIR_ENV, raising=False)
    return str(tmp_path / "kernels")


class TestStoreLoad:
    def test_round_trip(self, cache_base):
        assert diskcache.store("fp-1", "csrmv", "issr", 16,
                               base=cache_base)
        assert diskcache.load("fp-1", base=cache_base) == \
            ("csrmv", "issr", 16)

    def test_miss_returns_none(self, cache_base):
        assert diskcache.load("never-stored", base=cache_base) is None

    def test_distinct_fingerprints_do_not_collide(self, cache_base):
        diskcache.store("fp-a", "csrmv", "issr", 16, base=cache_base)
        diskcache.store("fp-b", "spvv", "ssr", 32, base=cache_base)
        assert diskcache.load("fp-a", base=cache_base) == \
            ("csrmv", "issr", 16)
        assert diskcache.load("fp-b", base=cache_base) == \
            ("spvv", "ssr", 32)

    def test_store_is_atomic_no_temp_debris(self, cache_base):
        diskcache.store("fp-1", "csrmv", "issr", 16, base=cache_base)
        assert all(name.endswith(".json")
                   for name in os.listdir(cache_base))


class TestValidation:
    def entry_path(self, cache_base, fingerprint="fp-1"):
        diskcache.store(fingerprint, "csrmv", "issr", 16,
                        base=cache_base)
        [name] = os.listdir(cache_base)
        return os.path.join(cache_base, name)

    def rewrite(self, path, **patch):
        with open(path) as fh:
            entry = json.load(fh)
        entry.update(patch)
        with open(path, "w") as fh:
            json.dump(entry, fh)

    def test_version_mismatch_is_a_miss(self, cache_base):
        path = self.entry_path(cache_base)
        self.rewrite(path, version="v0.0-other")
        assert diskcache.load("fp-1", base=cache_base) is None

    def test_schema_mismatch_is_a_miss(self, cache_base):
        path = self.entry_path(cache_base)
        self.rewrite(path, schema=diskcache.SCHEMA + 1)
        assert diskcache.load("fp-1", base=cache_base) is None

    def test_fingerprint_mismatch_is_a_miss(self, cache_base):
        # a hash collision (or hand-copied file) must not cross-talk
        path = self.entry_path(cache_base)
        self.rewrite(path, fingerprint="fp-other")
        assert diskcache.load("fp-1", base=cache_base) is None

    def test_corrupt_json_is_a_miss_not_an_error(self, cache_base):
        path = self.entry_path(cache_base)
        with open(path, "w") as fh:
            fh.write("{torn write")
        assert diskcache.load("fp-1", base=cache_base) is None

    def test_malformed_fields_are_a_miss(self, cache_base):
        path = self.entry_path(cache_base)
        self.rewrite(path, index_bits="wide")
        assert diskcache.load("fp-1", base=cache_base) is None


class TestEnvironmentSwitches:
    def test_disable_env_turns_off_store_and_load(self, cache_base,
                                                  monkeypatch):
        diskcache.store("fp-1", "csrmv", "issr", 16, base=cache_base)
        monkeypatch.setenv(diskcache.DISABLE_ENV, "0")
        assert not diskcache.enabled()
        assert diskcache.load("fp-1", base=cache_base) is None
        assert not diskcache.store("fp-2", "spvv", "ssr", 16,
                                   base=cache_base)
        assert list(diskcache.entries(base=cache_base)) == []

    def test_dir_env_relocates_the_cache(self, tmp_path, monkeypatch):
        override = str(tmp_path / "elsewhere")
        monkeypatch.setenv(diskcache.DIR_ENV, override)
        assert diskcache.cache_dir() == override
        diskcache.store("fp-1", "csrmv", "issr", 16)
        assert os.listdir(override)

    def test_explicit_base_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(diskcache.DIR_ENV, str(tmp_path / "env"))
        assert diskcache.cache_dir(str(tmp_path / "arg")) == \
            str(tmp_path / "arg")


class TestWarmStart:
    def test_entries_lists_current_version_identities(self, cache_base):
        diskcache.store("fp-1", "csrmv", "issr", 16, base=cache_base)
        diskcache.store("fp-2", "csrmv", "base", 32, base=cache_base)
        assert sorted(diskcache.entries(base=cache_base)) == [
            ("csrmv", "base", 32), ("csrmv", "issr", 16)]

    def test_entries_on_missing_dir_is_empty(self, tmp_path):
        assert list(diskcache.entries(
            base=str(tmp_path / "nothing-here"))) == []

    def test_warm_prelowers_cached_identities(self, cache_base):
        program, _meta = build_csrmv("issr", 16)
        lower(program)
        diskcache.store("fp-warm", "csrmv", "issr", 16, base=cache_base)
        assert diskcache.warm(base=cache_base) == 1

    def test_warm_skips_unknown_identities(self, cache_base):
        diskcache.store("fp-x", "no_such_family", "issr", 16,
                        base=cache_base)
        diskcache.store("fp-y", "csrmv", "no_such_variant", 16,
                        base=cache_base)
        diskcache.store("fp-z", "csrmv", "issr", 48, base=cache_base)
        assert diskcache.warm(base=cache_base) == 0


class TestLowerIntegration:
    def test_lower_spills_match_identity_to_disk(self, cache_base,
                                                 monkeypatch):
        monkeypatch.setenv(diskcache.DIR_ENV, cache_base)
        program, _meta = build_csrmv("issr", 32)
        # force a real scan: drop both in-process memo layers
        from repro.compiler import templates
        templates._LOWERED_BY_ID.pop(id(program), None)
        fingerprint = normalize_program(program)
        PROGRAM_CACHE._entries.pop(("compiled", fingerprint), None)

        kernel = lower(program)
        assert (kernel.family, kernel.variant, kernel.index_bits) == \
            ("csrmv", "issr", 32)
        assert diskcache.load(fingerprint) == ("csrmv", "issr", 32)

    def test_hinted_lowering_matches_scanned_lowering(self, cache_base,
                                                      monkeypatch):
        monkeypatch.setenv(diskcache.DIR_ENV, cache_base)
        program, _meta = build_csrmv("ssr", 16)
        from repro.compiler import templates
        fingerprint = normalize_program(program)

        templates._LOWERED_BY_ID.pop(id(program), None)
        PROGRAM_CACHE._entries.pop(("compiled", fingerprint), None)
        scanned = lower(program)

        # second cold process simulated: memo layers dropped again,
        # but the disk hint now short-circuits the scan
        templates._LOWERED_BY_ID.pop(id(program), None)
        PROGRAM_CACHE._entries.pop(("compiled", fingerprint), None)
        assert diskcache.load(fingerprint) == ("csrmv", "ssr", 16)
        hinted = lower(program)
        assert (hinted.family, hinted.variant, hinted.index_bits) == \
            (scanned.family, scanned.variant, scanned.index_bits)

    def test_stale_hint_falls_through_to_scan(self, cache_base,
                                              monkeypatch):
        monkeypatch.setenv(diskcache.DIR_ENV, cache_base)
        program, _meta = build_csrmv("base", 16)
        from repro.compiler import templates
        fingerprint = normalize_program(program)
        # poison the hint with the wrong identity — verification must
        # reject it and the scan must still find the right template
        diskcache.store(fingerprint, "spvv", "issr", 32)
        templates._LOWERED_BY_ID.pop(id(program), None)
        PROGRAM_CACHE._entries.pop(("compiled", fingerprint), None)
        kernel = lower(program)
        assert (kernel.family, kernel.variant, kernel.index_bits) == \
            ("csrmv", "base", 16)
