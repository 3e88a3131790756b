"""Intersection lane: reference merge, profiles, and cycle-level unit.

The pure two-pointer reference (`intersect_indices`) is property-tested
against a brute-force oracle; the vectorized `merge_rows` and its
one-row case `merge_profile` against a stepwise merge replay; and the hardware `IntersectLane` (count and
stream modes) against both, through a minimal hand-built program.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import config as cfg
from repro.core.intersect import intersect_indices, merge_profile, merge_rows
from repro.errors import ConfigError
from repro.isa.isa import CSR_SSR
from repro.isa.program import ProgramBuilder
from repro.sim.harness import SingleCC

sorted_indices = st.lists(st.integers(0, 120), min_size=0, max_size=40,
                          unique=True).map(sorted)


def naive_merge(a, b):
    """Brute-force oracle: positions of shared indices, in order."""
    bset = set(b)
    aset = set(a)
    pa = [i for i, x in enumerate(a) if x in bset]
    pb = [j for j, x in enumerate(b) if x in aset]
    return pa, pb


def stepwise_profile(a, b):
    """Replay the merge step by step; returns (steps, matches, ca, cb)."""
    i = j = steps = matches = 0
    while i < len(a) and j < len(b):
        steps += 1
        if a[i] == b[j]:
            matches += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return steps, matches, i, j


@given(sorted_indices, sorted_indices)
@settings(max_examples=200, deadline=None)
def test_intersect_indices_matches_oracle(a, b):
    pa, pb = intersect_indices(a, b)
    na, nb = naive_merge(a, b)
    assert list(pa) == na
    assert list(pb) == nb


@given(sorted_indices, sorted_indices)
@settings(max_examples=200, deadline=None)
def test_merge_profile_matches_stepwise_replay(a, b):
    profile = merge_profile(a, b)
    steps, matches, ca, cb = stepwise_profile(a, b)
    assert profile.steps == steps
    assert profile.matches == matches
    assert profile.consumed_a == ca
    assert profile.consumed_b == cb


@given(st.lists(sorted_indices, max_size=6), sorted_indices)
@settings(max_examples=200, deadline=None)
def test_merge_rows_matches_each_rows_replay(rows, b):
    """All rows' merges at once: pairs and profiles row by row."""
    ptr = np.cumsum([0] + [len(r) for r in rows])
    a = np.array([i for r in rows for i in r], dtype=np.int64)
    pair_rows, pos_a, pos_b, profile = merge_rows(ptr, a, b)
    for r, row in enumerate(rows):
        pa, pb = naive_merge(row, b)
        mine = pair_rows == r
        assert (pos_a[mine] - ptr[r]).tolist() == pa
        assert pos_b[mine].tolist() == pb
        want = stepwise_profile(row, b)
        assert tuple(int(field[r]) for field in profile) == want


def _count_program(index_bits):
    """Count-pass-only program: latches REG_MATCH_COUNT into memory."""
    b = ProgramBuilder(f"isect_count_{index_bits}")
    b.scfgw("a2", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.scfgw("a6", cfg.cfg_addr(0, cfg.REG_BOUND_1))
    b.li("t1", cfg.idx_cfg_value(index_bits))
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_IDX_CFG))
    b.scfgw("a5", cfg.cfg_addr(0, cfg.REG_IDX_BASE_B))
    b.scfgw("a1", cfg.cfg_addr(0, cfg.REG_ISECT_CNT))
    b.label("poll")
    b.scfgr("t0", cfg.cfg_addr(0, cfg.REG_STATUS))
    b.bnez("t0", "poll")
    b.scfgr("t2", cfg.cfg_addr(0, cfg.REG_MATCH_COUNT))
    b.sd("t2", "a4", 0)
    b.halt()
    return b.build()


@pytest.mark.parametrize("index_bits", [32, 16])
def test_lane_count_mode_matches_reference(index_bits):
    rng = np.random.default_rng(3)
    for _ in range(6):
        na, nb = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        ai = np.sort(rng.choice(128, na, replace=False))
        bi = np.sort(rng.choice(128, nb, replace=False))
        sim = SingleCC(lane_config="intersect")
        a_idcs = sim.alloc_indices(ai, index_bits)
        b_idcs = sim.alloc_indices(bi, index_bits)
        out = sim.alloc_words([0])
        sim.run(_count_program(index_bits), args={
            "a1": a_idcs, "a2": na, "a5": b_idcs, "a6": nb, "a4": out,
        })
        got = sim.storage.read_words(out, 1)[0]
        assert got == len(intersect_indices(ai, bi)[0])


def _stream_program(index_bits):
    """Two-pass dot program over the matched value pairs."""
    b = ProgramBuilder(f"isect_stream_{index_bits}")
    b.fcvt_d_w("fa0", "zero")
    b.scfgw("a2", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.scfgw("a6", cfg.cfg_addr(0, cfg.REG_BOUND_1))
    b.li("t1", cfg.idx_cfg_value(index_bits))
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_IDX_CFG))
    b.scfgw("a0", cfg.cfg_addr(0, cfg.REG_DATA_BASE))
    b.scfgw("a5", cfg.cfg_addr(0, cfg.REG_IDX_BASE_B))
    b.scfgw("a3", cfg.cfg_addr(0, cfg.REG_DATA_BASE_B))
    b.scfgw("a1", cfg.cfg_addr(0, cfg.REG_ISECT_CNT))
    b.label("poll")
    b.scfgr("t0", cfg.cfg_addr(0, cfg.REG_STATUS))
    b.bnez("t0", "poll")
    b.scfgr("t2", cfg.cfg_addr(0, cfg.REG_MATCH_COUNT))
    b.beqz("t2", "store")
    b.csrsi(CSR_SSR, 1)
    b.scfgw("a1", cfg.cfg_addr(0, cfg.REG_ISECT_STR))
    b.frep("t2", 1)
    b.fmadd_d("fa0", 0, 1, "fa0")
    b.csrci(CSR_SSR, 1)
    b.label("store")
    b.fsd("fa0", "a4", 0)
    b.halt()
    return b.build()


@pytest.mark.parametrize("index_bits", [32, 16])
def test_lane_stream_mode_exact_chain(index_bits):
    rng = np.random.default_rng(9)
    for trial in range(5):
        na, nb = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        ai = np.sort(rng.choice(96, na, replace=False))
        bi = np.sort(rng.choice(96, nb, replace=False))
        av, bv = rng.standard_normal(na), rng.standard_normal(nb)
        sim = SingleCC(lane_config="intersect")
        args = {
            "a0": sim.alloc_floats(av), "a1": sim.alloc_indices(ai, index_bits),
            "a2": na, "a3": sim.alloc_floats(bv),
            "a5": sim.alloc_indices(bi, index_bits), "a6": nb,
            "a4": sim.alloc_zeros(1),
        }
        sim.run(_stream_program(index_bits), args=args)
        got = sim.read_floats(args["a4"], 1)[0]
        pa, pb = intersect_indices(ai, bi)
        acc = 0.0
        for i, j in zip(pa, pb):
            acc = av[i] * bv[j] + acc
        assert got == acc


def test_plain_lanes_reject_intersect_jobs():
    from repro.core.config import ShadowConfig, INTERSECT_COUNT

    sim = SingleCC()  # default config: SSR + ISSR lanes
    job = ShadowConfig().snapshot(INTERSECT_COUNT, 1, 0)
    with pytest.raises(ConfigError):
        sim.cc.ssr_lane.enqueue(job)
    with pytest.raises(ConfigError):
        sim.cc.issr_lane.enqueue(job)


def test_intersect_lane_rejects_non_intersect_jobs():
    from repro.core.config import ShadowConfig, INDIRECT_READ

    sim = SingleCC(lane_config="intersect")
    shadow = ShadowConfig()
    with pytest.raises(ConfigError):
        sim.cc.isect.enqueue(shadow.snapshot(INDIRECT_READ, 1, 0))


def test_unknown_lane_config_rejected():
    with pytest.raises(ConfigError):
        SingleCC(lane_config="bogus")
