import math
import multiprocessing
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_corner import (NumericalError, SpecError, analytic_spectrum,
                             build_domain, bridge_trace_estimate, trace_at)
from spectral_corner import parallel, walker

from . import oracles
from .conftest import make_sector

_FORK = "fork" in multiprocessing.get_all_start_methods()


class TestDeterminism:
    def test_same_seed_reproduces(self, square):
        a = bridge_trace_estimate(square, 0.1, 40000, steps=32, seed=7)
        b = bridge_trace_estimate(square, 0.1, 40000, steps=32, seed=7)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr

    def test_different_seeds_differ(self, square):
        a = bridge_trace_estimate(square, 0.1, 20000, steps=32, seed=1)
        b = bridge_trace_estimate(square, 0.1, 20000, steps=32, seed=2)
        assert a.estimate != b.estimate

    def test_steps_round_up_to_power_of_two(self, square):
        a = bridge_trace_estimate(square, 0.1, 5000, steps=48, seed=0)
        b = bridge_trace_estimate(square, 0.1, 5000, steps=64, seed=0)
        assert a.steps == 64
        assert a.estimate == b.estimate

    @pytest.mark.parametrize("batch", [1024, 3072, 32768])
    def test_batch_size_does_not_change_bits(self, slit_square, disk, batch,
                                             monkeypatch):
        # 40000 paths span 40 blocks, the last a partial one, and at every
        # batch size but the largest the batches run on two workers
        for dom in (slit_square, disk):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
            ref = bridge_trace_estimate(dom, 0.05, 40000, steps=32, seed=5)
            monkeypatch.setattr(walker, "_BATCH", batch)
            got = bridge_trace_estimate(dom, 0.05, 40000, steps=32, seed=5)
            monkeypatch.undo()
            assert (got.estimate, got.stderr, got.survival) \
                == (ref.estimate, ref.stderr, ref.survival)


# Coordinates on a dyadic grid make the degenerate cases exact: knots on a
# slit line (orientation exactly 0), at a slit end, or on a wall.
_COORD = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                   st.floats(-1.5, 1.5))
_POINT = st.tuples(_COORD, _COORD)


def _wall_accepted(wall):
    """A wall geometry.Segment builds: its squared length is not 0."""
    d = np.subtract(wall[1], wall[0])
    return float(d @ d) > 0.0


def _philox(*key):
    return np.random.Generator(np.random.Philox(
        key=np.array(key, dtype=np.uint64)))


def _refined(dom, m, steps, t, shift=0.0):
    """The walker's live knots and the oracle's (knots, live mask) of m
    bridges from one Philox stream, the starts shifted by `shift`."""
    rng = _philox(11, 2)
    starts = walker._sample_interior(dom, rng, m) + shift
    got = walker._live_knots(dom, starts, rng, steps, t)
    rng = _philox(11, 2)
    starts = walker._sample_interior(dom, rng, m) + shift
    return got, oracles.bridge_knots(dom, starts, rng, steps, t)


_BOUNDARY_POINTS = settings(max_examples=60, deadline=None)(given(
    pts=st.lists(_POINT, min_size=1, max_size=40),
    walls=st.lists(st.tuples(_POINT, _POINT).filter(_wall_accepted), max_size=4),
    arcs=st.lists(st.tuples(_POINT, st.floats(0.1, 2.0)), max_size=2)))


def _boundary_case(pts, walls, arcs):
    """Walls and arcs as arrays, and the points as coordinate planes."""
    segs = [(np.array(p0), np.array(p1)) for p0, p1 in walls]
    arcs = [(np.array(c), r) for c, r in arcs]
    return (segs, arcs) + _planes(pts)


def _planes(paths):
    xy = np.array(paths, dtype=float)
    return np.ascontiguousarray(xy[..., 0]), np.ascontiguousarray(xy[..., 1])


class TestKernels:
    @pytest.mark.parametrize("m, steps", [(1, 2), (5, 8), (300, 64)])
    def test_offsets_match_oracle(self, slit_square, disk, m, steps):
        # the knots (start plus refined offsets) of the surviving paths, in
        # order; at m = 300 some paths leave each domain and some stay
        for dom in (slit_square, disk):
            got, (paths, live) = _refined(dom, m, steps, 0.05)
            ref = np.ascontiguousarray(paths[live].transpose(2, 0, 1))
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
            if m == 300:
                assert 0 < np.count_nonzero(live) < m

    @_BOUNDARY_POINTS
    def test_distance_matches_oracle(self, pts, walls, arcs):
        segs, arcs, x, y = _boundary_case(pts, walls, arcs)
        got = walker._dist_to_boundary(x, y, segs, arcs)
        ref = oracles.dist_to_boundary(np.array(pts, dtype=float), segs, arcs)
        assert got.tobytes() == ref.tobytes()

    @_BOUNDARY_POINTS
    def test_distance_near_hypot_form(self, pts, walls, arcs):
        segs, arcs, x, y = _boundary_case(pts, walls, arcs)
        got = walker._dist_to_boundary(x, y, segs, arcs)
        ref = oracles.dist_to_boundary_hypot(np.array(pts, dtype=float),
                                             segs, arcs)
        # infinite, and equal, with no wall and no arc
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=4e-15)

    @settings(max_examples=80, deadline=None)
    @given(paths=st.integers(2, 5).flatmap(lambda knots: st.lists(
               st.lists(_POINT, min_size=knots, max_size=knots),
               min_size=1, max_size=6)),
           b0=_POINT, b1=_POINT)
    # a vertical slit as in the slit square: a path along its line, one
    # through its tip, one touching its foot, one grazing a knot on it
    @example(paths=[[(0.5, 0.75), (0.5, 0.25), (0.5, -0.25)],
                    [(0.25, 0.5), (0.5, 0.5), (0.75, 0.5)],
                    [(0.25, 0.0), (0.75, 0.0), (0.75, 0.25)],
                    [(0.25, 0.25), (0.5, 0.25), (0.25, 0.5)],
                    [(0.25, 0.25), (0.5, 0.25), (0.75, 0.5)]],
             b0=(0.5, 0.0), b1=(0.5, 0.5))
    def test_slit_crossings_match_oracle(self, paths, b0, b1):
        b0, b1 = np.array(b0), np.array(b1)
        x, y = _planes(paths)
        hit = np.zeros(x.shape[0], dtype=bool)
        hit[walker._slit_crossings(x, y, b0, b1)] = True
        xy = np.array(paths, dtype=float)
        ref = oracles.segments_cross_many(xy[:, :-1], xy[:, 1:], b0, b1)
        assert hit.tolist() == ref.any(axis=1).tolist()

    @pytest.mark.parametrize("shift", [0.0, 2.0])
    def test_block_weights_match_oracle(self, slit_square, shift):
        # at t = 0.05 about half the paths leave the slit square; with the
        # starts shifted by 2 every path is dead
        t, m, steps = 0.05, 1000, 64
        (x, y), (paths, live) = _refined(slit_square, m, steps, t, shift)
        got = walker._weights(slit_square, x, y, t / steps)
        ref = oracles.block_weights(slit_square, paths, t / steps,
                                    slit_square.walls, slit_square.arcs,
                                    slit_square.slit_segments)
        assert got.tobytes() == ref[live].tobytes()
        assert np.all(ref[~live] == 0.0)
        if shift == 0.0:
            assert 0.2 * m < np.count_nonzero(~live) < 0.8 * m
            assert np.count_nonzero(got == 0.0) > 0  # slit kills
            assert np.all(got <= 1.0)
        else:
            assert not live.any()

    def test_bent_slit_kills_across_either_segment(self, bent_slit_square):
        # bridges of three knots, back at their start: across the second
        # segment only, across the first only, and across neither
        paths = [[(0.3, 0.6), (0.45, 0.65), (0.3, 0.6)],
                 [(0.45, 0.25), (0.55, 0.25), (0.45, 0.25)],
                 [(0.3, 0.6), (0.35, 0.6), (0.3, 0.6)]]
        got = walker._weights(bent_slit_square, *_planes(paths), 1e-3)
        assert got[0] == got[1] == 0.0
        assert got[2] > 0.5


class TestEstimates:
    def test_free_kernel_upper_bound(self, square, disk):
        for dom in (square, disk):
            for t in (0.05, 0.2):
                est = bridge_trace_estimate(dom, t, 5000, steps=32, seed=0)
                assert est.estimate <= dom.area / (4 * math.pi * t)
                assert 0.0 <= est.survival <= 1.0

    def test_square_matches_exact_trace(self, square):
        t = 0.1
        exact = trace_at(analytic_spectrum(square, 200), t)
        est = bridge_trace_estimate(square, t, 100000, steps=64, seed=0)
        assert abs(est.estimate - exact) < 4 * est.stderr

    def test_slit_inclusion_monotonicity(self, square, slit_square):
        # paired seeds: the slit domain is a subset, so its trace is smaller
        t = 0.05
        full = bridge_trace_estimate(square, t, 20000, steps=64, seed=3)
        slit = bridge_trace_estimate(slit_square, t, 20000, steps=64, seed=3)
        assert slit.estimate < full.estimate

    def test_step_halving_consistent(self, square):
        t = 0.1
        a = bridge_trace_estimate(square, t, 50000, steps=64, seed=0)
        b = bridge_trace_estimate(square, t, 50000, steps=128, seed=0)
        assert abs(a.estimate - b.estimate) \
            < 2 * math.hypot(a.stderr, b.stderr)


class TestPreconditions:
    def test_bad_arguments(self, square):
        with pytest.raises(SpecError):
            bridge_trace_estimate(square, 0.0, 100)
        with pytest.raises(SpecError):
            bridge_trace_estimate(square, 0.1, 0)
        with pytest.raises(SpecError):
            bridge_trace_estimate(square, 0.1, 100, steps=1)

    @pytest.mark.parametrize("n, steps", [(1000.0, 32), (1000, 8.0),
                                          (1000, 2.5), (1000, "32"),
                                          (True, 32)])
    def test_counts_must_be_integers(self, square, n, steps):
        with pytest.raises(SpecError, match="integers"):
            bridge_trace_estimate(square, 0.1, n, steps=steps)

    def test_numpy_integer_counts(self, square):
        got = bridge_trace_estimate(square, 0.1, np.int64(3000),
                                    steps=np.int32(24), seed=4)
        ref = bridge_trace_estimate(square, 0.1, 3000, steps=24, seed=4)
        assert (got.estimate, got.stderr, got.steps) \
            == (ref.estimate, ref.stderr, ref.steps)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_t_is_rejected(self, square, t):
        with pytest.raises(SpecError, match="finite t > 0"):
            bridge_trace_estimate(square, t, 1000)

    def test_cone_has_no_sampling_box(self):
        with pytest.raises(SpecError, match="no sampling box"):
            bridge_trace_estimate(make_sector(3.0), 0.05, 100)

    def test_coarse_steps_vs_slit_clearance(self, slit_square):
        with pytest.raises(SpecError, match="clearance"):
            bridge_trace_estimate(slit_square, 1.0, 100, steps=4)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "a", 2 ** 64],
                             ids=["negative", "float", "bool", "str", "too-large"])
    def test_seed_must_be_a_non_negative_integer(self, square, seed):
        with pytest.raises(SpecError, match="seed"):
            bridge_trace_estimate(square, 0.1, 100, seed=seed)


def _estimate_bits(dom, n, seed=0):
    est = bridge_trace_estimate(dom, 0.05, n, steps=32, seed=seed)
    return est.estimate, est.stderr, est.survival


def _estimate_in_daemon(dom, n, queue):
    try:
        queue.put((parallel._pool_size(2), _estimate_bits(dom, n)))
    except Exception as exc:  # report it, or the caller waits out its timeout
        queue.put((None, repr(exc)))


def _no_pool(*args, **kwargs):
    raise AssertionError("the batches should run in the caller")


class TestParallelBatches:
    """The batches run on a forked pool with the same bits for any worker count."""

    # three full batches and a partial one
    N = 3 * walker._BATCH + 1000

    @pytest.mark.parametrize("name", ["slit", "disk", "sector-1.5", "rect-2x0.5"])
    def test_same_bits_for_any_worker_count(self, name, slit_square, disk,
                                            monkeypatch):
        dom = {"slit": slit_square, "disk": disk,
               "sector-1.5": make_sector(1.5),
               "rect-2x0.5": build_domain({"kind": "rectangle",
                                           "params": {"a": 2.0, "b": 0.5}})}[name]
        got = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: workers)
            got.append(_estimate_bits(dom, self.N, seed=1))
        assert got[0] == got[1] == got[2]

    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_daemonic_caller_runs_serially(self, slit_square, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        ref = _estimate_bits(slit_square, self.N)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pool)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=_estimate_in_daemon,
                           args=(slit_square, self.N, queue), daemon=True)
        proc.start()
        workers, got = queue.get(timeout=120)
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert workers == 1
        assert got == ref

    def test_threaded_caller_runs_serially(self, slit_square, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        ref = _estimate_bits(slit_square, self.N)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pool)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            got = _estimate_bits(slit_square, self.N)
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert got == ref

    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_workers_skip_blas_pinning(self, slit_square, monkeypatch):
        # a map that pinned BLAS would raise before its first batch
        def pinned():
            raise RuntimeError("the walker's map pinned BLAS")

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        ref = _estimate_bits(slit_square, self.N)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "one_blas_thread", pinned)
        assert _estimate_bits(slit_square, self.N) == ref

    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_dead_worker_names_stage(self, slit_square, monkeypatch):
        caller = os.getpid()

        def dies(job, index):
            if os.getpid() != caller and index == 1:
                os._exit(1)
            return [(0.0, 0.0)]

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(walker, "_score_batch", dies)
        with pytest.raises(NumericalError) as info:
            bridge_trace_estimate(slit_square, 0.05, self.N, steps=32)
        assert info.value.stage == "bridge_trace_estimate"
        assert "pool broke" in str(info.value)
