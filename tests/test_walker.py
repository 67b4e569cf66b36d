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

    @pytest.mark.parametrize("block", [7, walker._BATCH])
    def test_block_size_does_not_change_bits(self, slit_square, disk, block,
                                             monkeypatch):
        # 40000 paths span two batches, the second a partial one, and the
        # two run on two workers
        for dom in (slit_square, disk):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
            ref = bridge_trace_estimate(dom, 0.05, 40000, steps=32, seed=5)
            monkeypatch.setattr(walker, "_BLOCK", block)
            got = bridge_trace_estimate(dom, 0.05, 40000, steps=32, seed=5)
            monkeypatch.undo()
            assert (got.estimate, got.stderr, got.survival) \
                == (ref.estimate, ref.stderr, ref.survival)


# Coordinates on a dyadic grid make the degenerate cases exact: knots on a
# slit line (orientation exactly 0), at a slit end, or on a wall.
_COORD = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                   st.floats(-1.5, 1.5))
_POINT = st.tuples(_COORD, _COORD)


def _block_offsets(rng, m, steps, t, block):
    """Offsets of m bridges, refined block by block and concatenated."""
    noise = walker._refinement_noise(rng, m, steps)
    return np.concatenate([
        walker._refine_block(noise, slice(r0, min(r0 + block, m)), steps, t)
        for r0 in range(0, m, block)])


def _planes(paths):
    xy = np.array(paths, dtype=float)
    return np.ascontiguousarray(xy[..., 0]), np.ascontiguousarray(xy[..., 1])


class TestKernels:
    @pytest.mark.parametrize("m, steps", [(1, 2), (5, 8), (300, 64)])
    def test_offsets_match_oracle(self, m, steps):
        def rng():
            return np.random.Generator(np.random.Philox(
                key=np.array([11, 2], dtype=np.uint64)))
        ref = oracles.bridge_offsets(rng(), m, steps, 0.05).tobytes()
        for block in (7, 1000, m):
            assert _block_offsets(rng(), m, steps, 0.05, block).tobytes() == ref

    @settings(max_examples=60, deadline=None)
    @given(pts=st.lists(_POINT, min_size=1, max_size=40),
           walls=st.lists(st.tuples(_POINT, _POINT).filter(
               lambda w: w[0] != w[1]), max_size=4),
           arcs=st.lists(st.tuples(_POINT, st.floats(0.1, 2.0)), max_size=2))
    def test_distance_matches_oracle(self, pts, walls, arcs):
        segs = [(np.array(p0), np.array(p1)) for p0, p1 in walls]
        arcs = [(np.array(c), r) for c, r in arcs]
        x, y = _planes(pts)
        got = walker._dist_to_boundary(x, y, segs, arcs)
        ref = oracles.dist_to_boundary(np.array(pts, dtype=float), segs, arcs)
        assert got.tobytes() == ref.tobytes()

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
        # at t = 0.05 about half the paths leave the slit square; shifted by
        # 2 every path is dead
        t, m, steps = 0.05, 1000, 64
        rng = np.random.Generator(np.random.Philox(
            key=np.array([3, 0], dtype=np.uint64)))
        paths = walker._sample_interior(slit_square, rng, m)[:, None, :] \
            + _block_offsets(rng, m, steps, t, m) + shift
        xy = np.ascontiguousarray(paths.transpose(2, 0, 1))
        got = walker._block_weights(slit_square, xy, t / steps)
        ref = oracles.block_weights(slit_square, paths, t / steps,
                                    slit_square.walls, slit_square.arcs,
                                    slit_square.slit_segments)
        assert got.tobytes() == ref.tobytes()
        outside = ~slit_square.contains(paths.reshape(-1, 2)).reshape(
            m, steps + 1).all(axis=1)
        assert np.all(got[outside] == 0.0)
        if shift == 0.0:
            assert 0.2 * m < np.count_nonzero(outside) < 0.8 * m
            assert np.count_nonzero(got[~outside] == 0.0) > 0  # slit kills
            assert np.all(got[~outside] <= 1.0)
        else:
            assert outside.all()

    def test_bent_slit_kills_across_either_segment(self, bent_slit_square):
        # bridges of three knots, back at their start: across the second
        # segment only, across the first only, and across neither
        paths = [[(0.3, 0.6), (0.45, 0.65), (0.3, 0.6)],
                 [(0.45, 0.25), (0.55, 0.25), (0.45, 0.25)],
                 [(0.3, 0.6), (0.35, 0.6), (0.3, 0.6)]]
        xy = np.array(_planes(paths))
        got = walker._block_weights(bent_slit_square, xy, 1e-3)
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

    def test_cone_has_no_sampling_box(self):
        with pytest.raises(SpecError, match="no sampling box"):
            bridge_trace_estimate(make_sector(3.0), 0.05, 100)

    def test_coarse_steps_vs_slit_clearance(self, slit_square):
        with pytest.raises(SpecError, match="clearance"):
            bridge_trace_estimate(slit_square, 1.0, 100, steps=4)


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
    def test_dead_worker_names_stage(self, slit_square, monkeypatch):
        caller = os.getpid()

        def dies(job, index):
            if os.getpid() != caller and index == 1:
                os._exit(1)
            return 0.0, 0.0

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(walker, "_score_batch", dies)
        with pytest.raises(NumericalError) as info:
            bridge_trace_estimate(slit_square, 0.05, self.N, steps=32)
        assert info.value.stage == "bridge_trace_estimate"
        assert "pool broke" in str(info.value)
