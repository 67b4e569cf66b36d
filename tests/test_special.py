import math
import multiprocessing
import os
import threading
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros, jv

from spectral_corner import (NumericalError, SpecError, analytic_spectrum,
                             bessel_j, rect_theta_factor)
from spectral_corner import parallel, special
from spectral_corner.special import bessel_zeros_upto, gauss_panels, tanh_sinh
from spectral_corner.spectrum import _closed_form

from .conftest import make_sector
from .oracles import _bessel_zeros_upto as brentq_zeros_upto
from .oracles import rect_theta_factor_loops as theta_loops
from .oracles import theta_side


class TestRectThetaFactor:
    def test_matches_mpmath_theta(self):
        for t in np.geomspace(1e-4, 2.0, 40):
            assert rect_theta_factor(t) == pytest.approx(
                float(theta_side(t)), abs=1e-13, rel=1e-12)

    def test_modular_identity_across_branch_switch(self):
        # both summation branches must agree where either converges
        for t in np.linspace(0.05, 0.5, 46):
            small = -0.5 + float(mp.jtheta(3, 0, mp.exp(-1 / mp.mpf(t)))) \
                / (2 * math.sqrt(math.pi * t))
            large = float((mp.jtheta(3, 0, mp.exp(-mp.pi ** 2 * mp.mpf(t))) - 1) / 2)
            assert abs(small - large) < 1e-12
            assert rect_theta_factor(t) == pytest.approx(large, abs=1e-12)

    def test_rejects_t_not_positive(self):
        # NaN used to pass the check and never end the sum
        for t in (0.0, -1.0, math.nan):
            with pytest.raises(SpecError):
                rect_theta_factor(t)
            with pytest.raises(SpecError):
                rect_theta_factor(np.array([[0.1, 1.0], [t, 2.0]]))

    def test_arrays_match_the_term_by_term_sums(self):
        t = np.concatenate([np.geomspace(1e-8, 50.0, 20001),
                            np.nextafter(0.15, [0.0, 1.0]), [0.15]])
        assert np.count_nonzero(t < 0.15) > 1000
        assert np.count_nonzero(t >= 0.15) > 1000
        got = rect_theta_factor(t)
        ref = np.array([theta_loops(v) for v in t.tolist()])
        assert got.shape == t.shape
        assert np.max(np.abs(got - ref) / ref) <= 1e-15
        grid = t[:12].reshape(3, 4)
        assert np.array_equal(rect_theta_factor(grid), got[:12].reshape(3, 4))

    def test_subnormal_t_does_not_overflow(self):
        # 1/t is inf there; its term is exp(-inf) = 0, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rect_theta_factor(np.array([5e-324, 1e-300, 0.5]))
            scalar = rect_theta_factor(5e-324)
        assert got[0] == scalar == theta_loops(5e-324)
        assert scalar == pytest.approx(1.30e161, rel=1e-2)

    def test_scalar_gives_a_python_float(self):
        for t in (0.01, 0.15, 2.0, np.float64(0.3), np.array(0.3)):
            assert type(rect_theta_factor(t)) is float


class TestBessel:
    def test_values_match_mpmath(self):
        for nu in (0.0, 0.5, 1.0, 2.0 / 3.0, 5.5):
            for x in (0.5, 3.0, 17.0, 40.0):
                assert bessel_j(nu, x) == pytest.approx(
                    float(mp.besselj(nu, x)), abs=1e-12, rel=1e-10)

    def test_zeros_match_scipy_integer_orders(self):
        for nu in (0, 1, 3):
            ref = jn_zeros(nu, 12)
            got = bessel_zeros_upto(float(nu), 45.0)
            assert got.size >= 12
            np.testing.assert_allclose(got[:12], ref, rtol=1e-12, atol=1e-10)

    def test_first_zero_order_zero(self):
        zs = bessel_zeros_upto(0.0, 3.0)
        assert zs.size == 1
        assert zs[0] == pytest.approx(2.4048255576957724, abs=1e-12)

    def test_zeros_are_roots(self):
        for nu in (0.0, 1.0 / 3.0, 2.5, 7.0):
            zs = bessel_zeros_upto(nu, 40.0)
            for k in (1, 2, 5, 9):
                assert abs(bessel_j(nu, zs[k - 1])) < 1e-10

    def test_zeros_upto_consistent_with_indexed(self):
        # the k-th zero does not depend on how far the scan runs past it
        zs = bessel_zeros_upto(1.5, 40.0)
        longer = bessel_zeros_upto(1.5, 97.0)
        for k, z in enumerate(zs, start=1):
            assert z == pytest.approx(longer[k - 1], abs=1e-10)
        assert np.all(zs < 40.0) and longer[zs.size] > 40.0

    # x_max = 2000 is what alpha = 0.1 reaches at 30k modes: orders up to
    # the top one, far past the turning point of the lower ones
    @pytest.mark.parametrize("alpha, x_max", [
        *(pytest.param(a, 120.0, id=str(a))
          for a in (0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.3)),
        *(pytest.param(a, 2000.0, id=f"{a}-x2000") for a in (0.1, 1.5, 7.3))])
    def test_batched_sector_orders_match_brentq_oracle(self, alpha, x_max):
        k_max = math.floor(alpha * x_max)
        # the lowest orders (nu < 1/2 from alpha = 3 on), a spread, and the
        # highest orders nu <= x_max, whose first zero lies beyond x_max
        ks = np.unique(np.concatenate([
            [1, 2, 3], np.linspace(1, k_max, 12).round(), [k_max - 1, k_max]]))
        nus = ks / alpha
        nus = nus[nus <= x_max]
        got = bessel_zeros_upto(nus, x_max)
        ref = [brentq_zeros_upto(nu, x_max) for nu in nus]
        assert got.size == sum(r.size for r in ref)
        want = np.concatenate(ref)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_scan_starts_below_first_zero(self):
        nus = np.geomspace(1e-3, 2000.0, 80)
        start = special._scan_start(nus)
        first = np.array([
            brentq_zeros_upto(nu, nu + 3.0 * nu ** (1 / 3) + 3.0)[0] for nu in nus])
        assert np.all(start < first)
        # J_nu is still positive there, so the first sign change is j_{nu,1}
        assert np.all(jv(nus, start) > 0)

    def test_jv_evaluations_per_zero(self, monkeypatch):
        # alpha = 1.5 at N = 4000: one sector of the closed-form benchmark.
        # Stopping on the cubic error bound and scanning from the lower
        # bound for j_{nu,1} need at most 7 jv evaluations per zero
        calls = []

        class Counting:
            def jv(self, v, x):
                calls.append(np.broadcast(v, x).size)
                return jv(v, x)

        monkeypatch.setattr(special, "_sci_special", Counting())
        # one usable CPU keeps every chunk, and so every jv call, in this process
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        spec = analytic_spectrum(make_sector(1.5), 4000)
        assert spec.count > 5000
        assert sum(calls) <= 7 * spec.count

    def test_batched_call_is_bit_identical_to_scalar_calls(self):
        nus = np.concatenate([[0.0, 1e-3, 0.25, 0.5], np.arange(1, 75) / 1.3,
                              [59.9, 60.0, 61.5]])
        batched = bessel_zeros_upto(nus, 60.0)
        single = np.concatenate([bessel_zeros_upto(float(nu), 60.0) for nu in nus])
        assert batched.tobytes() == single.tobytes()

    def test_zeros_upto_edge_orders(self):
        assert bessel_zeros_upto(5.0, 5.0).size == 0
        assert bessel_zeros_upto(np.empty(0), 50.0).size == 0
        with pytest.raises(SpecError):
            bessel_zeros_upto(np.array([1.0, -0.5]), 10.0)
        with pytest.raises(SpecError):
            bessel_zeros_upto(np.ones((2, 2)), 10.0)

    @pytest.mark.parametrize("x_max", [math.inf, -math.inf, math.nan])
    def test_zeros_upto_rejects_non_finite_x_max(self, x_max):
        # inf used to fail inside numpy, and NaN to return no zeros
        with pytest.raises(SpecError):
            bessel_zeros_upto(np.array([0.0, 1.0]), x_max)

    def test_halley_step_leaving_the_bracket_raises(self):
        # end values that contradict J_0 on [1, 4] put the regula-falsi seed
        # on its right end, and Halley from there converges to j_{0,2} = 5.52
        with pytest.raises(NumericalError) as info:
            special._halley_zeros(np.zeros(1), np.array([1.0]), np.array([4.0]),
                                  np.array([0.77]), np.array([-1e-12]))
        assert "nu=0.0 in bracket [1.0, 4.0]" in str(info.value)
        # j_{0,1} lies 1e-7 past the end of [1, j - 1e-7], whose sign change
        # is given falsely: Halley converges on j_{0,1} outside the bracket
        j = jn_zeros(0, 1)[0]
        with pytest.raises(NumericalError) as info:
            special._halley_zeros(np.zeros(1), np.array([1.0]),
                                  np.array([j - 1e-7]), np.array([0.77]),
                                  np.array([-1e-12]))
        assert info.value.stage == "bessel_zeros_upto"
        assert f"nu=0.0 in bracket [1.0, {float(j - 1e-7)!r}]" in str(info.value)
        # inside a true bracket the same solve stops on the zero
        zero = special._halley_zeros(np.zeros(1), np.array([1.0]),
                                     np.array([j + 1e-7]), np.array([0.77]),
                                     np.array([jv(0, j + 1e-7)]))
        assert zero[0] == pytest.approx(j, rel=1e-15)

    def test_jv_evaluations_per_zero_seeded(self, monkeypatch):
        # the same sector: asymptotic seeds need one Halley step (two jv
        # evaluations) for nearly every zero, and interlacing certifies
        # every order but the first of each chunk without a scan
        calls = []

        class Counting:
            def jv(self, v, x):
                calls.append(np.broadcast(v, x).size)
                return jv(v, x)

        monkeypatch.setattr(special, "_sci_special", Counting())
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        spec = analytic_spectrum(make_sector(1.5), 4000)
        assert sum(calls) <= 3 * spec.count

    def test_airy_zeros_match_mpmath(self):
        k = np.arange(1, 16)
        want = np.array([float(mp.airyaizero(int(i))) for i in k])
        np.testing.assert_allclose(special._airy_zeros(k), want, rtol=2e-11, atol=0)

    @pytest.mark.parametrize("nus, interlaced", [
        pytest.param(np.arange(1, 80) / 0.5, True, id="gap-2"),
        pytest.param(np.arange(1, 25) / 0.3, False, id="gap-3.3"),
        pytest.param(np.arange(1, 120)[::-1] / 1.5, False, id="reversed")])
    def test_certificate_taken(self, nus, interlaced, monkeypatch):
        x_max = 80.0
        scanned, bracketed = [], special._bracketed

        def recording(orders, start, n, sel, *args):
            scanned.extend(orders[sel])
            return bracketed(orders, start, n, sel, *args)

        monkeypatch.setattr(special, "_bracketed", recording)
        monkeypatch.setattr(special, "_halley_zeros", _no_fallback)
        got = bessel_zeros_upto(nus, x_max)
        live = nus[special._scan_start(nus) < x_max]
        # interlacing leaves the scan to the first order alone
        assert scanned == ([nus[0]] if interlaced else list(live))
        want = np.concatenate([brentq_zeros_upto(nu, x_max) for nu in nus])
        assert got.size == want.size
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_order_failing_its_certificate_falls_back(self, monkeypatch):
        # the seed of j_{nu,2} for one order is moved onto j_{nu,3}, so
        # Halley lands on the neighbouring zero and the order must be solved
        # from its scan brackets; the order after it loses its interlacing
        # reference and takes its scan certificate
        x_max, bad = 60.0, 7 / 1.5
        nus = np.arange(1, 60) / 1.5
        seeds = special._zero_seeds

        def misplaced(nu, m):
            out = seeds(nu, m)
            hit = (nu == bad) & (m == 2)
            out[hit] = seeds(nu[hit], m[hit] + 1)
            return out

        fallen, halley = [], special._halley_zeros
        scanned, bracketed = [], special._bracketed

        def falling(nu, *args):
            fallen.extend(np.unique(nu))
            return halley(nu, *args)

        def scanning(orders, start, n, sel, *args):
            scanned.extend(orders[sel])
            return bracketed(orders, start, n, sel, *args)

        monkeypatch.setattr(special, "_zero_seeds", misplaced)
        monkeypatch.setattr(special, "_halley_zeros", falling)
        monkeypatch.setattr(special, "_bracketed", scanning)
        got = bessel_zeros_upto(nus, x_max)
        assert fallen == [bad]
        assert scanned[:2] == [nus[0], bad] and nus[7] in scanned
        single = np.concatenate([bessel_zeros_upto(nu, x_max) for nu in nus])
        assert got.tobytes() == single.tobytes()
        want = np.concatenate([brentq_zeros_upto(nu, x_max) for nu in nus])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0, None],
                             ids=["sector-0.5", "sector-1.5", "sector-3", "disk"])
    def test_every_order_recovered_from_its_brackets(self, alpha, monkeypatch):
        # with both certificates rejecting, every order with a zero is
        # solved by _halley_zeros from its scan brackets alone
        x_max = 60.0
        nus = (np.arange(61, dtype=float) if alpha is None
               else _sector_orders(alpha, x_max))
        accepted = bessel_zeros_upto(nus, x_max)
        fallen, halley = [], special._halley_zeros

        def falling(nu, *args):
            fallen.extend(np.unique(nu))
            return halley(nu, *args)

        monkeypatch.setattr(special, "_interlaced",
                            lambda zeros, owner, index, count: np.zeros(count.size, bool))
        monkeypatch.setattr(special, "_bracketed",
                            lambda nus, start, n, sel, *args: np.zeros(sel.size, bool))
        monkeypatch.setattr(special, "_halley_zeros", falling)
        got = bessel_zeros_upto(nus, x_max)
        ref = [brentq_zeros_upto(nu, x_max) for nu in nus]
        assert {nu for nu, r in zip(nus, ref) if r.size} <= set(fallen)
        assert got.size == accepted.size == sum(r.size for r in ref)
        np.testing.assert_allclose(got, accepted, rtol=1e-15, atol=0)
        np.testing.assert_allclose(got, np.concatenate(ref), rtol=1e-14, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(nu=st.floats(0.0, 2000.0), gap=st.floats(0.0, 2.0, exclude_min=True),
           x_max=st.floats(0.0, 2000.0, exclude_min=True))
    def test_counts_match_brentq_oracle(self, nu, gap, x_max):
        # a pair of orders: the first takes its scan certificate, the second
        # interlacing with it (or both their brackets when x_max is below them)
        nus = np.array([nu, nu + gap])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [bessel_zeros_upto(v, x_max) for v in nus]
            pair = bessel_zeros_upto(nus, x_max)
        # the oracle scans from nu, and no zero lies below it
        ref = [brentq_zeros_upto(v, x_max) if v < x_max else np.empty(0) for v in nus]
        assert [g.size for g in got] == [r.size for r in ref]
        assert pair.tobytes() == np.concatenate(got).tobytes()
        if pair.size:
            np.testing.assert_allclose(pair, np.concatenate(ref), rtol=1e-13, atol=0)

    def test_unconverged_zero_raises(self, monkeypatch):
        monkeypatch.setattr(special, "_MAX_STEPS", 1)
        with pytest.raises(NumericalError) as info:
            bessel_zeros_upto(np.array([0.5, 2.5]), 30.0)
        assert info.value.stage == "bessel_zeros_upto"
        assert "nu=" in str(info.value) and "bracket [" in str(info.value)

    @settings(max_examples=40, deadline=None)
    @given(nu=st.floats(1.0, 8.0), x=st.floats(0.5, 35.0))
    def test_recurrence(self, nu, x):
        lhs = bessel_j(nu - 1, x) + bessel_j(nu + 1, x)
        rhs = 2 * nu / x * bessel_j(nu, x)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


_FORK = "fork" in multiprocessing.get_all_start_methods()


def _scan_points(nus, x_max) -> int:
    """The scan points bessel_zeros_upto lays out for these orders."""
    start = special._scan_start(nus)
    return int(np.sum(np.where(
        start < x_max, np.ceil((x_max + special._SCAN_STEP - start) / special._SCAN_STEP),
        0)))


def _sector_orders(alpha, x_max):
    """The orders analytic_spectrum passes for a unit sector."""
    nus = np.arange(1, math.floor(alpha * x_max) + 2) / alpha
    return nus[nus <= x_max]


def _zeros_in_daemon(nus, x_max, queue):
    try:
        queue.put((parallel._pool_size(2), bessel_zeros_upto(nus, x_max).tobytes()))
    except Exception as exc:  # report it, or the caller waits out its timeout
        queue.put((None, repr(exc)))


def _no_pool(*args, **kwargs):
    raise AssertionError("the chunks should run in the caller")


def _no_fallback(*args, **kwargs):
    raise AssertionError("an order fell back to its scan brackets")


class TestParallelZeros:
    """The chunks of orders run on a forked pool with the same bits for any
    worker count and any chunking."""

    # the test calls scan 520 (alpha = 0.5) to 3215 (alpha = 3) points, so
    # chunks of 500 points make 2 to 7 of them
    X_MAX, CHUNK = 60.0, 500

    @pytest.fixture
    def chunk_counts(self, monkeypatch):
        """Items of every fork_map call bessel_zeros_upto makes."""
        counts = []

        def counting(fn, job, count, stage, **kwargs):
            counts.append(count)
            return parallel.fork_map(fn, job, count, stage, **kwargs)

        monkeypatch.setattr(special, "fork_map", counting)
        return counts

    @pytest.mark.parametrize("name", ["sector-0.5", "sector-1.5", "sector-3", "disk"])
    def test_same_bits_for_any_worker_count(self, name, disk, chunk_counts,
                                            monkeypatch):
        dom = disk if name == "disk" else make_sector(float(name.split("-")[1]))
        lam_max = self.X_MAX ** 2
        monkeypatch.setattr(special, "_CHUNK_POINTS", 10 ** 9)
        ref = _closed_form(dom, lam_max).eigenvalues.tobytes()
        assert set(chunk_counts) == {1}
        chunk_counts.clear()
        monkeypatch.setattr(special, "_CHUNK_POINTS", self.CHUNK)
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: workers)
            assert _closed_form(dom, lam_max).eigenvalues.tobytes() == ref
        per_run = chunk_counts[:len(chunk_counts) // 3]
        assert chunk_counts == 3 * per_run and max(per_run) >= 2

    def test_chunks_keep_the_order_given(self, chunk_counts, monkeypatch):
        # highest order first, so the last chunk ends on the order with the
        # most zeros
        nus = _sector_orders(1.5, self.X_MAX)[::-1]
        single = np.concatenate([bessel_zeros_upto(nu, self.X_MAX) for nu in nus])
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(special, "_CHUNK_POINTS", self.CHUNK)
        assert bessel_zeros_upto(nus, self.X_MAX).tobytes() == single.tobytes()
        assert chunk_counts[-1] >= 2

    def test_chunk_of_orders_without_zeros(self, monkeypatch):
        # the second chunk holds only an order whose first zero lies past
        # x_max, so it has nothing to seed, scan or certify
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(special, "_CHUNK_POINTS", 20)
        got = bessel_zeros_upto(np.array([1.0, 100.0]), self.X_MAX)
        assert got.tobytes() == bessel_zeros_upto(1.0, self.X_MAX).tobytes()
        assert got.size == brentq_zeros_upto(1.0, self.X_MAX).size

    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_one_chunk_call_forks_no_worker(self, chunk_counts, monkeypatch):
        nus = _sector_orders(1.5, self.X_MAX)
        points = _scan_points(nus, self.X_MAX)
        ref = bessel_zeros_upto(nus, self.X_MAX).tobytes()
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pool)
        monkeypatch.setattr(special, "_CHUNK_POINTS", points)
        assert bessel_zeros_upto(nus, self.X_MAX).tobytes() == ref
        assert chunk_counts[-1] == 1
        monkeypatch.setattr(special, "_CHUNK_POINTS", points - 1)
        with pytest.raises(AssertionError, match="should run in the caller"):
            bessel_zeros_upto(nus, self.X_MAX)
        assert chunk_counts[-1] == 2

    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_dead_worker_names_stage(self, monkeypatch):
        caller = os.getpid()

        def dies(job, index):
            if os.getpid() != caller and index == 1:
                os._exit(1)
            return np.empty(0)

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(special, "_CHUNK_POINTS", self.CHUNK)
        monkeypatch.setattr(special, "_chunk_zeros", dies)
        with pytest.raises(NumericalError) as info:
            bessel_zeros_upto(_sector_orders(1.5, self.X_MAX), self.X_MAX)
        assert info.value.stage == "bessel_zeros_upto"
        assert "pool broke" in str(info.value)

    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_unconverged_zero_in_a_worker_names_nu_and_bracket(self, chunk_counts,
                                                               monkeypatch):
        # a call large enough to fork at the module's own chunk size
        x_max = 130.0
        nus = _sector_orders(1.5, x_max)
        assert _scan_points(nus, x_max) > special._CHUNK_POINTS
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(special, "_MAX_STEPS", 1)
        with pytest.raises(NumericalError) as info:
            bessel_zeros_upto(nus, x_max)
        assert chunk_counts and chunk_counts[0] > 1
        assert info.value.stage == "bessel_zeros_upto"
        assert "nu=" in str(info.value) and "bracket [" in str(info.value)

    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_daemonic_caller_runs_serially(self, monkeypatch):
        nus = _sector_orders(1.5, self.X_MAX)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(special, "_CHUNK_POINTS", self.CHUNK)
        ref = bessel_zeros_upto(nus, self.X_MAX).tobytes()
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pool)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=_zeros_in_daemon, args=(nus, self.X_MAX, queue),
                           daemon=True)
        proc.start()
        workers, got = queue.get(timeout=120)
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert workers == 1
        assert got == ref

    def test_threaded_caller_runs_serially(self, monkeypatch):
        nus = _sector_orders(1.5, self.X_MAX)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(special, "_CHUNK_POINTS", self.CHUNK)
        ref = bessel_zeros_upto(nus, self.X_MAX).tobytes()
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pool)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            got = bessel_zeros_upto(nus, self.X_MAX).tobytes()
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert got == ref


class TestQuadrature:
    def test_tanh_sinh_endpoint_singularity(self):
        val, _ = tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-12)
        assert val == pytest.approx(2.0, abs=1e-11)

    def test_tanh_sinh_log_singularity(self):
        val, _ = tanh_sinh(lambda x: np.log(x), 0.0, 1.0, tol=1e-12)
        assert val == pytest.approx(-1.0, abs=1e-11)

    def test_gauss_panels_oscillatory(self):
        val, _ = gauss_panels(lambda x: np.sin(10 * x), 0.0, math.pi, tol=1e-13)
        assert val == pytest.approx((1 - math.cos(10 * math.pi)) / 10, abs=1e-12)

    def test_invalid_interval_rejected(self):
        with pytest.raises(SpecError):
            tanh_sinh(lambda x: x, 1.0, 0.0, tol=1e-10)

    def test_gauss_panels_nan_integrand_stops_at_once(self):
        calls = []

        def nan(x):
            calls.append(1)
            return np.full(x.shape, np.nan)

        with pytest.raises(NumericalError, match="not finite") as info:
            gauss_panels(nan, 0.0, 1.0)
        assert info.value.stage == "gauss_panels"
        assert len(calls) <= 2

    def test_tanh_sinh_non_finite_integrand_raises(self):
        with pytest.raises(NumericalError) as info:
            tanh_sinh(lambda x: np.where(x < 0.25, np.nan, 1.0), 0.0, 1.0)
        assert info.value.stage == "tanh_sinh"
