import numpy as np
import pytest

from macsat.channel import ChannelPoint, gauss_hermite
from macsat.densities import DensityGrid, delta_zero
from macsat.ensembles import regular
from macsat.gexit import (
    INF_LLR,
    KERNEL_ORDER,
    LOG2E,
    KernelLattice,
    MapBoundError,
    bp_gexit_value,
    map_bound,
    map_bound_sweep,
)
from macsat.jointde import DeState, FixedPoint, _variable_side, de_run

from conftest import random_density
from oracles import four_symbol_value, gexit_kernel, lift, loop_kernel_lattice, nu

ENS36 = regular(3, 6)


class TestLift:
    def test_probability_vector(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u, v = rng.normal(0, 5, 2)
            f = lift(u, v)
            assert np.all(f > 0)
            assert f.sum() == pytest.approx(1.0)

    def test_infinite_limits(self):
        f = lift(1000.0, 1000.0)
        np.testing.assert_allclose(f, [1, 0, 0, 0], atol=1e-300)
        f = lift(1000.0, -1000.0)
        np.testing.assert_allclose(f, [0, 1, 0, 0], atol=1e-300)


class TestKernel:
    def test_perfect_knowledge_zero(self):
        ch = ChannelPoint(1.1, 0.8)
        assert gexit_kernel(0, np.inf, np.inf, ch) == pytest.approx(0.0, abs=1e-9)

    def test_erasure_kernel_matches_independent_quadrature(self):
        # u = v = 0 lifts to the uniform vector; integrate the same expression
        # with plain Gauss-Hermite at doubled order as the oracle
        ch = ChannelPoint(0.9, 1.3)
        x = 0
        got = gexit_kernel(x, 0.0, 0.0, ch)

        y_off, w = gauss_hermite(257)
        mu = ch.means()
        s = ch.slopes()
        y = mu[x] + y_off
        mix = sum(0.25 * nu(xp, y, ch) for xp in range(4))
        integrand = np.log2(mix / (0.25 * nu(x, y, ch)))
        expect = float((w * y_off * s[x]) @ integrand)
        assert got == pytest.approx(expect, abs=1e-8)

    def test_user_relabeling_invariance(self):
        ch = ChannelPoint(1.2, 0.7)
        ch_swap = ChannelPoint(1.2 * 0.7, 1 / 0.7)  # h1' = h2, h2' = h1
        swap = {0: 0, 1: 2, 2: 1, 3: 3}
        for x in range(4):
            a = gexit_kernel(x, 1.3, -0.4, ch)
            b = gexit_kernel(swap[x], -0.4, 1.3, ch_swap)
            # alpha' = 0.7 alpha along the same ray, so kappa = 0.7 kappa'
            assert a == pytest.approx(0.7 * b, rel=1e-5, abs=1e-9)


def _lattice_grid(n_bins: int) -> DensityGrid:
    return DensityGrid(60.0 / (n_bins - 1), 30.0)


def _reflection(n: int) -> np.ndarray:
    """Index map of R: finite lattice bins reversed, +inf and -inf swapped."""
    return np.concatenate((np.arange(n - 3, -1, -1), [n - 1, n - 2]))


def _loop_rounding(ch: ChannelPoint, x: int) -> float:
    """Rounding the loop oracle carries into its sentinel rows and columns:
    it sums terms as large as 2 INF_LLR with weights c_q, so each loses up to
    2 INF_LLR eps |c_q| (the factorized build keeps them O(1))."""
    y_off, w = gauss_hermite(KERNEL_ORDER)
    return 2.0 * INF_LLR * np.finfo(float).eps * LOG2E * float(np.abs(w * y_off * ch.slopes()[x]).sum())


def _assert_matches_loop(got, ref, scale: float, rounding: float):
    """Finite block within 1e-12 * scale; the sentinel rows and columns, where
    the reference itself is off by up to `rounding`, within that more."""
    err = np.abs(got - ref)
    assert err[:-2, :-2].max() <= 1e-12 * scale
    assert err.max() <= 1e-12 * scale + rounding


LATTICE_CHANNELS = [(a, alpha) for a in (0.5, 1.0, 2.0) for alpha in (0.05, 1.3, 4.0)]


class TestKernelLattice:
    """The factorized two-symbol lattice against the four-symbol loop."""

    @pytest.mark.parametrize("n_bins,bins", [(129, 16), (513, 64)])
    @pytest.mark.parametrize("ratio,alpha", LATTICE_CHANNELS)
    def test_matches_loop_oracle(self, n_bins, bins, ratio, alpha):
        ch = ChannelPoint(alpha, ratio)
        grid = _lattice_grid(n_bins)
        lat = KernelLattice(ch, grid, bins)
        ref, _ = loop_kernel_lattice(ch, grid, bins)
        scale = np.abs(ref).max()
        _assert_matches_loop(lat.kappa0, ref[0], scale, _loop_rounding(ch, 0))
        if ratio == 1.0:
            assert lat.kappa1 is None and not ref[1].any()
        else:
            _assert_matches_loop(lat.kappa1, ref[1], scale, _loop_rounding(ch, 1))

    @pytest.mark.parametrize("ratio,alpha", LATTICE_CHANNELS)
    def test_flip_identity_on_oracle(self, ratio, alpha):
        # negating both bits negates every mean and slope: kappa_3 = R kappa_0 R
        # and kappa_2 = R kappa_1 R, which lets the lattice build two symbols
        ch = ChannelPoint(alpha, ratio)
        ref, _ = loop_kernel_lattice(ch, _lattice_grid(129), 16)
        r = _reflection(ref.shape[1])
        scale = np.abs(ref).max()
        for x, y in ((3, 0), (2, 1)):
            rounding = _loop_rounding(ch, x) + _loop_rounding(ch, y)
            _assert_matches_loop(ref[x], ref[y][np.ix_(r, r)], scale, rounding)

    @pytest.mark.parametrize("ratio,alpha", LATTICE_CHANNELS)
    def test_value_matches_four_symbol_sum(self, ratio, alpha):
        rng = np.random.default_rng(11)
        ch = ChannelPoint(alpha, ratio)
        grid = _lattice_grid(129)
        lat = KernelLattice(ch, grid, 16)
        ref, coarse = loop_kernel_lattice(ch, grid, 16)
        for _ in range(4):
            a = random_density(grid, rng, inf_mass=0.3)
            b = random_density(grid, rng, inf_mass=0.3)
            assert abs(lat.value(a, b) - four_symbol_value(ref, coarse, a, b)) <= 1e-13

    @pytest.mark.parametrize("ratio,alpha", LATTICE_CHANNELS)
    def test_perfect_knowledge_corner(self, ratio, alpha):
        lat = KernelLattice(ChannelPoint(alpha, ratio), _lattice_grid(129), 16)
        n = lat.n
        assert abs(lat.kappa0[n - 2, n - 2]) <= 1e-14  # kappa_0(+inf, +inf)

    def test_sentinel_entries_against_extended_precision(self):
        # the loop oracle is off by ~1e-13 on the sentinel lines; 50-digit
        # arithmetic on the same nodes pins the factorized entries to ~1e-16
        mp = pytest.importorskip("mpmath")
        ch = ChannelPoint(0.05, 0.5)
        lat = KernelLattice(ch, _lattice_grid(129), 16)
        vals = np.concatenate((lat.coarse.centers(), [INF_LLR, -INF_LLR]))
        y_off, w = gauss_hermite(KERNEL_ORDER)
        mu = [mp.mpf(m) for m in ch.means()]

        def exact(x, u, v):
            total = mp.mpf(0)
            for yq, wq in zip(y_off, w):
                y = mu[x] + mp.mpf(yq)
                g = [-((y - m) ** 2) / 2 for m in mu]
                lse = mp.log(mp.exp(u + v + g[0]) + mp.exp(u + g[1]) + mp.exp(v + g[2]) + mp.exp(g[3]))
                total += mp.mpf(wq) * mp.mpf(yq) * (lse - g[x])
            return float(total * mp.mpf(ch.slopes()[x]) / mp.log(2))

        n = lat.n
        with mp.workdps(50):
            for i, j in ((n - 2, n - 2), (n - 1, n - 1), (n - 2, n - 1), (0, n - 2), (n - 1, 5), (7, 9)):
                for x, kappa in ((0, lat.kappa0), (1, lat.kappa1)):
                    ref = exact(x, mp.mpf(vals[i]), mp.mpf(vals[j]))
                    assert abs(kappa[i, j] - ref) <= 1e-14

    @pytest.mark.slow
    def test_matches_loop_oracle_default_lattice(self):
        ch = ChannelPoint(1.3, 2.0)
        grid = _lattice_grid(2049)
        lat = KernelLattice(ch, grid, 128)
        ref, _ = loop_kernel_lattice(ch, grid, 128)
        scale = np.abs(ref).max()
        _assert_matches_loop(lat.kappa0, ref[0], scale, _loop_rounding(ch, 0))
        _assert_matches_loop(lat.kappa1, ref[1], scale, _loop_rounding(ch, 1))


class TestGexitValue:
    def test_decoded_fixed_point_vanishes(self, work_grid):
        from macsat.densities import delta_inf

        ch = ChannelPoint(1.8, 1.0)
        fp = FixedPoint(ch, DeState(delta_inf(work_grid), delta_inf(work_grid)), 0.0, "success", 1)
        assert abs(bp_gexit_value(fp, ENS36)) < 1e-5

    def test_zero_gain_vanishes(self, work_grid):
        ch = ChannelPoint(0.0, 1.0)
        fp = FixedPoint(ch, DeState(delta_zero(work_grid), delta_zero(work_grid)), 0.0, "stall", 1)
        assert abs(bp_gexit_value(fp, ENS36)) < 1e-9

    def test_symmetric_fixed_point_maps_once(self, coarse_grid, monkeypatch):
        # at A = 1 both users share one density, so one GEXIT value needs a
        # single variable-to-function map
        import macsat.jointde as jointde

        fp = de_run(ChannelPoint(1.2, 1.0), ENS36, coarse_grid)
        assert fp.state.a is fp.state.b
        calls = []
        monkeypatch.setattr(
            jointde, "_variable_side", lambda *args: calls.append(1) or _variable_side(*args)
        )
        assert bp_gexit_value(fp, ENS36, bins=16) < 0.0
        assert len(calls) == 1

    @pytest.mark.slow
    def test_fig3_sample_values(self, work_grid):
        # stable-branch values along A = 1 for the (3,6) ensemble
        targets = {0.5: -0.956902, 0.67: -1.0041, 1.0: -0.910315, 1.26: -0.752815}
        for alpha, ref in targets.items():
            fp = de_run(ChannelPoint(alpha, 1.0), ENS36, work_grid)
            g = bp_gexit_value(fp, ENS36)
            assert g == pytest.approx(ref, abs=5e-3)


class TestMapBound:
    def test_synthetic_linear_curve(self):
        # g = -alpha: integral from 0 to b is b^2/2 = 2r -> b = 2 sqrt(r)
        alphas = np.linspace(0, 2.5, 2501)
        samples = [(a, -a) for a in alphas]
        assert map_bound(samples, 0.5) == pytest.approx(2.0 * np.sqrt(0.5), abs=1e-3)

    def test_unreachable_area(self):
        alphas = np.linspace(0, 0.5, 51)
        samples = [(a, -a) for a in alphas]
        with pytest.raises(MapBoundError):
            map_bound(samples, 0.5)

    def test_step_below_the_alpha_rounding_rejected(self, tiny_grid):
        # each alpha is rounded to 12 decimals, so this step never advances
        with pytest.raises(ValueError, match="step"):
            map_bound_sweep(regular(3, 6), 1.0, grid=tiny_grid, step=1e-13, bins=4)


class TestCoupledGexit:
    def test_identical_positions_match_uncoupled_value(self, coarse_grid):
        # w = 1 windows collapse, so both users' folds of identical
        # densities carry exactly the uncoupled GEXIT value
        from dataclasses import replace

        from macsat.coupled import CoupledState
        from macsat.densities import DensityRows
        from macsat.ensembles import CoupledSpec

        ch = ChannelPoint(1.4, 1.0)
        fp = de_run(ch, ENS36, coarse_grid)
        spec = CoupledSpec(3, 6, 3, 1)
        n = spec.L + 1
        state = CoupledState((DensityRows.of([fp.state.a] * n), DensityRows.of([fp.state.b] * n)), spec.L)
        got = bp_gexit_value(replace(fp, state=state), spec)
        assert got == pytest.approx(bp_gexit_value(fp, ENS36), abs=1e-12)

    @pytest.mark.slow
    def test_fig5_coupled_sample_value(self, work_grid):
        # coupled (3,6,16,2) stalled point at alpha = 0.5, A = 1
        from macsat.coupled import coupled_run
        from macsat.ensembles import CoupledSpec

        spec = CoupledSpec(3, 6, 16, 2)
        fp = coupled_run(ChannelPoint(0.5, 1.0), spec, work_grid)
        got = bp_gexit_value(fp, spec)
        assert got == pytest.approx(-0.950897, abs=5e-3)


@pytest.mark.slow
class TestCurve:
    def test_stable_branch_continuity_and_drop(self, work_grid):
        from macsat.gexit import bp_gexit_curve

        alphas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8]
        stable = bp_gexit_curve(ENS36, 1.0, alphas, grid=work_grid)
        assert all(g <= 1e-6 for _, g in stable)
        gs = [g for _, g in stable]
        # far below the threshold the extrinsic densities are the 0-LLR
        # delta, so the curve starts on the uncoded slope -dI_sum/dalpha,
        # which leaves 0 steeply (-0.534 at 0.2); that start is checked by
        # the area theorem of the uncoded values, not by a continuity bound
        z = delta_zero(work_grid)
        assert gs[1] == pytest.approx(KernelLattice(ChannelPoint(0.2), work_grid).value(z, z), abs=1e-9)
        self._check_uncoded_areas()
        assert abs(gs[-1]) < 1e-5  # 1.8 is beyond the threshold
        assert min(gs) < -1.0  # the deep part of the curve

    @staticmethod
    def _check_uncoded_areas():
        # -int_0^alpha g = I(alpha) for the uncoded GEXIT values: both users
        # at the 0-LLR delta give I(X1,X2;Y) (trapezoids of step 0.05), user
        # 2 known gives I(X1;Y|X2) (step 0.01), on and off the symmetric ray
        from macsat.channel import mac_mutual_infos
        from macsat.densities import delta_inf

        grid = DensityGrid(60.0 / 512, 30.0)
        z, known = delta_zero(grid), delta_inf(grid)
        alphas = np.round(np.arange(0.0, 2.0 + 1e-9, 0.01), 12)

        def area(g, x):
            return np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(x))))

        for ratio in (0.5, 1.0, 2.0):
            values = []
            for a in alphas:
                lattice = KernelLattice(ChannelPoint(a, ratio), grid, 64)
                values.append((lattice.value(z, z), lattice.value(z, known)))
            g_sum, g_user = np.array(values).T
            infos = np.array([mac_mutual_infos(ChannelPoint(a, ratio)) for a in alphas])
            every = slice(None, None, 5)
            assert np.abs(area(g_sum[every], alphas[every]) + infos[every, 2]).max() < 2e-3
            assert np.abs(area(g_user, alphas) + infos[:, 0]).max() < 5e-5
