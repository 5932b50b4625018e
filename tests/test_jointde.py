from functools import partial

import numpy as np
import pytest

from macsat.channel import ChannelPoint, ray_boundary
from macsat.coupled import coupled_run
from macsat.densities import DensityGrid, delta_zero, entropy, error_prob
from macsat.ensembles import CoupledSpec, regular
from macsat.jointde import (
    STALL_PATIENCE,
    BracketError,
    DeState,
    _variable_side,
    bp_threshold,
    de_iterate,
    de_run,
    initial_state,
    threshold_alpha,
)

ENS36 = regular(3, 6)


class TestIteration:
    def test_user_symmetry_exact(self, coarse_grid):
        # A = 1 with equal codes: both users follow bit-identical trajectories
        ch = ChannelPoint(1.5, 1.0)
        st = initial_state(coarse_grid)
        for _ in range(8):
            st = de_iterate(st, ch, ENS36)
            assert np.array_equal(st.a.mass, st.b.mass)
            assert st.a.mass_pos_inf == st.b.mass_pos_inf

    @pytest.mark.parametrize("genie", [False, True])
    def test_exchange_reduction_matches_two_user_update(self, coarse_grid, genie):
        # a shared state takes the one-user path; distinct objects take the
        # two-user path, which the reduction must reproduce bit for bit
        ch = ChannelPoint(1.55, 1.0)
        shared = initial_state(coarse_grid)
        split = DeState(delta_zero(coarse_grid), delta_zero(coarse_grid))
        for _ in range(6):
            shared = de_iterate(shared, ch, ENS36, genie=genie)
            split = de_iterate(split, ch, ENS36, genie=genie)
            assert shared.a is shared.b and split.a is not split.b
            for want in (split.a, split.b):
                assert np.array_equal(shared.a.mass, want.mass)
                assert shared.a.mass_pos_inf == want.mass_pos_inf
                assert shared.a.mass_neg_inf == want.mass_neg_inf

    @pytest.mark.parametrize("ratio,calls", [(1.0, 5), (0.8, 10)])
    def test_rho_squared_once_per_user(self, coarse_grid, monkeypatch, ratio, calls):
        # per updated user: rho^2 once, rho^3 = rho * rho^2 and rho^2 each
        # from the 0-delta start of a power, and the update's own product
        import macsat.densities as densities
        import macsat.jointde as jointde

        ch = ChannelPoint(1.5, ratio)
        st = de_iterate(initial_state(coarse_grid), ch, ENS36)
        seen = []
        conv_vn = densities.conv_vn

        def counted(a, b):
            seen.append(1)
            return conv_vn(a, b)

        monkeypatch.setattr(densities, "conv_vn", counted)
        monkeypatch.setattr(jointde, "conv_vn", counted)
        de_iterate(st, ch, ENS36)
        assert len(seen) == calls

    def test_error_prob_monotone_from_erasure(self, coarse_grid):
        ch = ChannelPoint(1.3, 0.8)
        st = initial_state(coarse_grid)
        prev_a, prev_b = 0.5, 0.5
        for _ in range(30):
            st = de_iterate(st, ch, ENS36)
            ea, eb = error_prob(st.a), error_prob(st.b)
            assert ea <= prev_a + 1e-9
            assert eb <= prev_b + 1e-9
            prev_a, prev_b = ea, eb


class TestRun:
    def test_zero_gain_stalls_at_full_entropy(self, coarse_grid):
        fp = de_run(ChannelPoint(0.0, 1.0), ENS36, coarse_grid, max_iters=50)
        assert not fp.decoded
        assert entropy(fp.state.a) == pytest.approx(1.0, abs=1e-9)

    def test_above_threshold_decodes(self, coarse_grid):
        fp = de_run(ChannelPoint(1.8, 1.0), ENS36, coarse_grid)
        assert fp.decoded and fp.halt == "success"
        assert error_prob(fp.state.a) < 1e-10 and error_prob(fp.state.b) < 1e-10

    def test_below_threshold_stalls(self, coarse_grid):
        fp = de_run(ChannelPoint(1.55, 1.0), ENS36, coarse_grid)
        assert not fp.decoded and fp.halt == "stall"
        assert error_prob(fp.state.a) > 1e-2

    def test_fixed_point_residual(self, coarse_grid):
        fp = de_run(ChannelPoint(1.55, 1.0), ENS36, coarse_grid)
        st = fp.state
        nxt = de_iterate(st, fp.channel, ENS36)
        drift = abs(entropy(nxt.a) + entropy(nxt.b) - entropy(st.a) - entropy(st.b))
        assert drift < 1e-8

    @pytest.mark.parametrize("coupled", [False, True], ids=["uncoupled", "coupled"])
    def test_warm_start_counts_own_iterations(self, coarse_grid, coupled):
        # a run warm-started from a stalled fixed point reports the steps it
        # spent itself: the stall needs STALL_PATIENCE quiet steps again
        ch = ChannelPoint(1.2, 1.0)
        if coupled:
            run = partial(coupled_run, ch, CoupledSpec(3, 6, 4, 2), coarse_grid)
        else:
            run = partial(de_run, ch, ENS36, coarse_grid)
        cold = run()
        assert cold.halt == "stall" and cold.iterations > STALL_PATIENCE
        warm = run(start=cold.state)
        assert (warm.halt, warm.iterations) == ("stall", STALL_PATIENCE)
        assert run(start=cold.state, max_iters=3).iterations == 3

    def test_each_run_builds_its_own_two_operators(self, monkeypatch):
        # the operator cache holds one gain pair: a run off the ray builds
        # both users' operators once, even after a run on the ray left one
        # behind, and keeps no earlier run's operators
        import macsat.channel as channel

        grid = DensityGrid(30 / 32, 30.0)
        builds = []
        build = channel.FnOperator
        monkeypatch.setattr(channel, "_FN_CACHE", {})
        monkeypatch.setattr(channel, "FnOperator", lambda *args: builds.append(1) or build(*args))
        de_run(ChannelPoint(1.6, 1.0), ENS36, grid)
        for alpha in (1.4, 1.7, 2.0):
            builds.clear()
            ch = ChannelPoint(alpha, 0.8)
            de_run(ch, ENS36, grid)
            assert len(builds) == 2
            assert set(channel._FN_CACHE) == {(grid, ch.h1, ch.h2), (grid, ch.h2, ch.h1)}

    def test_genie_is_single_user(self, coarse_grid):
        # the genie channel is exactly the one the analytic density describes
        from macsat.channel import bawgn_density

        ch = ChannelPoint(1.3, 1.0)
        st = initial_state(coarse_grid)
        st = de_iterate(st, ch, ENS36, genie=True)
        ref = bawgn_density(coarse_grid, 1.3)
        ca = np.cumsum(st.a.mass)
        cr = np.cumsum(ref.mass)
        assert np.abs(ca - cr).max() < 0.01


class TestThreshold:
    def test_threshold_36_smoke(self, coarse_grid):
        # coarse-grid sanity: the true value is 1.69 at fine grids
        res = bp_threshold(ENS36, 1.0, tol=0.02, grid=coarse_grid, bracket=(1.0, 2.5))
        assert res.alpha == pytest.approx(1.69, abs=0.08)
        alphas = [a for a, _ in res.probes]
        outcomes = dict(res.probes)
        for a1 in alphas:
            for a2 in alphas:
                if a1 < a2 and outcomes[a1]:
                    assert outcomes[a2]

    def test_genie_threshold_single_user(self):
        # (3,6) single-user BIAWGN threshold: 1/0.881 ~ 1.135
        grid = DensityGrid(30 / 512, 30.0)
        res = bp_threshold(ENS36, 1.0, tol=5e-3, grid=grid, genie=True, bracket=(0.8, 1.6))
        assert res.alpha == pytest.approx(1.135, abs=0.015)

    def test_bracket_errors(self, coarse_grid):
        with pytest.raises(BracketError):
            bp_threshold(ENS36, 1.0, tol=0.05, grid=coarse_grid, bracket=(2.5, 3.0))
        with pytest.raises(BracketError):
            bp_threshold(ENS36, 1.0, tol=0.05, grid=coarse_grid, bracket=(0.0, 1.2))

    def test_success_monotone_in_alpha(self, coarse_grid):
        lo = de_run(ChannelPoint(1.75, 1.0), ENS36, coarse_grid)
        hi = de_run(ChannelPoint(1.95, 1.0), ENS36, coarse_grid)
        assert lo.decoded and hi.decoded
        assert hi.iterations <= lo.iterations


@pytest.mark.slow
class TestAcpr:
    def test_mirrored_rays(self, coarse_grid):
        job = partial(threshold_alpha, ENS36, tol=0.02, grid=coarse_grid)
        pts = ray_boundary(job, [0.7, 1 / 0.7])
        (h1a, h2a), (h1b, h2b) = pts
        assert h1a == pytest.approx(h2b, abs=0.06)
        assert h2a == pytest.approx(h1b, abs=0.06)

    def test_outside_capacity(self, coarse_grid):
        from macsat.channel import mac_acpr_point

        res = bp_threshold(ENS36, 1.0, tol=0.02, grid=coarse_grid, bracket=(1.0, 2.5))
        assert res.alpha >= mac_acpr_point((0.5, 0.5), 1.0)


class TestVfDensity:
    def test_regular_vf_is_full_aggregate(self, tiny_grid):
        from macsat.densities import conv_vn, poly_cn

        rng = np.random.default_rng(5)
        from conftest import random_density

        a = random_density(tiny_grid, rng)
        rho_a = poly_cn(ENS36.rho_coeffs, a)
        expect = conv_vn(conv_vn(rho_a, rho_a), rho_a)
        got = _variable_side(ENS36, a, False)[0]
        np.testing.assert_allclose(got.mass, expect.mass, atol=1e-12)
