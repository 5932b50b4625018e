import numpy as np
import pytest

from macsat.channel import ChannelPoint, FnOperator, fn_operator
from macsat.coupled import (
    CoupledState,
    _Engine,
    coupled_run,
)
from macsat.densities import (
    DensityGrid,
    conv_vn,
    delta_inf,
    delta_zero,
    error_prob,
    mix,
    power_cn,
    power_vn,
)
from macsat.ensembles import CoupledSpec, regular
from macsat.jointde import bp_threshold, de_iterate, initial_state

from conftest import random_density
from oracles import total_mass, window_g, window_gamma

SPEC = CoupledSpec(3, 6, 4, 2)


def zero_start(grid, spec, shared=True):
    """The no-knowledge start; with shared=False every position of each user
    is its own object, so coupled DE runs the full chain even at A = 1."""
    n = spec.n_positions
    if shared:
        d0 = delta_zero(grid)
        return CoupledState((d0,) * n, (d0,) * n, spec.L)
    a, b = (tuple(delta_zero(grid) for _ in range(n)) for _ in range(2))
    return CoupledState(a, b, spec.L)


def iterate(spec, ch, start, n) -> CoupledState:
    """n Jacobi sweeps of the engine coupled_run builds for this start."""
    eng = _Engine(spec, start, ch)
    for _ in range(n):
        eng.iterate()
    return eng.full_state()


class TestWindows:
    def test_w1_collapses(self, tiny_grid):
        rng = np.random.default_rng(0)
        x = random_density(tiny_grid, rng)
        got = window_g([x], 3, 6, 1)
        expect = power_vn(power_cn(x, 5), 2)
        np.testing.assert_allclose(got.mass, expect.mass, atol=1e-13)

    def test_all_inf_propagates(self, tiny_grid):
        dinf = delta_inf(tiny_grid)
        assert window_g([dinf, dinf, dinf], 3, 6, 2).mass_pos_inf == 1.0
        assert window_gamma([dinf, dinf, dinf], 3, 6, 2).mass_pos_inf == 1.0

    def test_w2_hand_expansion(self):
        # window (delta_inf, x, delta_inf) at w=2: the two inner averages are
        # (inf+x)/2 and (x+inf)/2, so both check-side terms coincide
        grid = DensityGrid(0.25, 8.0)
        rng = np.random.default_rng(1)
        x = random_density(grid, rng)
        dinf = delta_inf(grid)
        inner = power_cn(mix([dinf, x], [0.5, 0.5]), 5)
        expect_g = power_vn(inner, 2)
        expect_gamma = power_vn(inner, 3)
        got_g = window_g([dinf, x, dinf], 3, 6, 2)
        got_gamma = window_gamma([dinf, x, dinf], 3, 6, 2)
        np.testing.assert_allclose(got_g.mass, expect_g.mass, atol=1e-13)
        assert got_g.mass_pos_inf == pytest.approx(expect_g.mass_pos_inf, abs=1e-13)
        np.testing.assert_allclose(got_gamma.mass, expect_gamma.mass, atol=1e-13)

    def test_window_size_checked(self, tiny_grid):
        with pytest.raises(ValueError):
            window_g([delta_inf(tiny_grid)], 3, 6, 2)


class TestIterate:
    def test_symmetries_at_unit_ratio(self, coarse_grid):
        # the full chain at A = 1 keeps b = a and the mirror symmetry exactly
        start = zero_start(coarse_grid, SPEC, shared=False)
        st = iterate(SPEC, ChannelPoint(1.5, 1.0), start, 5)
        n = len(st.a_vec)
        for i in range(n):
            assert np.array_equal(st.a_vec[i].mass, st.b_vec[i].mass)
            assert np.array_equal(st.a_vec[i].mass, st.a_vec[n - 1 - i].mass)

    def test_symmetric_engine_matches_general(self, coarse_grid):
        ch = ChannelPoint(1.5, 1.0)
        full_start = zero_start(coarse_grid, SPEC, shared=False)
        assert _Engine(SPEC, zero_start(coarse_grid, SPEC), ch).symmetric
        assert not _Engine(SPEC, full_start, ch).symmetric
        full = iterate(SPEC, ch, full_start, 5)
        sym = iterate(SPEC, ch, zero_start(coarse_grid, SPEC), 5)
        for a, b in zip(full.a_vec + full.b_vec, sym.a_vec + sym.b_vec):
            assert np.array_equal(a.mass, b.mass)

    def test_w1_positions_decouple(self, coarse_grid):
        spec1 = CoupledSpec(3, 6, 2, 1)
        ch = ChannelPoint(1.5, 1.0)
        st = iterate(spec1, ch, zero_start(coarse_grid, spec1), 4)
        ust = initial_state(coarse_grid)
        for _ in range(4):
            ust = de_iterate(ust, ch, regular(3, 6))
        for d in st.a_vec:
            assert np.abs(d.mass - ust.a.mass).max() < 1e-13

    def test_update_matches_window_ops(self, coarse_grid):
        # one engine step equals the displayed equation evaluated directly,
        # for both users at every position, off the symmetric ray
        ch = ChannelPoint(1.4, 0.7)
        rng = np.random.default_rng(2)
        a = tuple(random_density(coarse_grid, rng, symmetric=True) for _ in range(9))
        b = tuple(random_density(coarse_grid, rng, symmetric=True) for _ in range(9))
        new = iterate(SPEC, ch, CoupledState(a, b, 4), 1)
        dinf = delta_inf(coarse_grid)

        def window(vec, i):
            return [vec[p + 4] if abs(p) <= 4 else dinf for p in range(i - 1, i + 2)]

        for user, own, partner, got in ((1, a, b, new.a_vec), (2, b, a, new.b_vec)):
            fn = fn_operator(coarse_grid, user, ch)
            for i in range(-4, 5):
                expect = conv_vn(
                    fn.apply(window_gamma(window(partner, i), 3, 6, 2)),
                    window_g(window(own, i), 3, 6, 2),
                )
                np.testing.assert_allclose(got[i + 4].mass, expect.mass, rtol=0, atol=1e-12)
                assert got[i + 4].mass_pos_inf == pytest.approx(expect.mass_pos_inf, abs=1e-12)
                assert got[i + 4].mass_neg_inf == pytest.approx(expect.mass_neg_inf, abs=1e-12)


    def test_check_windows_computed_once_per_user(self, coarse_grid, monkeypatch):
        # both users' updates read each user's check windows from one memo,
        # so a sweep box-plus'es each window c in [-L, L + w - 1] once
        import macsat.coupled as coupled

        calls = []
        monkeypatch.setattr(coupled, "power_cn", lambda *args: calls.append(1) or power_cn(*args))
        rng = np.random.default_rng(3)
        a, b = (tuple(random_density(coarse_grid, rng) for _ in range(9)) for _ in range(2))
        iterate(SPEC, ChannelPoint(1.4, 0.7), CoupledState(a, b, 4), 1)
        assert len(calls) == 2 * (2 * SPEC.L + SPEC.w)

    def test_symmetric_fold_powers_once_per_position(self, coarse_grid, monkeypatch):
        # on the symmetric fold the partner's (t, g) is the own pair, so a
        # sweep takes one power_vn per updated position 0..L
        import macsat.coupled as coupled

        calls = []
        monkeypatch.setattr(coupled, "power_vn", lambda *args: calls.append(1) or power_vn(*args))
        iterate(SPEC, ChannelPoint(1.4, 1.0), zero_start(coarse_grid, SPEC), 1)
        assert len(calls) == SPEC.L + 1

    def test_full_chain_powers_once_per_user_and_position(self, coarse_grid, monkeypatch):
        # off the symmetric ray, a user's update reads its partner's g from
        # the partner's own update, so a sweep takes one power_vn per user
        # and position, not two
        import macsat.coupled as coupled

        calls = []
        monkeypatch.setattr(coupled, "power_vn", lambda *args: calls.append(1) or power_vn(*args))
        rng = np.random.default_rng(4)
        a, b = (tuple(random_density(coarse_grid, rng) for _ in range(9)) for _ in range(2))
        iterate(SPEC, ChannelPoint(1.4, 0.7), CoupledState(a, b, 4), 1)
        assert len(calls) == 2 * SPEC.n_positions

    def test_decoded_state_is_reused_across_sweeps(self, monkeypatch):
        # once a sweep reproduces every position, the next one reads all of
        # them from the memo: no function-node column, the same objects back
        grid = DensityGrid(30 / 64, 30.0)
        ch = ChannelPoint(1.8, 0.7)
        fp = coupled_run(ch, SPEC, grid)
        assert fp.decoded
        eng = _Engine(SPEC, fp.state, ch)
        columns = []
        apply = FnOperator.apply
        monkeypatch.setattr(
            FnOperator, "apply", lambda op, x: columns.append(len(x)) or apply(op, x)
        )
        first = eng.iterate().vecs
        # one batched apply per user, a column per position
        assert columns == [SPEC.n_positions] * 2
        columns.clear()
        second = eng.iterate().vecs
        assert columns == []
        assert all(x is y for u, v in zip(first, second) for x, y in zip(u, v))


class TestRun:
    def test_wave_decodes_between_thresholds(self, coarse_grid):
        spec = CoupledSpec(3, 6, 8, 2)
        profiles = []
        fp = coupled_run(
            ChannelPoint(1.45, 1.0),
            spec,
            coarse_grid,
            max_iters=3000,
            profile=lambda it, ea, eb: profiles.append((it, ea, eb)),
        )
        assert fp.decoded
        # boundary decodes first: mid-run error profile rises toward the center
        mid = profiles[len(profiles) // 3]
        ent = mid[1]
        left = ent[: spec.L + 1]
        assert left[0] <= left[-1] + 1e-12

    def test_spatial_monotonicity(self, coarse_grid):
        spec = CoupledSpec(3, 6, 8, 2)
        fp = coupled_run(ChannelPoint(1.2, 1.0), spec, coarse_grid, max_iters=80)
        prof = [error_prob(d) for d in fp.state.a_vec]
        # |i| >= |j| implies error_prob(a_i) <= error_prob(a_j)
        for i in range(spec.L):
            assert prof[i] <= prof[i + 1] + 1e-9  # left half ascending
            assert prof[2 * spec.L - i] <= prof[2 * spec.L - i - 1] + 1e-9

    def test_freeze_ensures_exact_deltas(self, coarse_grid):
        spec = CoupledSpec(3, 6, 4, 2)
        fp = coupled_run(ChannelPoint(1.8, 1.0), spec, coarse_grid)
        assert fp.decoded
        assert all(error_prob(d) == 0.0 for d in fp.state.a_vec)

    def test_profile_rows(self, coarse_grid):
        # each callback gets one entropy per position (2L+1) for each user
        spec = CoupledSpec(3, 6, 2, 2)
        rows = []
        fp = coupled_run(
            ChannelPoint(1.9, 1.0),
            spec,
            coarse_grid,
            profile=lambda it, ea, eb: rows.append((it, ea, eb)),
        )
        assert [it for it, _, _ in rows] == list(range(1, fp.iterations + 1))
        assert all(len(ea) == len(eb) == spec.n_positions == 5 for _, ea, eb in rows)

    def test_general_path_nonunit_ratio(self, coarse_grid):
        spec = CoupledSpec(3, 6, 2, 2)
        fp = coupled_run(ChannelPoint(2.2, 0.5), spec, coarse_grid, max_iters=2000)
        assert fp.decoded

    @pytest.mark.parametrize("alpha", [1.6, 1.1])
    def test_symmetric_fold_matches_full_chain_run(self, coarse_grid, alpha):
        # a start of distinct objects runs the full chain at A = 1; the
        # half-chain fold must halt alike on the same densities
        ch = ChannelPoint(alpha, 1.0)
        half = coupled_run(ch, SPEC, coarse_grid)
        full = coupled_run(ch, SPEC, coarse_grid, start=zero_start(coarse_grid, SPEC, shared=False))
        assert (half.halt, half.iterations) == (full.halt, full.iterations)
        for x, y in zip(half.state.a_vec + half.state.b_vec, full.state.a_vec + full.state.b_vec):
            assert x.mass.tobytes() == y.mass.tobytes()
            assert (x.mass_pos_inf, x.mass_neg_inf) == (y.mass_pos_inf, y.mass_neg_inf)

    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    def test_zero_iterations_returns_start(self, coarse_grid, ratio):
        fp = coupled_run(ChannelPoint(1.5, ratio), SPEC, coarse_grid, max_iters=0)
        assert (fp.halt, fp.iterations, fp.decoded) == ("max_iters", 0, False)
        assert fp.residual == np.inf
        assert all(d is fp.state.a_vec[0] for d in fp.state.a_vec + fp.state.b_vec)


@pytest.mark.slow
class TestWaveStability:
    def test_wave_never_retreats(self, coarse_grid):
        # regression: folding conv tails to -inf used to grow unrecoverable
        # wrong-certainty at the front and collapse the wave periodically
        spec = CoupledSpec(3, 6, 16, 2)
        prev = None
        eng = _Engine(spec, zero_start(coarse_grid, spec), ChannelPoint(1.35, 1.0))
        decoded = False
        for _ in range(2500):
            errs = np.array([error_prob(d) for d in eng.iterate().full_state().a_vec])
            if prev is not None:
                assert np.all(errs <= prev + 1e-9)
            prev = errs
            if errs.max() < 1e-10:
                decoded = True
                break
        assert decoded


@pytest.mark.slow
class TestThreshold:
    def test_w1_equals_uncoupled(self):
        # w = 1 decouples, so the coupled threshold equals the uncoupled one
        grid = DensityGrid(30 / 512, 30.0)
        spec1 = CoupledSpec(3, 6, 1, 1)
        res_c = bp_threshold(spec1, 1.0, tol=4e-3, grid=grid, bracket=(1.2, 2.2))
        res_u = bp_threshold(regular(3, 6), 1.0, tol=4e-3, grid=grid, bracket=(1.2, 2.2))
        assert res_c.alpha == pytest.approx(res_u.alpha, abs=0.01)

    def test_coupled_3_6_8_2_smoke(self, coarse_grid):
        # L = 8 at a coarse grid: threshold noticeably below uncoupled 1.69
        res = bp_threshold(
            CoupledSpec(3, 6, 8, 2), 1.0, tol=0.01, grid=coarse_grid, bracket=(1.0, 2.0)
        )
        assert 1.2 < res.alpha < 1.45


class TestExtrinsic:
    def test_profile_shapes(self, coarse_grid):
        fp = coupled_run(ChannelPoint(1.4, 1.0), SPEC, coarse_grid, max_iters=1)
        prof = fp.state.extrinsic(SPEC)
        assert len(prof) == SPEC.n_positions
        ga, gb = prof[SPEC.L]  # center
        assert abs(total_mass(ga) - 1.0) < 1e-9

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_profile_matches_window_gamma(self, coarse_grid, symmetric):
        # Gamma of every window, bit for bit; a symmetric state is read on
        # half the chain of one user and the objects are shared
        rng = np.random.default_rng(4)
        a = [random_density(coarse_grid, rng, symmetric=True) for _ in range(9)]
        if symmetric:
            a = a[:4] + a[4::-1]
            state = CoupledState(tuple(a), tuple(a), 4)
        else:
            b = tuple(random_density(coarse_grid, rng, symmetric=True) for _ in range(9))
            state = CoupledState(tuple(a), b, 4)
        dinf = delta_inf(coarse_grid)
        prof = state.extrinsic(SPEC)
        for i in range(-4, 5):
            for user, vec in enumerate((state.a_vec, state.b_vec)):
                xs = [vec[p + 4] if abs(p) <= 4 else dinf for p in range(i - 1, i + 2)]
                expect = window_gamma(xs, 3, 6, 2)
                assert prof[i + 4][user].mass.tobytes() == expect.mass.tobytes()
                assert prof[i + 4][user].mass_pos_inf == expect.mass_pos_inf
        if symmetric:
            assert all(ga is gb for ga, gb in prof)
            assert all(prof[4 - i][0] is prof[4 + i][0] for i in range(5))
