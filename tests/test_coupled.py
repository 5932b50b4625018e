import hashlib
import struct

import numpy as np
import pytest

from macsat.channel import ChannelPoint, FnOperator, fn_operator
from macsat.coupled import (
    CoupledState,
    _Engine,
    coupled_run,
)
from macsat.densities import (
    BoxPlusTable,
    DensityGrid,
    DensityRows,
    conv_vn,
    delta_inf,
    delta_zero,
    error_prob,
    mix,
    power_cn_rows,
    power_vn_rows,
)
from macsat.ensembles import CoupledSpec, regular
from macsat.jointde import bp_threshold, de_iterate, initial_state

from conftest import random_density
from oracles import power_cn, power_vn, total_mass, window_g, window_gamma

SPEC = CoupledSpec(3, 6, 4, 2)


def zero_start(grid, spec, users=1):
    """The no-knowledge start, 0-LLR deltas over positions 0..L: the
    symmetric fold or, with users=2, both users' folds, which coupled DE
    runs as two users even at A = 1."""
    zeros = DensityRows.of([delta_zero(grid)] * (spec.L + 1))
    return CoupledState((zeros,) * users, spec.L)


def fold_state(a, b, L) -> CoupledState:
    """Both users' folds of per-position densities a and b over 0..L."""
    return CoupledState((DensityRows.of(a), DensityRows.of(b)), L)


def random_folds(grid, L, seed, symmetric=False) -> tuple:
    """Two random folds over positions 0..L."""
    rng = np.random.default_rng(seed)
    return tuple([random_density(grid, rng, symmetric=symmetric) for _ in range(L + 1)] for _ in range(2))


def chains(state) -> tuple:
    """Each user's densities over positions -L..L."""
    return state.unfold(state.rows)


def iterate(spec, ch, start, n) -> CoupledState:
    """n Jacobi sweeps of the engine coupled_run builds for this start."""
    eng = _Engine(spec, start, ch)
    for _ in range(n):
        eng.iterate()
    return eng.state


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
        # both users' folds at A = 1 keep b = a exactly (the mirror
        # symmetry is the fold's own)
        start = zero_start(coarse_grid, SPEC, users=2)
        a, b = iterate(SPEC, ChannelPoint(1.5, 1.0), start, 5).rows
        assert np.array_equal(a.mass, b.mass) and np.array_equal(a.pos, b.pos)
        assert not a.inf.all()

    def test_symmetric_engine_matches_general(self, coarse_grid):
        # the shape of the state picks the users: a symmetric fold runs as
        # one stack on the ray and as both users' folds off it
        ch = ChannelPoint(1.5, 1.0)
        assert len(_Engine(SPEC, zero_start(coarse_grid, SPEC), ch).state.rows) == 1
        off = _Engine(SPEC, zero_start(coarse_grid, SPEC), ChannelPoint(1.5, 0.9)).state
        assert len(off.rows) == 2 and all(len(rows) == SPEC.L + 1 for rows in off.rows)
        both = iterate(SPEC, ch, zero_start(coarse_grid, SPEC, users=2), 5)
        sym = iterate(SPEC, ch, zero_start(coarse_grid, SPEC), 5)
        assert (len(both.rows), len(sym.rows)) == (2, 1)
        for a, b in zip(sum(chains(both), ()), sum(chains(sym), ())):
            assert np.array_equal(a.mass, b.mass)

    def test_w1_positions_decouple(self, coarse_grid):
        spec1 = CoupledSpec(3, 6, 2, 1)
        ch = ChannelPoint(1.5, 1.0)
        st = iterate(spec1, ch, zero_start(coarse_grid, spec1), 4)
        ust = initial_state(coarse_grid)
        for _ in range(4):
            ust = de_iterate(ust, ch, regular(3, 6))
        for d in chains(st)[0]:
            assert np.abs(d.mass - ust.a.mass).max() < 1e-13

    @staticmethod
    def _check_sweep_against_window_ops(spec, ch, grid, seed):
        # one sweep from random mirror-symmetric chains (both users' folds)
        # equals the displayed equation evaluated directly on the whole
        # chain, for both users at every position -L..L
        L, w = spec.L, spec.w
        start = fold_state(*random_folds(grid, L, seed, symmetric=True), L)
        a, b = chains(start)
        new_a, new_b = chains(iterate(spec, ch, start, 1))
        dinf = delta_inf(grid)

        def window(vec, i):
            return [vec[p + L] if abs(p) <= L else dinf for p in range(i - w + 1, i + w)]

        for user, own, partner, got in ((1, a, b, new_a), (2, b, a, new_b)):
            fn = fn_operator(grid, user, ch)
            for i in range(-L, L + 1):
                expect = conv_vn(
                    fn.apply(window_gamma(window(partner, i), spec.l, spec.r, w)),
                    window_g(window(own, i), spec.l, spec.r, w),
                )
                np.testing.assert_allclose(got[i + L].mass, expect.mass, rtol=0, atol=1e-12)
                assert got[i + L].mass_pos_inf == pytest.approx(expect.mass_pos_inf, abs=1e-12)

    def test_update_matches_window_ops(self, coarse_grid):
        self._check_sweep_against_window_ops(SPEC, ChannelPoint(1.4, 0.7), coarse_grid, 2)

    def test_w3_off_ray_update_matches_window_ops(self):
        # three-term windows off the ray, on 65 bins
        grid = DensityGrid(30 / 32, 30.0)
        self._check_sweep_against_window_ops(CoupledSpec(3, 6, 4, 3), ChannelPoint(1.4, 0.9), grid, 6)


    def test_check_windows_computed_once_per_user(self, coarse_grid, monkeypatch):
        # a sweep box-plus'es each user's windows c in [0, L + w - 1] once,
        # as one stack, before any update reads them; no window here is all
        # +inf deltas
        import macsat.coupled as coupled

        calls = []
        monkeypatch.setattr(coupled, "power_cn_rows", lambda x, n: calls.append(len(x)) or power_cn_rows(x, n))
        iterate(SPEC, ChannelPoint(1.4, 0.7), fold_state(*random_folds(coarse_grid, 4, 3), 4), 1)
        assert calls == [SPEC.L + SPEC.w] * 2

    def test_symmetric_fold_powers_once_per_position(self, coarse_grid, monkeypatch):
        # on the symmetric fold the partner's (t, g) is the own pair, so a
        # sweep takes one power_vn per updated position 0..L, in one stack
        import macsat.coupled as coupled

        calls = []
        monkeypatch.setattr(coupled, "power_vn_rows", lambda x, n: calls.append(len(x)) or power_vn_rows(x, n))
        iterate(SPEC, ChannelPoint(1.4, 1.0), zero_start(coarse_grid, SPEC), 1)
        assert calls == [SPEC.L + 1]

    def test_full_chain_powers_once_per_user_and_position(self, coarse_grid, monkeypatch):
        # off the symmetric ray, a user's update reads its partner's g from
        # the partner's own update, so a sweep takes one power_vn per user
        # and position 0..L of its fold, not two
        import macsat.coupled as coupled

        calls = []
        monkeypatch.setattr(coupled, "power_vn_rows", lambda x, n: calls.append(len(x)) or power_vn_rows(x, n))
        iterate(SPEC, ChannelPoint(1.4, 0.7), fold_state(*random_folds(coarse_grid, 4, 4), 4), 1)
        assert calls == [SPEC.L + 1] * 2

    def test_decoded_state_is_reused_across_sweeps(self, monkeypatch):
        # a decoded run ends with every position frozen to the +inf delta, so
        # every own g is the +inf delta: no sweep sends a function-node
        # column, and each hands the decoded state back as it came, a stack
        # per user whose rows all read one zero mass row
        grid = DensityGrid(30 / 64, 30.0)
        ch = ChannelPoint(1.8, 0.7)
        fp = coupled_run(ch, SPEC, grid)
        assert fp.decoded

        def decoded(state):
            return all(rows.inf.all() and rows.mass.strides[0] == 0 for rows in state.rows)

        assert decoded(fp.state)
        eng = _Engine(SPEC, fp.state, ch)
        columns = []
        apply = FnOperator.apply
        monkeypatch.setattr(
            FnOperator, "apply", lambda op, x: columns.append(len(x)) or apply(op, x)
        )
        for _ in range(2):
            state = eng.iterate().state
            assert columns == []
            assert len(state.rows) == 2 and decoded(state)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["fold", "full-chain"])
    def test_inert_windows_and_positions_are_skipped(self, coarse_grid, monkeypatch, symmetric):
        # outer positions |p| > 2 are +inf deltas: a sweep box-plus'es only the
        # windows holding a live density and sends only the positions with a
        # live own window (positions i - w + 1 .. i + w - 1) through the
        # function node; the others come back as the +inf delta
        import macsat.coupled as coupled

        L, w = SPEC.L, SPEC.w
        rng = np.random.default_rng(5)
        dinf = delta_inf(coarse_grid)

        def fold():  # positions 0..L
            live = [random_density(coarse_grid, rng, symmetric=True) for _ in range(3)]
            return DensityRows.of(live + [dinf] * (L - 2))

        start = CoupledState((fold(),) if symmetric else (fold(), fold()), L)
        ch = ChannelPoint(1.4, 1.0 if symmetric else 0.7)
        eng = _Engine(SPEC, start, ch)

        def live(lo, hi):
            return any(abs(p) <= 2 for p in range(lo, hi + 1))

        windows = [c for c in range(L + w) if live(c - w + 1, c)]
        positions = [i for i in range(L + 1) if live(i - w + 1, i + w - 1)]
        calls, columns = [], []
        monkeypatch.setattr(coupled, "power_cn_rows", lambda x, n: calls.append(len(x)) or power_cn_rows(x, n))
        apply = FnOperator.apply
        monkeypatch.setattr(
            FnOperator, "apply", lambda op, x: columns.append(len(x)) or apply(op, x)
        )
        stacks = eng.iterate().state.rows
        users = len(stacks)
        assert users == (1 if symmetric else 2)
        assert calls == [len(windows)] * users and len(windows) < L + w
        assert columns == [len(positions)] * users
        for rows in stacks:
            for i, inf in zip(range(L + 1), rows.inf):
                assert (i in positions) != inf


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
        prof = [error_prob(d) for d in chains(fp.state)[0]]
        # |i| >= |j| implies error_prob(a_i) <= error_prob(a_j)
        for i in range(spec.L):
            assert prof[i] <= prof[i + 1] + 1e-9  # left half ascending
            assert prof[2 * spec.L - i] <= prof[2 * spec.L - i - 1] + 1e-9

    def test_freeze_ensures_exact_deltas(self, coarse_grid):
        spec = CoupledSpec(3, 6, 4, 2)
        fp = coupled_run(ChannelPoint(1.8, 1.0), spec, coarse_grid)
        assert fp.decoded
        assert all(error_prob(d) == 0.0 for d in chains(fp.state)[0])

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

    @pytest.mark.parametrize(
        "bins,alpha",
        [(513, 1.6), (513, 1.1), (129, 1.2), (129, 1.28)],
        ids=["1.6", "1.1", "129bins-1.2", "129bins-1.28"],
    )
    def test_symmetric_fold_matches_full_chain_run(self, bins, alpha):
        # a two-stack start runs both users' folds at A = 1; the symmetric
        # fold, one user standing for both, must halt alike on the same
        # densities, with the same residual (on 129 bins the stall rule once
        # read the mean entropy of half the chain and halted a few sweeps
        # early)
        grid = DensityGrid(60.0 / (bins - 1), 30.0)
        ch = ChannelPoint(alpha, 1.0)
        one = coupled_run(ch, SPEC, grid)
        both = coupled_run(ch, SPEC, grid, start=zero_start(grid, SPEC, users=2))
        assert (len(one.state.rows), len(both.state.rows)) == (1, 2)
        assert (one.halt, one.iterations, one.residual) == (both.halt, both.iterations, both.residual)
        for x, y in zip(sum(chains(one.state), ()), sum(chains(both.state), ())):
            assert x.mass.tobytes() == y.mass.tobytes()
            assert x.mass_pos_inf == y.mass_pos_inf

    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    def test_zero_iterations_returns_start(self, coarse_grid, ratio):
        fp = coupled_run(ChannelPoint(1.5, ratio), SPEC, coarse_grid, max_iters=0)
        assert (fp.halt, fp.iterations, fp.decoded) == ("max_iters", 0, False)
        assert fp.residual == np.inf
        # the zero fold, both users' folds off the ray
        assert len(fp.state.rows) == (1 if ratio == 1.0 else 2)
        assert all(rows.zero.all() for rows in fp.state.rows)

    @pytest.mark.parametrize("L, users", [(6, 1), (3, 2)], ids=["longer-fold", "shorter-full-chain"])
    def test_start_of_another_chain_length_rejected(self, tiny_grid, L, users):
        # a start of 2L'+1 positions is not a start of the 2L+1-position chain
        start = zero_start(tiny_grid, CoupledSpec(3, 6, L, 2), users)
        with pytest.raises(ValueError, match="positions"):
            coupled_run(ChannelPoint(1.5, 1.0), SPEC, tiny_grid, max_iters=1, start=start)


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
            errs = np.array([error_prob(d) for d in chains(eng.iterate().state)[0]])
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
        # Gamma of every window -L..L, bit for bit, of both users' folds or
        # of the symmetric fold, one user standing for both
        a, b = random_folds(coarse_grid, 4, 4, symmetric=True)
        state = CoupledState((DensityRows.of(a),), 4) if symmetric else fold_state(a, b, 4)
        dinf = delta_inf(coarse_grid)
        prof = state.extrinsic(SPEC)
        for i in range(-4, 5):
            for user, vec in enumerate(chains(state)):
                xs = [vec[p + 4] if abs(p) <= 4 else dinf for p in range(i - 1, i + 2)]
                expect = window_gamma(xs, 3, 6, 2)
                assert prof[i + 4][user].mass.tobytes() == expect.mass.tobytes()
                assert prof[i + 4][user].mass_pos_inf == expect.mass_pos_inf


def _density_bytes(d) -> bytes:
    # a 0.0 follows the +inf mass where the density layout once held a -inf
    # mass, so that the digests below kept their values across that change
    return d.mass.tobytes() + struct.pack("<2d", d.mass_pos_inf, 0.0)


class TestPinned:
    # SHA-256 of the final state (every density's mass bytes and +inf mass,
    # user 1 then user 2, positions -L..L, then halt, iterations and
    # residual) and of the extrinsic profile; a change in any bit of a sweep
    # moves them.  A run from the symmetric fold (1) or from both users'
    # folds (2) must give the same digests on any ray.
    GRID_65 = DensityGrid(30 / 32, 30.0)
    GRID_129 = DensityGrid(30 / 64, 30.0)
    # a three-term window, whose average depends on the order of its sum
    # (0.5a + 0.5b is 0.5b + 0.5a exactly, so the w = 2 runs cannot tell)
    SPEC_W3 = CoupledSpec(3, 6, 4, 3)
    RUNS = {
        # cut as the freeze begins: the end positions are +inf deltas, the rest live
        "fold": (ChannelPoint(1.45, 1.0), GRID_129, 1, 35),
        "full-chain": (ChannelPoint(1.45, 1.0), GRID_129, 2, 35),
        "off-ray": (ChannelPoint(1.6, 0.9), GRID_65, 1, 30_000),
        "off-ray-full-chain": (ChannelPoint(1.6, 0.9), GRID_65, 2, 30_000),
        "stall": (ChannelPoint(1.2, 1.0), GRID_129, 1, 30_000),
        # ends with the centre live and every other position frozen
        "w3-fold": (ChannelPoint(1.4, 1.0), GRID_65, 1, 30_000),
        "w3-off-ray": (ChannelPoint(1.6, 0.9), GRID_65, 1, 30_000),
    }

    @pytest.mark.parametrize(
        "case,halt,iterations,state_digest,extrinsic_digest",
        [
            ("fold", "max_iters", 35,
             "b673d78d53912f02266c201c19d391c2fb35ab6308092c9f7f0dfd644608450b",
             "58180b183c7b14954387fa961f01f56877f00fed09648dc74feeb52abfbc39b6"),
            ("full-chain", "max_iters", 35,
             "b673d78d53912f02266c201c19d391c2fb35ab6308092c9f7f0dfd644608450b",
             "58180b183c7b14954387fa961f01f56877f00fed09648dc74feeb52abfbc39b6"),
            ("off-ray", "success", 35,
             "f9f42b5bfe143e3e39cb88093fd28e27f700ad638f19671faf069c10915c47c1",
             "84be196154a3161c52fbb0b5f5e4ecfbe40cc0baeb8842da53fb3a3c1e48c5ba"),
            ("off-ray-full-chain", "success", 35,
             "f9f42b5bfe143e3e39cb88093fd28e27f700ad638f19671faf069c10915c47c1",
             "84be196154a3161c52fbb0b5f5e4ecfbe40cc0baeb8842da53fb3a3c1e48c5ba"),
            ("stall", "stall", 105,
             "f447cf8df8c534d06e247f0d26e867166c1ee3c4ed9281b492e1f133f397ec70",
             "67bc7aca58ec088fb0d78ab13f42b1f83e8c208579f51d2b0d97842ad0691850"),
            ("w3-fold", "success", 31,
             "b0a9eecd05d7aaa52641c9bcd299db92eabd29d9e47adbde85abdc5e53d5eedd",
             "bc44909c459b20fb3458168779013c590f5e3bc1ea31433a9b4dcc037df575af"),
            # re-pinned when the off-ray chain became two folds: the final
            # densities are unchanged, but the whole chain once summed a
            # mirror pair's three-term windows in opposite orders, so its
            # entropies, and the residual, rounded apart (2.311408225482833e-10,
            # now 2.3113982802473088e-10)
            ("w3-off-ray", "success", 20,
             "9fccacfe80d065894072b165a3028b19de54fb641431a5b0653f0c69f2ffeb68",
             "84be196154a3161c52fbb0b5f5e4ecfbe40cc0baeb8842da53fb3a3c1e48c5ba"),
        ],
    )  # fmt: skip
    def test_pinned_runs(self, case, halt, iterations, state_digest, extrinsic_digest):
        ch, grid, users, max_iters = self.RUNS[case]
        spec = self.SPEC_W3 if case.startswith("w3") else SPEC
        fp = coupled_run(ch, spec, grid, max_iters, start=zero_start(grid, spec, users))
        assert (fp.halt, fp.iterations) == (halt, iterations)
        # the symmetric fold runs as one stack on the ray only
        assert len(fp.state.rows) == (1 if users == 1 and ch.ratio == 1.0 else 2)
        h = hashlib.sha256()
        for d in sum(chains(fp.state), ()):
            h.update(_density_bytes(d))
        h.update(repr((fp.halt, fp.iterations, fp.residual)).encode())
        assert h.hexdigest() == state_digest
        h = hashlib.sha256()
        for pair in fp.state.extrinsic(spec):
            for d in pair:
                h.update(_density_bytes(d))
        assert h.hexdigest() == extrinsic_digest

    def test_fold_run_does_no_extra_work(self, monkeypatch):
        # the "fold" run's magnitude passes and function-node columns: a
        # stacked sweep must not spend a pass or a column the staged sweep
        # of one density at a time did not
        passes, columns = [], []
        magnitude_op, apply = BoxPlusTable.magnitude_op, FnOperator.apply
        monkeypatch.setattr(
            BoxPlusTable, "magnitude_op", lambda tab, p, q: passes.append(1) or magnitude_op(tab, p, q)
        )
        monkeypatch.setattr(FnOperator, "apply", lambda op, x: columns.append(len(x)) or apply(op, x))
        ch, grid, users, max_iters = self.RUNS["fold"]
        coupled_run(ch, SPEC, grid, max_iters, start=zero_start(grid, SPEC, users))
        assert (len(passes), sum(columns), len(columns)) == (1230, 175, 35)
