import hashlib

import numpy as np
import pytest

from macsat.channel import ChannelPoint, fn_operator
from macsat.densities import DensityGrid, delta_zero
from macsat.ensembles import CoupledSpec, design_rate
from macsat.mcsim import (
    Gf2Encoder,
    JointInstance,
    LdpcGraph,
    _count_duplicates,
    _decode_frame,
    _rng_for,
    _syndrome_ok,
    _transmit,
    build_coupled,
    build_joint,
    build_regular,
    simulate_joint,
)

from oracles import (
    check_degrees,
    de_mc_crosscheck,
    design_rate_realized,
    gauss_jordan_rref,
    positional_errors,
    round_messages,
    rref_encode,
    var_degrees,
)


class TestGraphs:
    def test_tiny_regular_degrees(self):
        g = build_regular(6, 3, 6, seed=0)
        assert g.n_checks == 3
        assert np.all(var_degrees(g) == 3)
        assert np.all(check_degrees(g) == 6)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            build_regular(7, 3, 6, seed=0)

    def test_seeds_change_edges_not_degrees(self):
        g1 = build_regular(600, 3, 6, seed=1)
        g2 = build_regular(600, 3, 6, seed=2)
        assert not np.array_equal(g1.edge_check, g2.edge_check)
        assert np.array_equal(var_degrees(g1), var_degrees(g2))

    def test_same_seed_identical(self):
        g1 = build_regular(600, 3, 6, seed=5)
        g2 = build_regular(600, 3, 6, seed=5)
        assert np.array_equal(g1.edge_check, g2.edge_check)

    def test_coupled_structure(self):
        spec = CoupledSpec(3, 6, 4, 2, M=60)
        g = build_coupled(spec, seed=3)
        assert g.n_vars == 9 * 60
        # 30 checks per position over [-L, L+w-1]
        assert g.n_checks == 10 * 30
        assert np.all(var_degrees(g) == 3)
        deg = check_degrees(g)
        checks_per_pos = spec.l * spec.M // spec.r
        pos_of_check = np.arange(g.n_checks) // checks_per_pos - spec.L
        bulk = deg[(pos_of_check >= -3) & (pos_of_check <= 4)]
        assert np.all(bulk == 6)
        # checks only reach variables within their window
        for e in range(0, g.n_edges, 97):
            cp = pos_of_check[g.edge_check[e]]
            vp = g.var_pos[g.edge_var[e]]
            assert cp - spec.w + 1 <= vp <= cp

    def test_coupled_rate_accounting(self):
        spec = CoupledSpec(3, 6, 4, 2, M=240)
        g = build_coupled(spec, seed=4)
        assert design_rate_realized(g) == pytest.approx(
            design_rate(spec), abs=3.0 / spec.M
        )

    @pytest.mark.parametrize("dups", [0, 1, 40])
    def test_duplicate_count_matches_unique(self, dups):
        rng = np.random.default_rng(dups)
        n_vars, size = 500, 3000
        edge_var = rng.integers(0, n_vars, size)
        edge_check = rng.integers(0, 250, size)
        pair = edge_var * n_vars + edge_check
        _, first = np.unique(pair, return_index=True)
        keep = np.sort(first)  # distinct pairs, then `dups` repeats of them
        extra = rng.choice(keep, dups, replace=False)
        ev = np.concatenate((edge_var[keep], edge_var[extra]))
        ec = np.concatenate((edge_check[keep], edge_check[extra]))
        order = rng.permutation(ev.size)
        ev, ec = ev[order], ec[order]
        pair = ev * n_vars + ec
        assert _count_duplicates(ev, ec, n_vars) == pair.size - np.unique(pair).size == dups

    # sha256 of edge_check as drawn before the sort-based duplicate count: a
    # changed redraw sequence shows here, not only as shifted goldens
    @pytest.mark.parametrize(
        "n, seed, survivors, digest",
        [
            (6000, 0, 5, "e6837cbb4077ffcc9e01c1fe071e3307bf989df34333073473ae28d1d88b41cd"),
            (6000, 1, 0, "1b061e3b62bca84d3f24e78c11f2ef26ae0eae90128fcde4d6819bf44bb4edcb"),
            (600, 0, 6, "cc7d02af1baecf7696c4697bceb4b3389906475d4ffc69fe9e790a2bc3aee526"),
        ],
    )
    def test_pinned_graphs(self, n, seed, survivors, digest):
        g = build_regular(n, 3, 6, seed)
        assert hashlib.sha256(g.edge_check.tobytes()).hexdigest() == digest
        assert _count_duplicates(g.edge_var, g.edge_check, n) == survivors

    def test_matching_is_position_aligned_bijection(self):
        spec = CoupledSpec(3, 6, 4, 2, M=60)
        inst = build_joint(build_coupled(spec, 1), build_coupled(spec, 2), 3)
        assert np.array_equal(np.sort(inst.matching), np.arange(inst.graph1.n_vars))
        np.testing.assert_array_equal(
            inst.graph1.var_pos, inst.graph2.var_pos[inst.matching]
        )


def coupled_rank_298() -> LdpcGraph:
    # rank 298 of 300, with free columns before the last pivot
    return build_coupled(CoupledSpec(3, 6, 4, 2, M=60), 3)


class TestEncoder:
    def test_roundtrip_random_codewords(self):
        g = build_regular(600, 3, 6, seed=7)
        enc = Gf2Encoder(g)
        assert enc.rank <= g.n_checks
        assert enc.k == g.n_vars - enc.rank
        rng = np.random.default_rng(0)
        for _ in range(5):
            cw = enc.encode(rng.integers(0, 2, enc.k).astype(np.uint8))
            assert _syndrome_ok(g, 1.0 - 2.0 * cw)

    def test_codeword_satisfies_graph_parity(self):
        g = build_regular(300, 3, 6, seed=8)
        enc = Gf2Encoder(g)
        cw = enc.encode(np.ones(enc.k, dtype=np.uint8))
        parity = np.bincount(g.edge_check, weights=cw[g.edge_var], minlength=g.n_checks)
        assert not np.any(parity.astype(np.int64) & 1)

    @pytest.mark.parametrize(
        "n, seed", [(6, 0), (300, 8), (600, 7), (1002, 27), (6000, 0), (6000, 1)]
    )
    def test_matches_column_elimination(self, n, seed):
        g = build_regular(n, 3, 6, seed)
        assert_matches_rref(Gf2Encoder(g), g)

    def test_coupled_matches_column_elimination(self):
        g = coupled_rank_298()
        enc = Gf2Encoder(g)
        assert enc.rank == 298
        assert enc.free_cols[0] < enc.pivot_cols[-1]
        assert_matches_rref(enc, g)

    @pytest.mark.parametrize(
        "graph",
        [
            lambda: build_regular(6000, 3, 6, 0),
            lambda: build_regular(6000, 3, 6, 1),
            lambda: build_regular(600, 3, 6, 0),
            coupled_rank_298,
        ],
        ids=["6000-0", "6000-1", "600-0", "coupled"],
    )
    def test_encode_matches_row_oracle(self, graph):
        g = graph()
        enc = Gf2Encoder(g)
        row_ints, pivot_cols = gauss_jordan_rref(g)
        rng = np.random.default_rng(g.n_vars)
        for _ in range(5):
            info = rng.integers(0, 2, enc.k).astype(np.uint8)
            np.testing.assert_array_equal(enc.encode(info), rref_encode(row_ints, pivot_cols, info))

    def test_duplicate_rows(self):
        # 130 columns span three words; rows 2 and 4 repeat rows 0 and 1, row 6
        # is the sum of rows 0 and 3, and row 8 is empty
        rng = np.random.default_rng(5)
        base = rng.random((5, 130)) < 0.08
        empty = np.zeros(130, dtype=bool)
        h = np.vstack((base[[0, 1, 0, 2, 1, 3]], base[0] ^ base[3], base[4], empty))
        check, var = np.nonzero(h)
        g = LdpcGraph(130, h.shape[0], var, check)
        enc = Gf2Encoder(g)
        assert enc.rank == 5
        assert_matches_rref(enc, g)


def assert_matches_rref(enc: Gf2Encoder, g: LdpcGraph):
    row_ints, pivot_cols = gauss_jordan_rref(g)
    assert enc.rank == len(row_ints)
    np.testing.assert_array_equal(enc.pivot_cols, pivot_cols)
    np.testing.assert_array_equal(enc.free_cols, np.setdiff1d(np.arange(g.n_vars), pivot_cols))
    assert [int.from_bytes(row.tobytes(), "little") for row in enc.rows] == row_ints


@pytest.mark.slow
def test_encoder_at_cli_default_size():
    # `macsat simulate`'s default n; this graph keeps 4 parallel edges
    g = build_regular(20000, 3, 6, 1)
    assert _count_duplicates(g.edge_var, g.edge_check, g.n_vars) == 4
    enc = Gf2Encoder(g)
    assert enc.rank + enc.free_cols.size == g.n_vars
    rng = np.random.default_rng(20000)
    for _ in range(20):
        cw = enc.encode(rng.integers(0, 2, enc.k).astype(np.uint8))
        parity = np.zeros(g.n_checks, dtype=np.uint8)
        np.bitwise_xor.at(parity, g.edge_check, cw[g.edge_var])
        assert not parity.any()


class TestSimulation:
    def test_reproducible(self):
        inst = build_joint(build_regular(600, 3, 6, 1), build_regular(600, 3, 6, 2), 3)
        ch = ChannelPoint(1.6, 1.0)
        r1 = simulate_joint(inst, ch, mode="random", num_frames=4, max_iters=30, seed=9)
        r2 = simulate_joint(inst, ch, mode="random", num_frames=4, max_iters=30, seed=9)
        assert [f.bit_errors for f in r1.frames] == [f.bit_errors for f in r2.frames]

    def test_zero_gain_partner(self):
        inst = build_joint(build_regular(1200, 3, 6, 4), build_regular(1200, 3, 6, 5), 6)
        res = simulate_joint(
            inst, ChannelPoint(1.5, 0.0), mode="random", num_frames=4, max_iters=50, seed=10
        )
        assert res.ber(2) == pytest.approx(0.5, abs=0.05)
        assert res.ber(1) < 1e-2

    def test_all_plus_one_mode_runs(self):
        inst = build_joint(build_regular(600, 3, 6, 7), build_regular(600, 3, 6, 8), 9)
        res = simulate_joint(
            inst, ChannelPoint(1.8, 1.0), mode="all_plus_one", num_frames=3, max_iters=30, seed=11
        )
        assert res.mode == "all_plus_one"
        assert res.ber(1) <= 1.0

    def test_confidence_interval_brackets_estimate(self):
        inst = build_joint(build_regular(600, 3, 6, 12), build_regular(600, 3, 6, 13), 14)
        res = simulate_joint(
            inst, ChannelPoint(1.3, 1.0), mode="random", num_frames=4, max_iters=25, seed=15
        )
        lo, hi = res.ber_confidence(1)
        assert lo <= res.ber(1) <= hi


class TestCrosscheck:
    def test_iteration0_matches_channel_adapter(self, work_grid):
        ch = ChannelPoint(1.5, 1.0)
        inst = build_joint(build_regular(30000, 3, 6, 16), build_regular(30000, 3, 6, 17), 18)
        de0 = fn_operator(work_grid, 1, ch).apply(delta_zero(work_grid))
        rep = de_mc_crosscheck(inst, ch, de0, iteration=0, seed=19)
        assert rep["kolmogorov"] < 0.012

    def test_iteration1_matches_first_de_density(self, work_grid):
        ch = ChannelPoint(1.5, 1.0)
        inst = build_joint(build_regular(30000, 3, 6, 20), build_regular(30000, 3, 6, 21), 22)
        de1 = fn_operator(work_grid, 1, ch).apply(delta_zero(work_grid))  # a_1 = fn(delta_0)
        rep = de_mc_crosscheck(inst, ch, de1, iteration=1, seed=23)
        assert rep["kolmogorov"] < 0.012
        assert not rep["cycles_warning"]

    def test_signs_mode_rejects_deep_iterations(self, work_grid):
        ch = ChannelPoint(1.5, 1.0)
        inst = build_joint(build_regular(600, 3, 6, 24), build_regular(600, 3, 6, 25), 26)
        with pytest.raises(ValueError):
            de_mc_crosscheck(inst, ch, delta_zero(work_grid), iteration=2, mode="signs")

    def test_small_n_deep_iteration_flagged(self, work_grid):
        ch = ChannelPoint(1.5, 1.0)
        inst = build_joint(build_regular(1002, 3, 6, 27), build_regular(1002, 3, 6, 28), 29)
        de1 = fn_operator(work_grid, 1, ch).apply(delta_zero(work_grid))
        rep = de_mc_crosscheck(inst, ch, de1, iteration=3, seed=30, mode="random")
        assert rep["cycles_warning"]

    def test_collection_runs_past_early_decoding(self):
        # regression: this frame decodes in 3 rounds, and collecting at round
        # 5 used to stop on the clean syndromes and crash on missing messages
        grid = DensityGrid(30.0 / 256.0, 30.0)
        inst = build_joint(build_regular(600, 3, 6, 0), build_regular(600, 3, 6, 1), 2)
        ch = ChannelPoint(4.0, 0.5)
        x1, x2, y = _transmit(inst, ch, "random", _rng_for(0, stream=2000))
        assert _decode_frame(inst, ch, x1, x2, y, 5)[2] == 3
        vc1, _, _, _, hard1, hard2 = round_messages(inst, ch, y, 5)
        assert vc1.size == inst.graph1.n_edges
        np.testing.assert_array_equal(hard1, x1)
        np.testing.assert_array_equal(hard2, x2)
        rep = de_mc_crosscheck(inst, ch, delta_zero(grid), iteration=5, mode="random")
        assert rep["edges_sampled"] == inst.graph1.n_edges


@pytest.mark.slow
class TestCoupledInstance:
    def test_wave_decodes_finite_length(self):
        # alpha between the coupled (~1.26) and uncoupled (~1.69) thresholds:
        # the finite instance decodes and the wave footprint shows boundary
        # positions clearing before the center
        spec = CoupledSpec(3, 6, 8, 2, M=600)
        inst = build_joint(build_coupled(spec, 41), build_coupled(spec, 42), 43)
        ch = ChannelPoint(1.5, 1.0)
        partial = positional_errors(inst, ch, max_iters=25, seed=44)
        full = positional_errors(inst, ch, max_iters=400, seed=44)
        L = spec.L
        # mid-decode: chain ends cleaner than the middle
        ends = partial[:2].sum() + partial[-2:].sum()
        mid = partial[L - 1 : L + 2].sum()
        assert ends < mid
        assert full.sum() <= spec.M * spec.n_positions * 5e-3

    def test_rate_matches_realized_graph(self):
        spec = CoupledSpec(3, 6, 8, 2, M=120)
        g = build_coupled(spec, 7)
        assert design_rate_realized(g) == pytest.approx(
            design_rate(spec), abs=3.0 / spec.M
        )


@pytest.mark.slow
class TestWaterfallSmoke:
    def test_ber_monotone_in_alpha(self):
        inst = build_joint(build_regular(2400, 3, 6, 31), build_regular(2400, 3, 6, 32), 33)
        bers = []
        for alpha in (1.4, 1.55, 1.7, 1.85, 2.0):
            res = simulate_joint(
                inst, ChannelPoint(alpha, 1.0), mode="random", num_frames=8, max_iters=80, seed=34
            )
            bers.append(res.ber(1))
        # allow CI-level wiggle at the low-error end
        for b1, b2 in zip(bers, bers[1:]):
            assert b2 <= b1 + 5e-3
