import pickle
import warnings
import weakref
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.integrate import quad

import macsat.channel as channel
from macsat.channel import (
    GAIN_SUM_MAX,
    ChannelPoint,
    FnOperator,
    GainRangeError,
    InfeasibleRayError,
    bawgn_density,
    bisect,
    fn_exponents,
    fn_llr,
    fn_operator,
    mac_acpr_point,
    mac_mutual_infos,
    ray_boundary,
)
from macsat.densities import (
    DensityGrid,
    DensityRows,
    delta_inf,
    delta_zero,
    entropy,
    error_prob,
    make_density,
    symmetry_residual,
)
from macsat.ensembles import CoupledSpec, regular
from macsat.gexit import map_bound_alpha
from macsat.jointde import threshold_alpha

from conftest import random_density
from oracles import (
    dp_dalpha,
    logaddexp_fn_llr,
    logaddexp_fn_operator,
    nu,
    quadrature_table,
    scatter_fn_apply,
)


def kolmogorov(a, b) -> float:
    return float(np.abs(np.cumsum(a.mass) - np.cumsum(b.mass)).max())


class TestChannelPoint:
    def test_gain_sum_bound(self):
        # squares of output distances up to 2 (h1 + h2) stay finite at the bound
        assert np.isfinite((2.0 * GAIN_SUM_MAX + 40.0) ** 2)
        ChannelPoint(GAIN_SUM_MAX / 2, 1.0)
        for alpha, ratio in ((GAIN_SUM_MAX, 1.0), (1.0, 1e300), (1e200, 0.0), (float("nan"), 1.0)):
            with pytest.raises(GainRangeError, match="at most 3.352e"):
                ChannelPoint(alpha, ratio)


class TestChannelDensity:
    def test_nu_normalizes(self):
        ch = ChannelPoint(1.1, 0.7)
        for x in range(4):
            val = quad(lambda y: nu(x, y, ch), -25, 25)[0]
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_nu_peak_at_mean(self):
        ch = ChannelPoint(0.9, 1.4)
        ys = np.linspace(-6, 6, 4001)
        assert ys[np.argmax(nu(0, ys, ch))] == pytest.approx(ch.h1 + ch.h2, abs=0.01)

    def test_nu_value(self):
        ch = ChannelPoint(1.0, 1.0)
        assert nu(0, 0.0, ch) == pytest.approx(np.exp(-2) / np.sqrt(2 * np.pi), rel=1e-12)


class TestChannelDerivative:
    def test_integrates_to_zero(self):
        ch = ChannelPoint(1.2, 0.8)
        for x in range(4):
            val = quad(lambda y: dp_dalpha(x, y, ch), -30, 30)[0]
            assert abs(val) < 1e-9

    def test_zero_slope_symbols(self):
        ch = ChannelPoint(1.2, 1.0)  # A = 1: symbols 1, 2 have s_x = 0
        ys = np.linspace(-5, 5, 101)
        assert np.all(dp_dalpha(1, ys, ch) == 0.0)
        assert np.all(dp_dalpha(2, ys, ch) == 0.0)

    def test_matches_finite_differences(self):
        ch = ChannelPoint(1.1, 0.7)
        eps = 1e-5
        ys = np.linspace(-6, 6, 41)
        for x in range(4):
            fd = (nu(x, ys, ChannelPoint(1.1 + eps, 0.7)) - nu(x, ys, ChannelPoint(1.1 - eps, 0.7))) / (
                2 * eps
            )
            an = dp_dalpha(x, ys, ch)
            scale = np.abs(fd).max()
            assert np.abs(fd - an).max() / scale < 1e-6


class TestFnTransform:
    def test_no_partner_gain_reduces_to_bawgn(self, work_grid):
        # h2 = 0 collapses the interference term for any partner density
        ch = ChannelPoint(1.3, 0.0)
        rng = np.random.default_rng(0)
        partner = random_density(work_grid, rng, symmetric=True)
        out = fn_operator(work_grid, 1, ch).apply(partner)
        assert kolmogorov(out, bawgn_density(work_grid, 1.3)) < 0.01

    def test_zero_gain_bawgn_is_zero_delta(self, tiny_grid):
        # h = 0 carries no information: the 0-LLR delta, byte for byte
        got, ref = bawgn_density(tiny_grid, 0.0), delta_zero(tiny_grid)
        assert got.mass.tobytes() == ref.mass.tobytes()
        assert got.mass_pos_inf == ref.mass_pos_inf

    @pytest.mark.parametrize("h", [0.3, 1.3, 3.0])
    def test_bawgn_cdf_matches_ndtr(self, work_grid, h):
        # the CDF comes from math.erfc; scipy's ndtr agrees to roundoff
        from scipy.special import ndtr

        mean, sd = 2.0 * h * h, 2.0 * h
        edges = (np.arange(work_grid.n_bins + 1) - work_grid.n_bins / 2.0) * work_grid.bin_width
        cdf = ndtr((edges - mean) / sd)
        ref = np.diff(cdf)
        ref[-1] += 1.0 - cdf[-1]
        ref[0] += cdf[0]
        np.testing.assert_allclose(bawgn_density(work_grid, h).mass, ref, rtol=0, atol=1e-15)

    def test_known_partner_reduces_to_bawgn(self, work_grid):
        # partner perfectly known: its contribution cancels exactly
        ch = ChannelPoint(1.0, 1.0)
        out = fn_operator(work_grid, 1, ch).apply(delta_inf(work_grid))
        assert kolmogorov(out, bawgn_density(work_grid, 1.0)) < 0.01

    def test_erasure_partner_matches_monte_carlo(self, work_grid):
        ch = ChannelPoint(1.0, 1.0)
        out = fn_operator(work_grid, 1, ch).apply(delta_zero(work_grid))
        rng = np.random.default_rng(1)
        n = 10**6
        x2 = rng.choice([1.0, -1.0], size=n)
        y = 1.0 + x2 + rng.standard_normal(n)
        m = np.logaddexp(-0.5 * (y - 2) ** 2, -0.5 * y**2) - np.logaddexp(
            -0.5 * y**2, -0.5 * (y + 2) ** 2
        )
        edges = (np.arange(work_grid.n_bins + 1) - work_grid.n_bins / 2) * work_grid.bin_width
        counts = np.histogram(np.clip(m, -29.99, 29.99), bins=edges)[0] / n
        emp = np.concatenate(([0.0], np.cumsum(counts)))
        ref = np.concatenate(([0.0], np.cumsum(out.mass)))
        assert np.abs(emp - ref).max() < 0.01

    def test_output_symmetric(self, work_grid):
        ch = ChannelPoint(1.4, 0.6)
        rng = np.random.default_rng(2)
        partner = random_density(work_grid, rng, symmetric=True)
        for user in (1, 2):
            out = fn_operator(work_grid, user, ch).apply(partner)
            assert symmetry_residual(out) < 10 * work_grid.bin_width

    def test_degradation_monotone_in_alpha(self, coarse_grid):
        rng = np.random.default_rng(3)
        partner = random_density(coarse_grid, rng, symmetric=True)
        errs = [
            error_prob(fn_operator(coarse_grid, 1, ChannelPoint(a, 0.7)).apply(partner))
            for a in (0.4, 0.8, 1.2, 1.6, 2.0)
        ]
        assert all(e2 <= e1 + 1e-6 for e1, e2 in zip(errs, errs[1:]))

    def test_entropy_mi_duality(self, work_grid):
        # entropy(fn(delta_inf)) + I(X1;Y|X2) = 1 (single-user duality)
        for alpha, ratio in ((0.8, 1.0), (1.2, 0.5)):
            ch = ChannelPoint(alpha, ratio)
            h = entropy(fn_operator(work_grid, 1, ch).apply(delta_inf(work_grid)))
            i1, _, _ = mac_mutual_infos(ch)
            assert h + i1 == pytest.approx(1.0, abs=1e-3)

    def test_operator_matches_function(self, coarse_grid):
        # the cached operator toward user 1 is the one built from (h1, h2)
        ch = ChannelPoint(1.1, 0.9)
        rng = np.random.default_rng(4)
        partner = random_density(coarse_grid, rng)
        want = FnOperator(coarse_grid, ch.h1, ch.h2).apply(partner)
        got = fn_operator(coarse_grid, 1, ch).apply(partner)
        np.testing.assert_allclose(got.mass, want.mass, atol=1e-14)


class TestFnOperator:
    # A = 2 puts h2 > h1: many strata then map to a decreasing output bin
    POINTS = (ChannelPoint(1.68, 1.0), ChannelPoint(0.9, 2.0))

    @pytest.mark.parametrize("bins", [513, 2049])
    def test_matches_scatter(self, bins):
        grid = DensityGrid(bin_width=60.0 / (bins - 1), half_range=30.0)
        rng = np.random.default_rng(bins)
        partners = [random_density(grid, rng, inf_mass=0.3) for _ in range(2)]
        partners += [delta_inf(grid)]
        for ch in self.POINTS:
            for h_t, h_p in ((ch.h1, ch.h2), (ch.h2, ch.h1)):
                op = FnOperator(grid, h_t, h_p)
                for partner in partners:
                    got = op.apply(partner)
                    ref = scatter_fn_apply(grid, h_t, h_p, partner)
                    assert np.abs(got.mass - ref.mass).max() <= 1e-12 * np.abs(ref.mass).max()
                    assert got.mass_pos_inf == 0.0

    @pytest.mark.parametrize("bins", [513, 2049])
    def test_batched_apply_matches_columns(self, bins):
        # one sparse product for several partners, +inf mass included, has
        # the bits of each partner's own matrix-vector product
        grid = DensityGrid(bin_width=60.0 / (bins - 1), half_range=30.0)
        rng = np.random.default_rng(bins + 1)
        partners = [random_density(grid, rng, inf_mass=0.3) for _ in range(5)]
        partners += [delta_inf(grid), delta_zero(grid)]
        for ch in self.POINTS:
            op = FnOperator(grid, ch.h2, ch.h1)
            batch = op.apply(DensityRows.of(partners))
            assert len(batch) == len(partners)
            for j, partner in enumerate(partners):
                x = np.append(partner.mass, partner.mass_pos_inf)
                want = make_density(grid, op.matrix @ x)
                for d in (batch[j], op.apply(partner), op.apply(DensityRows.of([partner]))[0]):
                    assert d.mass.tobytes() == want.mass.tobytes()
                    assert d.mass_pos_inf == 0.0

    def test_apply_rejects_partner_on_other_grid(self, coarse_grid):
        op = FnOperator(coarse_grid, 1.0, 1.0)
        other = DensityGrid(1.0, 4.0)
        for partner in (delta_zero(other), DensityRows.of([delta_zero(other)])):
            with pytest.raises(ValueError):
                op.apply(partner)

    def test_columns_sum_to_one(self, coarse_grid):
        for ch in self.POINTS + (ChannelPoint(0.0, 1.0), ChannelPoint(2.5, 0.0)):
            for h_t, h_p in ((ch.h1, ch.h2), (ch.h2, ch.h1)):
                op = FnOperator(coarse_grid, h_t, h_p)
                assert op.matrix.shape == (coarse_grid.n_bins, coarse_grid.n_bins + 1)
                col_sums = np.asarray(op.matrix.sum(axis=0)).ravel()
                assert np.abs(col_sums - 1.0).max() <= 1e-14

    def test_huge_gains_build_without_warning(self):
        # output LLRs past the int64 range fold to the extreme bins, not
        # through an undefined cast
        grid = DensityGrid(bin_width=30 / 32, half_range=30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h_t, h_p in ((1e12, 1e12), (1e12, 0.0), (1e150, 1e150)):
                col_sums = np.asarray(FnOperator(grid, h_t, h_p).matrix.sum(axis=0)).ravel()
                assert np.abs(col_sums - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("bins", [65, 513])
    def test_block_width_changes_no_byte(self, bins, monkeypatch):
        # each column sums its (partner bit, stratum) weights in the same
        # order whatever the number of columns assembled per block
        grid = DensityGrid(bin_width=60.0 / (bins - 1), half_range=30.0)
        on, off, no_partner = ChannelPoint(1.6, 1.0), ChannelPoint(1.45, 0.8), ChannelPoint(1.3, 0.0)
        gains = [(on.h1, on.h2), (off.h1, off.h2), (off.h2, off.h1), (no_partner.h1, no_partner.h2)]
        for h_t, h_p in gains:
            built = []
            for chunk in (1, 7, 64, 256, bins + 5):
                monkeypatch.setattr(channel, "_FN_CHUNK", chunk)
                m = FnOperator(grid, h_t, h_p).matrix
                built.append((m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()))
            assert all(b == built[0] for b in built), (bins, h_t, h_p)


class TestFnCache:
    # the cache holds the operators of one gain pair on one grid
    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        build = channel.FnOperator
        monkeypatch.setattr(channel, "_FN_CACHE", {})
        monkeypatch.setattr(channel, "FnOperator", lambda *args: built.append(args) or build(*args))
        return built

    def test_new_point_on_the_ray_frees_the_old_operator_first(self, coarse_grid, monkeypatch, builds):
        # both users share one operator on the ray A = 1, and the previous
        # probe's is gone before the next one is assembled
        old = weakref.ref(fn_operator(coarse_grid, 1, ChannelPoint(1.6, 1.0)))
        assert fn_operator(coarse_grid, 2, ChannelPoint(1.6, 1.0)) is old()
        alive_at_build = []
        build = channel.FnOperator
        monkeypatch.setattr(channel, "FnOperator", lambda *args: alive_at_build.append(old()) or build(*args))
        fn_operator(coarse_grid, 1, ChannelPoint(1.7, 1.0))
        assert alive_at_build == [None]
        assert old() is None
        assert len(channel._FN_CACHE) == 1

    def test_off_ray_point_keeps_both_operators(self, coarse_grid, builds):
        fn_operator(coarse_grid, 1, ChannelPoint(1.6, 1.0))
        ch = ChannelPoint(1.45, 0.8)
        ops = [fn_operator(coarse_grid, user, ch) for user in (1, 2)]
        assert channel._FN_CACHE == {
            (coarse_grid, ch.h1, ch.h2): ops[0],
            (coarse_grid, ch.h2, ch.h1): ops[1],
        }

    def test_current_point_builds_nothing(self, coarse_grid, builds):
        for ch in (ChannelPoint(1.6, 1.0), ChannelPoint(1.45, 0.8)):
            ops = [fn_operator(coarse_grid, user, ch) for user in (1, 2)]
            builds.clear()
            for _ in range(2):
                assert [fn_operator(coarse_grid, user, ch) for user in (1, 2)] == ops
            assert builds == []


# Every channel point at which the golden cases (fast and slow) and the
# benchmark's density-evolution unit build a function-node operator, per
# (grid bins, A), as recorded by wrapping `fn_operator` over those runs.
VISITED = {
    (65, 0.8): (0.0, 1.5, 1.875, 2.0625, 2.25, 3.0, 6.0),
    (65, 0.9): (0.0, 0.75, 0.8, 1.125, 1.3125, 1.5, 1.6, 3.0, 6.0),
    (65, 1.0): (
        0.0, 0.4, 0.75, 0.8, 1.125, 1.2, 1.3, 1.3125, 1.5, 1.6, 1.875, 2.0625, 2.25, 3.0, 6.0,
    ),
    (129, 0.8): (
        0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.345799129187,
        1.4, 1.445799129187, 1.5, 1.6, 1.6875, 1.7, 1.78125, 1.8, 1.8046875, 1.828125, 1.875,
        2.25, 3.0, 6.0,
    ),
    (129, 1.0): (
        0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0, 1.1, 1.125,
        1.1484375, 1.171875, 1.2, 1.214681097017, 1.21875, 1.25, 1.3, 1.3125, 1.314681097017,
        1.4, 1.5, 1.6, 1.6875, 1.7, 1.75, 1.78125, 1.8046875, 1.828125, 1.875, 2.0, 2.25, 3.0,
        6.0,
    ),
    (513, 1.0): (
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.21716591467, 1.3,
        1.31716591467, 1.4, 1.45, 1.5, 1.6, 1.7,
    ),
    (2049, 1.0): (1.5, 1.6, 1.7, 1.9),
}  # fmt: skip

ALPHA_SWEEP = tuple(np.round(np.arange(0.3, 6.01, 0.3), 10))


def assert_split_softplus_matrix(bins: int, ratio: float, alphas):
    """Both users' operators, built with the split-softplus `fn_llr`, equal
    the np.logaddexp form entry for entry."""
    grid = DensityGrid(bin_width=60.0 / (bins - 1), half_range=30.0)
    for alpha in alphas:
        ch = ChannelPoint(float(alpha), ratio)
        for h_t, h_p in {(ch.h1, ch.h2), (ch.h2, ch.h1)}:
            got, want = FnOperator(grid, h_t, h_p).matrix, logaddexp_fn_operator(grid, h_t, h_p).matrix
            assert got.indptr.tobytes() == want.indptr.tobytes(), (bins, ratio, alpha)
            assert got.indices.tobytes() == want.indices.tobytes(), (bins, ratio, alpha)
            assert got.data.tobytes() == want.data.tobytes(), (bins, ratio, alpha)


class TestSplitSoftplus:
    def test_fn_llr_within_an_ulp_of_logaddexp(self):
        rng = np.random.default_rng(3)
        y, m = rng.normal(0.0, 4.0, 6000), rng.normal(0.0, 10.0, 6000)
        got, want = fn_llr(y, m, 1.7, 1.2), logaddexp_fn_llr(y, m, 1.7, 1.2)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_swapped_gains_swap_the_middle_exponents(self):
        # the decoder forms one set of exponents per frame for both users
        rng = np.random.default_rng(5)
        y = rng.normal(0.0, 4.0, 2000)
        for h_t, h_p in rng.uniform(0.0, 3.0, (20, 2)).tolist() + [(1.5, 0.0), (0.0, 1.5)]:
            pp, pm, mp, mm = fn_exponents(y, h_t, h_p)
            swapped = fn_exponents(y, h_p, h_t)
            assert [g.tobytes() for g in swapped] == [g.tobytes() for g in (pp, mp, pm, mm)]

    @pytest.mark.parametrize("bins,ratio", list(VISITED))
    def test_matrix_at_visited_points(self, bins, ratio):
        assert_split_softplus_matrix(bins, ratio, VISITED[bins, ratio])

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_matrix_over_alpha_sweep(self, ratio):
        assert_split_softplus_matrix(513, ratio, ALPHA_SWEEP)

    @pytest.mark.slow
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_matrix_over_alpha_sweep_2049(self, ratio):
        assert_split_softplus_matrix(2049, ratio, ALPHA_SWEEP)


class TestQuadratureTable:
    def test_arrays_are_scipys_bytes(self):
        # the table holds what scipy 1.17.1 computes; another scipy may
        # differ from it in the last bits
        frozen, fresh = channel._quadrature(), quadrature_table()
        assert sorted(frozen) == sorted(fresh)
        for name, a in fresh.items():
            assert frozen[name].dtype == a.dtype and frozen[name].shape == a.shape, name
            if scipy.__version__ == "1.17.1":
                assert frozen[name].tobytes() == a.tobytes(), name
            else:
                np.testing.assert_allclose(frozen[name], a, rtol=1e-13, atol=1e-300, err_msg=name)

    def test_order_outside_the_table_rejected(self):
        with pytest.raises(ValueError, match="order 64"):
            channel.gauss_hermite(64)

    def test_table_is_package_data(self):
        # found through the package's resources, as in an installed copy,
        # and named in the package data an install copies
        assert resources.files("macsat").joinpath(channel.QUADRATURE_TABLE).is_file()
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
            package_data = tomllib.load(f)["tool"]["setuptools"]["package-data"]
        assert channel.QUADRATURE_TABLE in package_data["macsat"]


class TestMutualInfos:
    def test_zero_gain(self):
        i1, i2, isum = mac_mutual_infos(ChannelPoint(0.0, 1.0))
        assert (i1, i2, isum) == (pytest.approx(0.0, abs=1e-12),) * 3

    def test_large_gain_saturates(self):
        i1, _, _ = mac_mutual_infos(ChannelPoint(12.0, 0.25))
        assert i1 == pytest.approx(1.0, abs=1e-6)

    def test_monotone_along_ray(self):
        vals = [mac_mutual_infos(ChannelPoint(a, 0.7)) for a in (0.3, 0.6, 1.0, 1.5, 2.5)]
        for (a1, b1, c1), (a2, b2, c2) in zip(vals, vals[1:]):
            assert a2 >= a1 - 1e-9 and b2 >= b1 - 1e-9 and c2 >= c1 - 1e-9

    def test_max_single_below_sum(self):
        for alpha, ratio in ((0.8, 0.5), (1.3, 1.0), (1.1, 2.0)):
            i1, i2, isum = mac_mutual_infos(ChannelPoint(alpha, ratio))
            assert max(i1, i2) <= isum + 1e-9

    def test_single_user_constraint_anchor(self):
        # I1 = 1/2 at h1 near 1.022 (rendered as 1.03 on a 0.01-grid plot)
        alpha = mac_acpr_point((0.5, 0.5), 1000.0)
        assert alpha == pytest.approx(1.0218, abs=5e-3)


class TestBisect:
    def test_width_finer_than_the_doubles_ends(self):
        # once lo and hi are adjacent doubles no midpoint lies between them
        alpha = bisect(lambda a: a >= 1.0, 0.0, 2.0, 1e-300)
        assert np.nextafter(1.0, 0.0) <= alpha <= 1.0


class TestBoundary:
    def test_symmetric_point(self):
        alpha = mac_acpr_point((0.5, 0.5), 1.0)
        assert alpha == pytest.approx(1.26, abs=0.01)

    def test_corner(self):
        # at large A the corner sits at (1.03-ish, ~1.45)
        pts = ray_boundary(partial(mac_acpr_point, (0.5, 0.5)), [1.42])
        h1, h2 = pts[0]
        assert h2 == pytest.approx(1.42 * h1, rel=1e-12)

    def test_mirror_symmetry(self):
        a = mac_acpr_point((0.5, 0.5), 0.6)
        b = mac_acpr_point((0.5, 0.5), 1 / 0.6)
        # (h1, h2) of one ray mirrors the other
        assert a == pytest.approx(b / 0.6, abs=5e-4)

    def test_infeasible_ray(self):
        with pytest.raises(InfeasibleRayError):
            mac_acpr_point((0.5, 0.5), 0.0)


# the per-ray job of each boundary the CLI sweeps, bound as the CLI binds it
JOB_GRID = DensityGrid(30.0 / 64.0, 30.0)
JOBS = {
    "mac": partial(mac_acpr_point, (0.5, 0.5), tol=1e-4),
    "bp": partial(threshold_alpha, regular(3, 6), tol=5e-3, grid=JOB_GRID),
    "coupled": partial(threshold_alpha, CoupledSpec(3, 6, 4, 2), tol=5e-3, grid=JOB_GRID),
    "map": partial(map_bound_alpha, regular(3, 6), grid=JOB_GRID, step=0.1, bins=16),
}


def pickling_map(job, items):
    """Stands in for a worker pool's map: the job must survive pickling, as
    it would on its way to a worker; returns alpha = 1 per item unevaluated."""
    pickle.loads(pickle.dumps(job))
    return [1.0 for _ in items]


class TestRaySweeps:
    @pytest.mark.parametrize("sweep", JOBS)
    def test_job_pickles_and_rays_read_once(self, sweep):
        pts = ray_boundary(JOBS[sweep], iter([0.5, 2.0]), pickling_map)
        assert pts == [(1.0, 0.5), (1.0, 2.0)]

    @pytest.mark.parametrize("sweep", JOBS)
    def test_empty_ray_grid_rejected(self, sweep):
        with pytest.raises(ValueError, match="empty ray grid"):
            ray_boundary(JOBS[sweep], [], map)
