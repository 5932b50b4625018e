import numpy as np
import pytest

from macsat.densities import (
    BoxPlusTable,
    DensityGrid,
    GridMismatchError,
    conv_cn,
    conv_vn,
    delta_at,
    delta_inf,
    delta_neg_inf,
    delta_zero,
    entropy,
    error_prob,
    make_density,
    mix,
    poly_cn,
    poly_vn,
    poly_vn_node,
    power_cn,
    power_vn,
    symmetry_residual,
)

from conftest import random_density
from oracles import BandBoxPlusTable, boxplus_scalar


class TestGrid:
    def test_bin_count_odd_and_centered(self):
        g = DensityGrid(bin_width=30 / 2048, half_range=30.0)
        assert g.n_bins == 4097
        assert g.n_bins == 2 * g.k_max + 1
        centers = g.centers()
        assert centers[g.center] == 0.0
        np.testing.assert_allclose(centers, -centers[::-1])

    def test_mismatch_raises(self, tiny_grid):
        other = DensityGrid(0.5, 8.0)
        with pytest.raises(GridMismatchError):
            conv_vn(delta_zero(tiny_grid), delta_zero(other))
        with pytest.raises(GridMismatchError):
            conv_cn(delta_zero(tiny_grid), delta_zero(other))


class TestDeltas:
    def test_delta_inf(self, tiny_grid):
        d = delta_inf(tiny_grid)
        assert d.mass_pos_inf == 1.0
        assert d.mass.sum() == 0.0
        assert entropy(d) == 0.0
        assert error_prob(d) == 0.0

    def test_delta_zero(self, tiny_grid):
        d = delta_zero(tiny_grid)
        assert d.mass[tiny_grid.center] == 1.0
        assert entropy(d) == pytest.approx(1.0)
        assert error_prob(d) == pytest.approx(0.5)


class TestConvVn:
    def test_zero_is_identity(self, tiny_grid):
        rng = np.random.default_rng(1)
        a = random_density(tiny_grid, rng)
        out = conv_vn(delta_zero(tiny_grid), a)
        np.testing.assert_allclose(out.mass, a.mass, atol=1e-14)

    def test_inf_absorbs(self, tiny_grid):
        rng = np.random.default_rng(2)
        a = random_density(tiny_grid, rng, inf_mass=0.0)
        out = conv_vn(delta_inf(tiny_grid), a)
        assert out.mass_pos_inf == pytest.approx(1.0)

    def test_pos_inf_meets_neg_inf_at_zero(self, tiny_grid):
        out = conv_vn(delta_inf(tiny_grid), delta_neg_inf(tiny_grid))
        assert out.mass[tiny_grid.center] == pytest.approx(1.0)

    def test_gaussian_sum_monte_carlo(self):
        # symmetric N(m, 2m) inputs: sum has mean m1+m2, variance 2(m1+m2)
        grid = DensityGrid(30 / 512, 30.0)
        z = grid.centers()
        m1, m2 = 2.0, 3.5

        def gauss(m):
            raw = np.exp(-0.25 * (z - m) ** 2 / m)
            return make_density(grid, raw / raw.sum())

        out = conv_vn(gauss(m1), gauss(m2))
        rng = np.random.default_rng(3)
        n = 10**6
        samples = rng.normal(m1, np.sqrt(2 * m1), n) + rng.normal(m2, np.sqrt(2 * m2), n)
        mean_num = float(out.mass @ z)
        var_num = float(out.mass @ z**2) - mean_num**2
        assert mean_num == pytest.approx(samples.mean(), abs=3e-2)
        assert var_num == pytest.approx(samples.var(), rel=2e-2)


class TestConvCn:
    def test_inf_is_identity(self, tiny_grid):
        rng = np.random.default_rng(4)
        a = random_density(tiny_grid, rng)
        out = conv_cn(delta_inf(tiny_grid), a)
        np.testing.assert_allclose(out.mass, a.mass, atol=1e-14)
        assert out.mass_pos_inf == pytest.approx(a.mass_pos_inf)

    def test_zero_absorbs(self, tiny_grid):
        rng = np.random.default_rng(5)
        a = random_density(tiny_grid, rng)
        out = conv_cn(delta_zero(tiny_grid), a)
        assert out.mass[tiny_grid.center] == pytest.approx(1.0)

    def test_two_point_closed_form(self, tiny_grid):
        # (1-p) at +mu, p at -mu boxplussed with itself
        mu, p = 3.0, 0.12
        a = mix([delta_at(tiny_grid, mu), delta_at(tiny_grid, -mu)], [1 - p, p])
        out = conv_cn(a, a)
        target = boxplus_scalar(mu, mu)
        k = tiny_grid.llr_to_index(np.array([target]))[0]
        assert out.mass[k] == pytest.approx((1 - p) ** 2 + p**2)
        assert out.mass[2 * tiny_grid.center - k] == pytest.approx(2 * p * (1 - p))
        assert abs(tiny_grid.centers()[k] - target) <= tiny_grid.bin_width / 2

    def test_matches_pairwise_brute_force(self, tiny_grid):
        rng = np.random.default_rng(6)
        a = random_density(tiny_grid, rng)
        b = random_density(tiny_grid, rng)
        ref = np.zeros(tiny_grid.n_bins)
        z = tiny_grid.centers()
        for i in range(tiny_grid.n_bins):
            for j in range(tiny_grid.n_bins):
                w = a.mass[i] * b.mass[j]
                if w == 0.0:
                    continue
                k = int(np.floor(boxplus_scalar(z[i], z[j]) / tiny_grid.bin_width + 0.5))
                ref[k + tiny_grid.center] += w
        out = conv_cn(
            make_density(tiny_grid, a.mass / a.mass.sum()),
            make_density(tiny_grid, b.mass / b.mass.sum()),
        )
        np.testing.assert_allclose(
            out.mass, ref / (a.mass.sum() * b.mass.sum()), atol=1e-12
        )


def max_rel_diff(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


class TestBoxPlusTable:
    @pytest.mark.parametrize("bins", [513, 2049])
    def test_matches_band_table(self, bins):
        # random signed inputs, as in the (p - n) pass
        grid = DensityGrid(bin_width=60.0 / (bins - 1), half_range=30.0)
        tab, ref = BoxPlusTable(grid), BandBoxPlusTable(grid)
        rng = np.random.default_rng(bins)
        for _ in range(4):
            p = rng.standard_normal(grid.k_max + 1)
            q = rng.standard_normal(grid.k_max + 1)
            assert max_rel_diff(tab.magnitude_op(p, q), ref.magnitude_op(p, q)) <= 1e-12
        # nonnegative inputs, as in the (p + n) pass
        p, q = rng.random(grid.k_max + 1), rng.random(grid.k_max + 1)
        assert max_rel_diff(tab.magnitude_op(p, q), ref.magnitude_op(p, q)) <= 1e-12

    @pytest.mark.parametrize("bin_width", [2.0, 0.25, 30.0 / 256.0, 30.0 / 1024.0])
    def test_every_pair_counted_once(self, bin_width):
        grid = DensityGrid(bin_width=bin_width, half_range=30.0)
        k = grid.k_max
        ones = np.ones(k + 1)
        assert BoxPlusTable(grid).magnitude_op(ones, ones).sum() == k * k

    @pytest.mark.parametrize("bin_width, half_range", [(0.25, 8.0), (0.05, 2.0)])
    def test_pairs_match_scalar_boxplus(self, bin_width, half_range):
        grid = DensityGrid(bin_width=bin_width, half_range=half_range)
        tab = BoxPlusTable(grid)
        k, d = grid.k_max, grid.bin_width
        eye = np.eye(k + 1)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                out = tab.magnitude_op(eye[i], eye[j])
                want = max(int(np.floor(boxplus_scalar(i * d, j * d) / d + 0.5)), 0)
                assert np.flatnonzero(out).tolist() == [want]
                assert out[want] == 1.0


class TestAlgebraProperties:
    def test_mass_conservation_random_chains(self, tiny_grid):
        rng = np.random.default_rng(7)
        dens = random_density(tiny_grid, rng)
        for _ in range(200):
            other = random_density(tiny_grid, rng)
            dens = conv_vn(dens, other) if rng.random() < 0.5 else conv_cn(dens, other)
            assert abs(dens.total_mass - 1.0) < 1e-9
            assert dens.mass.min() >= 0.0

    def test_commutativity(self, tiny_grid):
        rng = np.random.default_rng(8)
        a, b = (random_density(tiny_grid, rng) for _ in range(2))
        for op in (conv_vn, conv_cn):
            ab, ba = op(a, b), op(b, a)
            assert np.abs(ab.mass - ba.mass).max() < 1e-8

    def test_associativity_conv_vn(self, tiny_grid):
        # linear convolution reassociates to float roundoff as long as no
        # intermediate mass reaches the fold boundary (support 3*2 < 8 here)
        rng = np.random.default_rng(9)

        def central(seed_shift):
            mass = np.zeros(tiny_grid.n_bins)
            lo, hi = tiny_grid.center - 8, tiny_grid.center + 9
            mass[lo:hi] = rng.random(17)
            return make_density(tiny_grid, mass / mass.sum())

        a, b, c = (central(i) for i in range(3))
        left = conv_vn(conv_vn(a, b), c)
        right = conv_vn(a, conv_vn(b, c))
        assert np.abs(left.mass - right.mass).max() < 1e-8

    def test_associativity_conv_cn_within_quantization(self, tiny_grid):
        # the table method requantizes after every product, so reassociation
        # moves mass between adjacent bins; the deviation scales with the bin
        # width rather than reaching float accuracy
        rng = np.random.default_rng(9)
        a, b, c = (random_density(tiny_grid, rng, symmetric=True) for _ in range(3))
        left = conv_cn(conv_cn(a, b), c)
        right = conv_cn(a, conv_cn(b, c))
        assert np.abs(left.mass - right.mass).max() < 0.3 * tiny_grid.bin_width

    def test_symmetry_preservation(self, tiny_grid):
        rng = np.random.default_rng(10)
        a = random_density(tiny_grid, rng, symmetric=True)
        b = random_density(tiny_grid, rng, symmetric=True)
        tol = 10 * tiny_grid.bin_width
        for op in (conv_vn, conv_cn):
            out = op(a, b)
            assert symmetry_residual(out) < tol

    def test_entropy_decreases_under_symmetric_conv(self, tiny_grid):
        rng = np.random.default_rng(11)
        a = random_density(tiny_grid, rng, symmetric=True)
        b = random_density(tiny_grid, rng, symmetric=True)
        assert entropy(conv_vn(a, b)) <= entropy(a) + 1e-12


class TestPolynomials:
    def test_regular_variable(self, tiny_grid):
        rng = np.random.default_rng(12)
        a = random_density(tiny_grid, rng)
        out = poly_vn([0, 0, 0, 1.0], a)  # lambda(x) = x^2
        ref = conv_vn(a, a)
        np.testing.assert_allclose(out.mass, ref.mass, atol=1e-12)

    def test_regular_check_on_delta_inf(self, tiny_grid):
        out = poly_cn([0, 0, 0, 0, 0, 1.0], delta_inf(tiny_grid))  # rho = x^5
        assert out.mass_pos_inf == 1.0

    def test_mixture_against_direct_arithmetic(self):
        # lambda(x) = 0.5 + 0.5 x on a 3-bin toy grid: 0.5*delta_0 + 0.5*a
        grid = DensityGrid(1.0, 1.0)
        assert grid.n_bins == 3
        a = make_density(grid, [0.2, 0.3, 0.5])
        out = poly_vn([0, 0.5, 0.5], a)
        expect = 0.5 * np.array([0.0, 1.0, 0.0]) + 0.5 * a.mass
        np.testing.assert_allclose(out.mass, expect, atol=1e-15)

    def test_node_perspective_power(self, tiny_grid):
        rng = np.random.default_rng(13)
        a = random_density(tiny_grid, rng)
        out = poly_vn_node([0, 0, 0, 1.0], a)  # L(x) = x^3: all three edges
        ref = conv_vn(conv_vn(a, a), a)
        np.testing.assert_allclose(out.mass, ref.mass, atol=1e-12)

    def test_unnormalized_rejected(self, tiny_grid):
        a = delta_zero(tiny_grid)
        with pytest.raises(ValueError):
            poly_vn([0, 0.5, 0.6], a)
        with pytest.raises(ValueError):
            poly_cn([0.2, 0.8], a)

    def test_powers(self, tiny_grid):
        rng = np.random.default_rng(14)
        a = random_density(tiny_grid, rng)
        np.testing.assert_allclose(
            power_vn(a, 3).mass, conv_vn(conv_vn(a, a), a).mass, atol=1e-12
        )
        np.testing.assert_allclose(
            power_cn(a, 3).mass, conv_cn(conv_cn(a, a), a).mass, atol=1e-12
        )
        assert power_vn(a, 0).mass[tiny_grid.center] == 1.0
        assert power_cn(a, 0).mass_pos_inf == 1.0


class TestFunctionals:
    def test_entropy_two_point(self, tiny_grid):
        mu, p = 2.0, 0.2
        a = mix([delta_at(tiny_grid, mu), delta_at(tiny_grid, -mu)], [1 - p, p])
        expect = (1 - p) * np.log2(1 + np.exp(-mu)) + p * np.log2(1 + np.exp(mu))
        assert entropy(a) == pytest.approx(expect, rel=1e-12)

    def test_error_prob_counts_negatives_and_half_zero(self, tiny_grid):
        a = mix(
            [delta_at(tiny_grid, 1.0), delta_at(tiny_grid, -1.0), delta_zero(tiny_grid)],
            [0.5, 0.3, 0.2],
        )
        assert error_prob(a) == pytest.approx(0.3 + 0.1)
