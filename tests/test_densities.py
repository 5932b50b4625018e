import pickle

import numpy as np
import pytest

from macsat.cli import _grid, build_parser
from macsat.densities import (
    BoxPlusTable,
    DensityGrid,
    GridMismatchError,
    LlrDensity,
    conv_cn,
    conv_vn,
    delta_inf,
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
from oracles import (
    BandBoxPlusTable,
    boxplus_scalar,
    delta_at,
    delta_neg_inf,
    fftconvolve_conv_vn,
    total_mass,
)


class TestGrid:
    def test_bin_count_odd_and_centered(self):
        g = DensityGrid(bin_width=30 / 2048, half_range=30.0)
        assert g.n_bins == 4097
        assert g.n_bins == 2 * g.k_max + 1
        centers = g.centers()
        assert centers[g.center] == 0.0
        np.testing.assert_allclose(centers, -centers[::-1])

    def test_k_max_computed_once(self):
        g = DensityGrid(bin_width=30 / 1024, half_range=30.0)
        assert vars(g)["k_max"] == 1024  # cached on the instance at construction
        assert g.n_bins == 2049 and g.center == 1024

    def test_equality_hash_and_pickle_see_only_the_fields(self):
        g = DensityGrid(bin_width=30 / 256, half_range=30.0)
        assert g.fft_len == 1080  # fills the second cached value
        fresh = DensityGrid(bin_width=30 / 256, half_range=30.0)
        assert g == fresh and hash(g) == hash(fresh)
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g)
        assert (back.k_max, back.n_bins, back.center) == (g.k_max, g.n_bins, g.center)
        assert {back: 1}[fresh] == 1

    @pytest.mark.parametrize("bins", [3, 65, 129, 513, 2049, 4097])
    def test_k_max_matches_cli_grid_shapes(self, bins):
        args = build_parser().parse_args(["threshold", "--grid-bins", str(bins)])
        g = _grid(args)
        assert g.k_max == (bins - 1) // 2 and g.n_bins == bins
        assert g.centers()[g.center] == 0.0 and g.centers()[-1] == pytest.approx(30.0)

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


def same_bits(x, y) -> bool:
    return (
        x.mass.tobytes() == y.mass.tobytes()
        and x.mass_pos_inf == y.mass_pos_inf
        and x.mass_neg_inf == y.mass_neg_inf
    )


class TestConvVnSpectrum:
    @pytest.mark.parametrize("bins,fft_len", [(513, 1080), (2049, 4320), (4097, 8640)])
    def test_fft_len_is_fast_length_of_full_convolution(self, bins, fft_len):
        assert DensityGrid(bin_width=60.0 / (bins - 1), half_range=30.0).fft_len == fft_len

    @pytest.mark.parametrize("bins", [513, 2049, 4097])
    def test_matches_fftconvolve_bytes(self, bins):
        grid = DensityGrid(bin_width=60.0 / (bins - 1), half_range=30.0)
        rng = np.random.default_rng(bins)
        a, b = random_density(grid, rng, inf_mass=0.2), random_density(grid, rng, inf_mass=0.2)
        ab = conv_vn(a, b)
        d0, dinf, dneg = delta_zero(grid), delta_inf(grid), delta_neg_inf(grid)
        cases = [
            (a, b), (b, a), (a, a), (ab, a), (ab, ab),  # fresh and cached spectra
            (d0, a), (a, d0), (dinf, dinf), (dinf, a), (a, dneg), (dinf, dneg),
        ]  # fmt: skip
        for x, y in cases:
            assert same_bits(conv_vn(x, y), fftconvolve_conv_vn(x, y))
        # a spectrum computed before a call is the one the call would compute
        fresh = LlrDensity(grid, a.mass.copy(), a.mass_pos_inf, a.mass_neg_inf)
        assert same_bits(conv_vn(fresh, b), conv_vn(a, b))

    def test_square_transforms_once(self, monkeypatch):
        # count pocketfft's real forward transforms, the calls below any
        # scipy.fft or scipy.signal entry point
        from scipy.fft._pocketfft import pypocketfft

        r2c = pypocketfft.r2c
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return r2c(*args, **kwargs)

        monkeypatch.setattr(pypocketfft, "r2c", counted)
        grid = DensityGrid(bin_width=60.0 / 2048, half_range=30.0)
        a = random_density(grid, np.random.default_rng(5))
        power_vn(a, 2)
        assert len(calls) == 1
        power_vn(a, 3)  # a^2 once more, then a^2 * a: only a^2 is new
        assert len(calls) == 2


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


class TestSquaringPass:
    """magnitude_op(p, p) takes the squaring branch; its bits must be those
    of the general pass on two equal arrays."""

    # the last grid's band is D = 0 alone: every other diagonal is settled
    GRIDS = [
        DensityGrid(bin_width=60.0 / 512, half_range=30.0),
        DensityGrid(bin_width=60.0 / 2048, half_range=30.0),
        DensityGrid(bin_width=60.0 / 4096, half_range=30.0),
        DensityGrid(bin_width=2.0, half_range=20.0),
    ]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.n_bins}bins")
    def test_square_matches_general_pass(self, grid):
        tab = BoxPlusTable(grid)
        rng = np.random.default_rng(grid.n_bins)
        for p in (rng.standard_normal(grid.k_max + 1), rng.random(grid.k_max + 1)):
            assert tab.magnitude_op(p, p).tobytes() == tab.magnitude_op(p, p.copy()).tobytes()

    def test_band_of_the_diagonal_alone(self):
        tab = BoxPlusTable(self.GRIDS[-1])
        assert tab.n_pairs == tab.n_diag == self.GRIDS[-1].k_max

    @pytest.mark.parametrize("grid", GRIDS[:2] + GRIDS[3:], ids=lambda g: f"{g.n_bins}bins")
    def test_conv_cn_square_matches_two_operands(self, grid):
        rng = np.random.default_rng(grid.n_bins + 1)
        a = random_density(grid, rng, inf_mass=0.2)
        twin = LlrDensity(grid, a.mass.copy(), a.mass_pos_inf, a.mass_neg_inf)
        assert same_bits(conv_cn(a, a), conv_cn(a, twin))

    def test_power_cn_five_squares_twice(self, monkeypatch):
        # x^5 = x * (x^2)^2: three real combines, two of them squarings
        grid = DensityGrid(bin_width=60.0 / 512, half_range=30.0)
        calls = []
        op = BoxPlusTable.magnitude_op

        def counted(tab, p, q):
            calls.append(q is p)
            return op(tab, p, q)

        monkeypatch.setattr(BoxPlusTable, "magnitude_op", counted)
        power_cn(random_density(grid, np.random.default_rng(9)), 5)
        assert calls == [True] * 4 + [False] * 2


class TestAlgebraProperties:
    def test_mass_conservation_random_chains(self, tiny_grid):
        rng = np.random.default_rng(7)
        dens = random_density(tiny_grid, rng)
        for _ in range(200):
            other = random_density(tiny_grid, rng)
            dens = conv_vn(dens, other) if rng.random() < 0.5 else conv_cn(dens, other)
            assert abs(total_mass(dens) - 1.0) < 1e-9
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
        # a defect of 1e-8 is beyond roundoff (the kernels stay below 1e-14)
        with pytest.raises(ValueError):
            make_density(tiny_grid, a.mass * (1.0 + 1e-8))

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
