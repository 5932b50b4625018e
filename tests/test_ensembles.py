from fractions import Fraction

import numpy as np
import pytest

from macsat.ensembles import (
    CoupledSpec,
    EnsembleSpec,
    design_rate,
    named_ensemble,
    parse_ensemble_config,
    regular,
)


def exact_coupled_rate(l, r, L, w) -> Fraction:
    """Independent oracle: the rate formula evaluated in exact rationals."""
    ratio = Fraction(l, r)
    s = sum(Fraction(i, w) ** r for i in range(w + 1))
    return (1 - ratio) - ratio * ((w + 1) - 2 * s) / (2 * L + 1)


class TestDesignRate:
    def test_regular_36(self):
        assert design_rate(regular(3, 6)) == pytest.approx(0.5)

    def test_regular_48(self):
        assert design_rate(regular(4, 8)) == pytest.approx(0.5)

    def test_irregular_hand_integrated(self):
        # lambda = 0.5 x + 0.5 x^2, rho = x^5:
        # 1 - (1/6) / (0.5/2 + 0.5/3) = 0.6
        ens = EnsembleSpec([0, 0, 0.5, 0.5], [0, 0, 0, 0, 0, 0, 1.0])
        expect = 1 - Fraction(1, 6) / (Fraction(1, 4) + Fraction(1, 6))
        assert design_rate(ens) == pytest.approx(float(expect))
        assert float(expect) == pytest.approx(0.6)

    def test_normalization_invariance(self):
        # scaling lambda by a constant then renormalizing leaves the rate alone
        lam = np.array([0, 0.2, 0.5, 0.3])
        ens1 = EnsembleSpec(lam, [0, 0, 0, 0, 1.0])
        ens2 = EnsembleSpec(3.7 * lam / (3.7 * lam).sum(), [0, 0, 0, 0, 1.0])
        assert design_rate(ens1) == pytest.approx(design_rate(ens2), rel=1e-12)

    def test_node_perspective(self):
        ens = EnsembleSpec([0, 0, 0.5, 0.5], [0, 0, 0, 0, 0, 1.0])
        L = ens.node_lambda
        # L_i proportional to lambda_i / i
        expect = np.array([0, 0, 0.25, 1 / 6.0])
        expect /= expect.sum()
        np.testing.assert_allclose(L, expect)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec([0, 0.5, 0.6], [0, 0, 1.0])
        with pytest.raises(ValueError):
            EnsembleSpec([0.1, 0.9], [0, 0, 1.0])
        with pytest.raises(ValueError):
            regular(6, 3)


class TestCoupledRate:
    def test_large_l_limit(self):
        assert design_rate(CoupledSpec(3, 6, 100000, 2)) == pytest.approx(0.5, abs=1e-4)

    def test_3_6_16_2_exact(self):
        expect = exact_coupled_rate(3, 6, 16, 2)
        got = design_rate(CoupledSpec(3, 6, 16, 2))
        assert got == pytest.approx(float(expect), abs=1e-12)
        assert got == pytest.approx(0.485322, abs=5e-7)

    def test_3_6_32_4_exact_rational(self):
        expect = exact_coupled_rate(3, 6, 32, 4)
        got = design_rate(CoupledSpec(3, 6, 32, 4))
        assert got == pytest.approx(float(expect), abs=1e-12)

    def test_rate_loss_halves_when_l_doubles(self):
        base = design_rate(regular(3, 6))
        loss16 = base - design_rate(CoupledSpec(3, 6, 16, 2))
        loss32 = base - design_rate(CoupledSpec(3, 6, 32, 2))
        assert loss16 > 0 and loss32 > 0
        assert loss16 / loss32 == pytest.approx(2.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoupledSpec(1, 6, 4, 2)
        with pytest.raises(ValueError):
            CoupledSpec(3, 6, 0, 2)
        with pytest.raises(ValueError):
            CoupledSpec(3, 6, 4, 2, M=61)  # l*M not divisible by r


class TestConfig:
    def test_regular_roundtrip(self):
        ens = parse_ensemble_config("kind=regular\nl=3\nr=6\n")
        assert isinstance(ens, EnsembleSpec)
        assert design_rate(ens) == pytest.approx(0.5)

    def test_irregular(self):
        text = "kind=irregular\nlambda=[0, 0, 0.5, 0.5]\nrho=[0,0,0,0,0,1.0]\n"
        ens = parse_ensemble_config(text)
        np.testing.assert_allclose(ens.lambda_coeffs, [0, 0, 0.5, 0.5])

    def test_coupled(self):
        spec = parse_ensemble_config("kind=coupled\nl=3\nr=6\nL=16\nw=2\nM=120\n")
        assert spec == CoupledSpec(3, 6, 16, 2, M=120)

    def test_errors_carry_line_info(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_ensemble_config("kind=regular\nbogus line\n")

    def test_named(self):
        assert design_rate(named_ensemble("reg48")) == pytest.approx(0.5)
        with pytest.raises(KeyError):
            named_ensemble("nope")
