"""End-to-end acceptance gate.

Every criterion runs at its stated tolerance and prints one PASS/FAIL line;
run with:  pytest -m acceptance -s -v tests/test_acceptance.py

The full gate recomputes thresholds, the area-theorem bound, coupled drop
points, capacity anchors and the Monte-Carlo brackets from scratch; expect a
few hours of compute on a desk machine.
"""

import time
from functools import partial

import numpy as np
import pytest

from macsat.channel import ChannelPoint, bawgn_density, fn_operator, mac_acpr_point
from macsat.cli import _pmap
from macsat.densities import (
    DensityGrid,
    conv_cn,
    conv_vn,
    default_grid,
    delta_inf,
    delta_zero,
    symmetry_residual,
)
from macsat.ensembles import CoupledSpec, regular
from macsat.gexit import map_bound_sweep
from macsat.jointde import bp_threshold, threshold_alpha
from macsat.mcsim import build_joint, build_regular, simulate_joint

from conftest import random_density
from oracles import de_mc_crosscheck, dp_dalpha, nu, total_mass

pytestmark = [pytest.mark.acceptance, pytest.mark.slow]

GRID_FULL = default_grid()  # 4097 bins, the default
GRID_MID = DensityGrid(30.0 / 1024.0, 30.0)  # coupled sweeps
GRID_SMALL = DensityGrid(30.0 / 256.0, 30.0)  # w=1 agreement check


def announce(criterion: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, f"{criterion}: {detail}"


# shared heavy artifacts -----------------------------------------------------


@pytest.fixture(scope="session")
def area_bound_36():
    """alpha_bar for (3,6) at A=1 on the full grid (criterion 2, reused by 3/5)."""
    t0 = time.time()
    bound, samples = map_bound_sweep(regular(3, 6), 1.0, grid=GRID_FULL)
    return {"bound": bound, "samples": samples, "seconds": time.time() - t0}


@pytest.fixture(scope="session")
def coupled_thresholds():
    """The three criterion-3 coupled thresholds, two spawned workers."""
    specs = [CoupledSpec(3, 6, 16, 2), CoupledSpec(3, 6, 32, 4), CoupledSpec(4, 8, 16, 3)]
    job = partial(threshold_alpha, ratio=1.0, tol=4e-3, grid=GRID_MID)
    with _pmap(2) as pmap:
        alphas = pmap(job, specs)
    return {(s.l, s.r, s.L, s.w): alpha for s, alpha in zip(specs, alphas)}


# criteria --------------------------------------------------------------------


class TestCriterion1:
    def test_uncoupled_bp_threshold(self):
        t0 = time.time()
        res = bp_threshold(regular(3, 6), 1.0, tol=5e-3, grid=GRID_FULL)
        elapsed = time.time() - t0
        ok = abs(res.alpha - 1.69) <= 0.02 and elapsed <= 1800
        announce(
            "1 (BP threshold)",
            ok,
            f"alpha_bp = {res.alpha:.4f} (target 1.69 +- 0.02), {elapsed:.0f}s "
            f"of 1800s budget, {res.iterations} DE iterations",
        )


class TestCriterion2:
    def test_area_theorem_bound(self, area_bound_36):
        bound = area_bound_36["bound"]
        samples = area_bound_36["samples"]
        elapsed = area_bound_36["seconds"]
        # independent re-integration of the emitted curve up to the bound
        pts = [(a, g) for a, g in samples if a <= bound + 1e-12]
        alphas = np.array([p[0] for p in pts] + [bound])
        gs = np.interp(alphas, [p[0] for p in samples], [p[1] for p in samples])
        integral = float(np.trapezoid(-gs, alphas))
        ok = abs(bound - 1.2629) <= 0.01 and abs(integral - 1.0) <= 0.01 and elapsed <= 7200
        announce(
            "2 (MAP bound)",
            ok,
            f"alpha_bar = {bound:.4f} (target 1.2629 +- 0.01), "
            f"integral = {integral:.4f} (target 1.0 +- 0.01), {elapsed:.0f}s of 7200s",
        )


class TestCriterion3:
    def test_saturation_3_6_16_2(self, coupled_thresholds):
        thr = coupled_thresholds[(3, 6, 16, 2)]
        ok = abs(thr - 1.264) <= 0.015
        announce(
            "3a (coupled 3,6,16,2)", ok, f"threshold = {thr:.4f} (target 1.264 +- 0.015)"
        )

    def test_saturation_3_6_32_4(self, coupled_thresholds, area_bound_36):
        thr = coupled_thresholds[(3, 6, 32, 4)]
        bound = area_bound_36["bound"]
        ok = abs(thr - bound) <= 0.01
        announce(
            "3b (coupled 3,6,32,4)",
            ok,
            f"threshold = {thr:.4f} within 0.01 of alpha_bar = {bound:.4f} "
            f"(paper drop point 1.26)",
        )

    def test_saturation_4_8_16_3(self, coupled_thresholds):
        thr = coupled_thresholds[(4, 8, 16, 3)]
        uncoupled = bp_threshold(regular(4, 8), 1.0, tol=5e-3, grid=GRID_MID).alpha
        bound48, _ = map_bound_sweep(regular(4, 8), 1.0, grid=GRID_MID)
        ok = thr < uncoupled and abs(thr - bound48) <= 0.03
        announce(
            "3c (coupled 4,8,16,3)",
            ok,
            f"threshold = {thr:.4f} vs uncoupled {uncoupled:.4f} "
            f"(must improve) and area bound {bound48:.4f} (+- 0.03)",
        )


class TestCriterion4:
    def test_capacity_anchors(self):
        t0 = time.time()
        asymptote = mac_acpr_point((0.5, 0.5), 1000.0)
        symmetric = mac_acpr_point((0.5, 0.5), 1.0)
        elapsed = time.time() - t0
        ok = abs(asymptote - 1.03) <= 0.01 and abs(symmetric - 1.26) <= 0.01 and elapsed <= 60
        announce(
            "4 (MAC-ACPR)",
            ok,
            f"asymptote = {asymptote:.4f} (1.03 +- 0.01), symmetric = {symmetric:.4f} "
            f"(1.26 +- 0.01), {elapsed:.1f}s of 60s",
        )


class TestCriterion5:
    def test_near_universality_rays(self, area_bound_36):
        details = []
        ok = True
        for ray in (0.5, 1.0, 2.0):
            if ray == 1.0:
                bound = area_bound_36["bound"]
            else:
                bound, _ = map_bound_sweep(regular(3, 6), ray, grid=GRID_MID)
            mac = mac_acpr_point((0.5, 0.5), ray)
            dist = abs(bound - mac) * np.hypot(1.0, ray)
            details.append(f"A={ray}: |({bound:.4f})-({mac:.4f})|*|ray| = {dist:.4f}")
            ok = ok and dist <= 0.05
        announce("5 (near-universality)", ok, "; ".join(details))


class TestCriterion6:
    def test_property_suites(self):
        rng = np.random.default_rng(2024)
        grid = DensityGrid(0.25, 8.0)

        # 10^3 random operation chains: mass and symmetry preservation
        dens = random_density(grid, rng, symmetric=True)
        sym_partner = random_density(grid, rng, symmetric=True)
        for k in range(1000):
            op = conv_vn if rng.random() < 0.5 else conv_cn
            dens = op(dens, sym_partner)
            assert abs(total_mass(dens) - 1.0) < 1e-9
            if k % 100 == 0:
                assert symmetry_residual(dens) < 10 * grid.bin_width

        # conv identities
        a = random_density(grid, rng)
        assert np.abs(conv_cn(delta_inf(grid), a).mass - a.mass).max() < 1e-14
        assert conv_cn(delta_zero(grid), a).mass[grid.center] == pytest.approx(1.0)
        assert np.abs(conv_vn(delta_zero(grid), a).mass - a.mass).max() < 1e-14

        # function-node analytic reductions, Kolmogorov < 0.01
        def kolmogorov(x, y):
            cx = np.concatenate(([x.mass_neg_inf], x.mass_neg_inf + np.cumsum(x.mass)))
            cy = np.concatenate(([y.mass_neg_inf], y.mass_neg_inf + np.cumsum(y.mass)))
            return np.abs(cx - cy).max()

        partner = random_density(GRID_MID, rng, symmetric=True)
        ks1 = kolmogorov(
            fn_operator(GRID_MID, 1, ChannelPoint(1.3, 0.0)).apply(partner),
            bawgn_density(GRID_MID, 1.3),
        )
        ks2 = kolmogorov(
            fn_operator(GRID_MID, 1, ChannelPoint(1.0, 1.0)).apply(delta_inf(GRID_MID)),
            bawgn_density(GRID_MID, 1.0),
        )

        # dp_dalpha against finite differences
        ys = np.linspace(-6, 6, 41)
        rel = 0.0
        for x in range(4):
            eps = 1e-5
            fd = (
                nu(x, ys, ChannelPoint(1.1 + eps, 0.7)) - nu(x, ys, ChannelPoint(1.1 - eps, 0.7))
            ) / (2 * eps)
            an = dp_dalpha(x, ys, ChannelPoint(1.1, 0.7))
            rel = max(rel, np.abs(fd - an).max() / np.abs(fd).max())

        ok = ks1 < 0.01 and ks2 < 0.01 and rel < 1e-6
        announce(
            "6a (properties)",
            ok,
            f"fn reductions KS = {ks1:.4f}/{ks2:.4f} (< 0.01), dp_dalpha rel = {rel:.2e}",
        )

    def test_w1_coupled_equals_uncoupled(self):
        res_c = bp_threshold(
            CoupledSpec(3, 6, 1, 1), 1.0, tol=4e-3, grid=GRID_SMALL, bracket=(1.0, 2.4)
        )
        res_u = bp_threshold(regular(3, 6), 1.0, tol=4e-3, grid=GRID_SMALL, bracket=(1.0, 2.4))
        ok = abs(res_c.alpha - res_u.alpha) <= 0.01
        announce(
            "6b (w=1 reduction)",
            ok,
            f"coupled w=1 {res_c.alpha:.4f} vs uncoupled {res_u.alpha:.4f} (+- 0.01)",
        )

    def test_boundary_mirror_symmetry(self):
        # capacity boundary mirrors across the diagonal for the equal-rate pair
        a = mac_acpr_point((0.5, 0.5), 0.6)
        b = mac_acpr_point((0.5, 0.5), 1 / 0.6)
        # mirrored points: (a, 0.6 a) vs (b, b/0.6) -> b = 0.6 a
        mac_ok = abs(b - 0.6 * a) <= 2e-3

        res1 = bp_threshold(regular(3, 6), 0.7, tol=8e-3, grid=GRID_SMALL, bracket=(1.0, 3.2))
        res2 = bp_threshold(regular(3, 6), 1 / 0.7, tol=8e-3, grid=GRID_SMALL, bracket=(1.0, 3.2))
        # mirrored points: (t1, 0.7 t1) vs (t2, t2/0.7) -> t1 = mirror of t2/0.7
        bp_ok = abs(res1.alpha - res2.alpha / 0.7) <= 0.03
        ok = mac_ok and bp_ok
        announce(
            "6c (mirror symmetry)",
            ok,
            f"mac |{b:.4f} - 0.6*{a:.4f}| <= 2e-3; "
            f"bp |{res1.alpha:.4f} - {res2.alpha:.4f}/0.7| <= 0.03",
        )


class TestCriterion7:
    def test_de_mc_histogram(self):
        ch = ChannelPoint(1.5, 1.0)
        inst = build_joint(
            build_regular(100_000, 3, 6, 101), build_regular(100_000, 3, 6, 102), 103
        )
        de1 = fn_operator(GRID_MID, 1, ch).apply(delta_zero(GRID_MID))
        rep = de_mc_crosscheck(inst, ch, de1, iteration=1, seed=104)
        ok = rep["kolmogorov"] < 0.01
        announce(
            "7a (DE vs MC histogram)",
            ok,
            f"iteration-1 KS = {rep['kolmogorov']:.4f} over {rep['edges_sampled']} edges (< 0.01)",
        )

    def test_ber_waterfall_brackets_threshold(self):
        t0 = time.time()
        inst = build_joint(
            build_regular(20_000, 3, 6, 111), build_regular(20_000, 3, 6, 112), 113
        )
        hi = simulate_joint(
            inst, ChannelPoint(1.9, 1.0), mode="random", max_iters=200, num_frames=200, seed=114
        )
        lo = simulate_joint(
            inst, ChannelPoint(1.4, 1.0), mode="random", max_iters=200, num_frames=200, seed=115
        )
        ber_hi = max(hi.ber(1), hi.ber(2))
        ber_lo = min(lo.ber(1), lo.ber(2))
        ok = ber_hi < 1e-3 and ber_lo > 1e-2
        announce(
            "7b (BER waterfall)",
            ok,
            f"BER(1.9) = {ber_hi:.2e} (< 1e-3), BER(1.4) = {ber_lo:.2e} (> 1e-2), "
            f"{time.time() - t0:.0f}s",
        )
