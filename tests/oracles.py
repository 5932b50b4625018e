"""Reference implementations the tests compare the package against.

They evaluate the same quantities as the production kernels pointwise and in
the most direct form, so they are slow and live here rather than in src/.
"""

import numpy as np

from macsat.channel import PI1, PI2, ChannelPoint, _gaussian_strata, gauss_hermite
from macsat.densities import DensityGrid, LlrDensity, make_density, mix, power_cn, power_vn
from macsat.gexit import INF_LLR, KERNEL_ORDER, LOG2E, _rebin


def boxplus_scalar(x: float, y: float) -> float:
    """Exact two-argument box-plus, the oracle for the quantized table."""
    if x == 0.0 or y == 0.0:
        return 0.0
    if np.isinf(x):
        return y if x > 0 else -y
    if np.isinf(y):
        return x if y > 0 else -x
    s = np.sign(x) * np.sign(y)
    ax, ay = abs(x), abs(y)
    return float(s * (min(ax, ay) + np.log1p(np.exp(-(ax + ay))) - np.log1p(np.exp(-abs(ax - ay)))))


class BandBoxPlusTable:
    """Box-plus magnitude pass with every pair of the band |i-j| <= W
    tabulated, the oracle for the grouped table of `BoxPlusTable`.

    Outside the band the rounded correction is 0 and a pair lands on
    min(i, j); those pairs are summed with suffix sums.
    """

    def __init__(self, grid: DensityGrid):
        self.grid = grid
        k = grid.k_max
        d = grid.bin_width
        m = np.arange(0, 2 * k + 1, dtype=np.float64)
        phi = np.log1p(np.exp(-m * d)) / d
        # smallest W with phi(W+1) < 1/2: beyond it the correction rounds to 0
        w = int(np.searchsorted(-phi, -0.5, side="right"))  # first phi < 0.5
        self.band_width = max(w - 1, 0)

        ii_parts, jj_parts, oo_parts = [], [], []
        for dd in range(-self.band_width, self.band_width + 1):
            i = np.arange(max(1, 1 - dd), min(k, k - dd) + 1, dtype=np.int64)
            if i.size == 0:
                continue
            j = i + dd
            corr = np.floor(phi[i + j] - phi[abs(dd)] + 0.5).astype(np.int64)
            ii_parts.append(i)
            jj_parts.append(j)
            oo_parts.append(np.maximum(np.minimum(i, j) + corr, 0))
        self.ii = np.concatenate(ii_parts)
        self.jj = np.concatenate(jj_parts)
        self.oo = np.concatenate(oo_parts)

    def magnitude_op(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        k = self.grid.k_max
        out = np.bincount(self.oo, weights=p[self.ii] * q[self.jj], minlength=k + 1)
        sq = np.concatenate((np.cumsum(q[::-1])[::-1], [0.0]))  # sq[i] = sum_{j>=i} q[j]
        sp = np.concatenate((np.cumsum(p[::-1])[::-1], [0.0]))
        hi = np.minimum(np.arange(1, k + 1) + self.band_width + 1, k + 1)
        out[1:] += p[1:] * sq[hi] + q[1:] * sp[hi]
        return out


def scatter_fn_apply(grid: DensityGrid, h_target: float, h_partner: float, partner: LlrDensity) -> LlrDensity:
    """Function-node transform as a weighted scatter of every (partner bit,
    stratum, partner bin) triple into its output bin, the oracle for the
    sparse matrix of `FnOperator`."""
    y_off, w = _gaussian_strata()
    half_w = 0.5 * w
    n = grid.n_bins

    def fold(llr):
        k = np.floor(llr / grid.bin_width + 0.5).astype(np.int64)
        return np.clip(k, -grid.k_max, grid.k_max) + grid.center

    z = grid.centers()
    acc = np.zeros(n)
    for s in (+1.0, -1.0):
        y = h_target + s * h_partner + y_off
        gpp = -0.5 * (y - (h_target + h_partner)) ** 2
        gpm = -0.5 * (y - (h_target - h_partner)) ** 2
        gmp = -0.5 * (y - (-h_target + h_partner)) ** 2
        gmm = -0.5 * (y - (-h_target - h_partner)) ** 2
        m = s * z  # partner message per bin, sign-flipped when it sent -1
        out = np.logaddexp(gpp[:, None] + m[None, :], gpm[:, None]) - np.logaddexp(
            gmp[:, None] + m[None, :], gmm[:, None]
        )
        vals = half_w[:, None] * partner.mass[None, :]
        acc += np.bincount(fold(out).ravel(), weights=vals.ravel(), minlength=n)
        # a partner message at +-inf meets the sign of the partner's bit
        at_pos = 2.0 * h_target * (y - s * h_partner)
        at_neg = 2.0 * h_target * (y + s * h_partner)
        acc += np.bincount(fold(at_pos), weights=partner.mass_pos_inf * half_w, minlength=n)
        acc += np.bincount(fold(at_neg), weights=partner.mass_neg_inf * half_w, minlength=n)
    return make_density(grid, acc)


def window_g(xs, l: int, r: int, w: int) -> LlrDensity:
    """Double-window check-then-variable operator on 2w-1 densities around a
    position (ascending positions), with outer variable power l-1: the
    coupled recursion's own-user term written out, the oracle for the
    coupled engine."""
    return power_vn(_window_inner(xs, r, w), l - 1)


def window_gamma(xs, l: int, r: int, w: int) -> LlrDensity:
    """Same inner window average, outer power l: the density toward the
    function node (all check edges aggregated)."""
    return power_vn(_window_inner(xs, r, w), l)


def _window_inner(xs, r: int, w: int) -> LlrDensity:
    if len(xs) != 2 * w - 1:
        raise ValueError(f"need 2w-1 = {2 * w - 1} densities")
    weights = np.full(w, 1.0 / w)
    parts = []
    for j in range(w):
        m_j = mix(list(xs[j : j + w]), weights)
        parts.append(power_cn(m_j, r - 1))
    return mix(parts, weights)


def lift(u: float, v: float) -> np.ndarray:
    """Extrinsic pair (u, v) lifted to the posterior 4-vector over symbols."""
    su = 1.0 / (1.0 + np.exp(-u))
    sv = 1.0 / (1.0 + np.exp(-v))
    return np.array([su * sv, su * (1 - sv), (1 - su) * sv, (1 - su) * (1 - sv)])


def gexit_kernel(x: int, u: float, v: float, ch: ChannelPoint, order: int = KERNEL_ORDER) -> float:
    """Kernel kappa_x(u, v) at one point, the oracle for the kernel lattice:
    quadrature of dp/dalpha against the posterior log ratio.

    The term -log2(lift[x]) is constant in y and integrates against dp/dalpha
    to exactly zero (the quadrature nodes are symmetric), so it is dropped;
    this also gives the correct analytic limit when lift[x] = 0 at infinite
    extrinsic LLRs.
    """
    uu = np.clip(u, -INF_LLR, INF_LLR)
    vv = np.clip(v, -INF_LLR, INF_LLR)
    y_off, w = gauss_hermite(order)
    mu = ch.means()
    s = ch.slopes()
    y = mu[x] + y_off
    g = -0.5 * (y[:, None] - mu[None, :]) ** 2  # (Q, 4)
    lse = np.logaddexp(
        np.logaddexp(uu + vv + g[:, 0], uu + g[:, 1]),
        np.logaddexp(vv + g[:, 2], g[:, 3]),
    )
    log_z = np.logaddexp(0.0, uu) + np.logaddexp(0.0, vv)
    integrand = (lse - log_z - g[:, x]) * LOG2E
    return float((w * y_off * s[x]) @ integrand)


def loop_kernel_lattice(ch: ChannelPoint, grid: DensityGrid, bins: int, order: int = KERNEL_ORDER):
    """kappa_x for all four symbols on the lattice of `KernelLattice`, one
    Gauss-Hermite node at a time with the log-sum-exp written out, the oracle
    for the factorized build.  Returns the (4, n, n) array and the coarse grid."""
    coarse = DensityGrid(grid.bin_width * (grid.k_max // bins), grid.half_range)
    vals = np.concatenate((coarse.centers(), [INF_LLR, -INF_LLR]))
    n = vals.size
    y_off, w = gauss_hermite(order)
    mu = ch.means()
    s = ch.slopes()
    kappa = np.zeros((4, n, n))
    uu = vals[:, None]
    vv = vals[None, :]
    for x in range(4):
        y = mu[x] + y_off
        g = -0.5 * (y[:, None] - mu[None, :]) ** 2  # (Q, 4)
        cq = w * y_off * s[x] * LOG2E
        for q in range(y.size):
            if cq[q] == 0.0:
                continue
            lse = np.logaddexp(
                np.logaddexp(uu + vv + g[q, 0], uu + g[q, 1]),
                np.logaddexp(vv + g[q, 2], g[q, 3]),
            )
            kappa[x] += cq[q] * (lse - g[q, x])
    return kappa, coarse


def four_symbol_value(kappa, coarse: DensityGrid, u_dens: LlrDensity, v_dens: LlrDensity) -> float:
    """GEXIT value as the average of the four per-symbol bilinear forms, each
    density rebinned and reflected (finite bins reversed, +-inf swapped) where
    the symbol's bit is -1."""

    def vector(dens, reflect):
        mass, pinf, ninf = _rebin(dens, coarse)
        if reflect:
            mass = mass[::-1]
            pinf, ninf = ninf, pinf
        return np.concatenate((mass, [pinf, ninf]))

    total = 0.0
    for x in range(4):
        total += 0.25 * float(vector(u_dens, PI1[x] < 0) @ kappa[x] @ vector(v_dens, PI2[x] < 0))
    return total
