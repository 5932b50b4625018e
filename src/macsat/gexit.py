"""GEXIT kernel, BP-GEXIT curves and area-theorem bounds.

The GEXIT value of a DE fixed point is

    G = sum_x p(x) int F_x[a,b](u,v) kappa_x(u,v) du dv,

where (u, v) are the extrinsic variable-to-function LLRs of the two users,
F_x[a,b](u,v) = a(pi1(x) u) b(pi2(x) v), and the kernel integrates the
channel-parameter derivative of p(y|x) against the log-ratio of the lifted
extrinsic posterior.  With gains as the parameter the channel improves as
alpha grows, so G is negative; integrating the BP-GEXIT curve from 0 until
the area reaches twice the design rate yields an upper bound on the MAP
threshold (the area theorem).
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelPoint, _logaddexp_into, gauss_hermite
from .densities import DensityGrid, LlrDensity, default_grid
from .ensembles import CoupledSpec, EnsembleSpec, design_rate
from .jointde import BRACKET_ALPHA_MAX, FixedPoint, de_runner

LOG2E = 1.0 / np.log(2.0)
INF_LLR = 1000.0  # sentinel LLR for the +/-inf point masses inside kernels

KERNEL_ORDER = 129
LATTICE_BINS_DEFAULT = 128  # coarse half-width of the (u, v) kernel lattice
MAP_REFINE_TO = 1e-3  # map_bound_sweep stops once alpha_bar moves by less


def _rebin(dens: LlrDensity, coarse: DensityGrid) -> tuple[np.ndarray, float, float]:
    """Conservative rebinning of a fine-grid density onto the kernel lattice."""
    ratio = dens.grid.k_max / coarse.k_max
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError("lattice size must divide the density grid")
    ratio = int(round(ratio))
    k = np.arange(-dens.grid.k_max, dens.grid.k_max + 1)
    idx = np.rint(k / ratio).astype(np.int64) + coarse.k_max
    mass = np.bincount(idx, weights=dens.mass, minlength=coarse.n_bins)
    return mass, dens.mass_pos_inf, dens.mass_neg_inf


LATTICE_BLOCK_ENTRIES = 1 << 17  # softplus scratch per block of nodes: 1 MB


def _symbol_kernel(x: int, vals: np.ndarray, ch: ChannelPoint) -> np.ndarray:
    """kappa_x on the lattice `vals` (rows u, columns v), factorized per node.

    With g_j = -(y_q - mu_j)^2 / 2 at node q, the posterior log-sum-exp is
    LSE(u+v+g0, u+g1, v+g2, g3) = L2(v) + softplus(u + D(v)), where
    L1(v) = LSE(v+g0, g1), L2(v) = LSE(v+g2, g3) and D = L1 - L2 are 1-D.
    The node coefficients c_q sum to zero (symmetric nodes), so max(u, 0)
    and max(v, 0) are subtracted from every term; for u >= 0 the 2-D part
    softplus(u+D) - u is then D + softplus(-(u+D)), and no term carries the
    +/-INF_LLR sentinels.  The only n x n work per node is one softplus.
    """
    y_off, w = gauss_hermite(KERNEL_ORDER)
    mu = ch.means()
    c = w * y_off * ch.slopes()[x] * LOG2E
    keep = c != 0.0
    c = c[keep]
    y = mu[x] + y_off[keep]
    g = -0.5 * (y[:, None] - mu[None, :]) ** 2  # (Q, 4)

    m = np.maximum(vals, 0.0)
    v_m = vals - m
    l1 = np.logaddexp(v_m + g[:, 0:1], g[:, 1:2] - m)  # L1 - max(v, 0), (Q, n)
    l2 = np.logaddexp(v_m + g[:, 2:3], g[:, 3:4] - m)
    d = l1 - l2

    # rows in sign order: u < 0 first (softplus(u + D)), then u >= 0
    # (softplus(-u - D) plus the 1-D term D)
    nonneg = vals >= 0.0
    perm = np.concatenate((np.flatnonzero(~nonneg), np.flatnonzero(nonneg)))
    n_neg = int(np.count_nonzero(~nonneg))
    u_neg = vals[perm[:n_neg]][None, :, None]
    u_pos = -vals[perm[n_neg:]][None, :, None]

    n = vals.size
    acc = np.zeros(n * n)
    block = max(1, LATTICE_BLOCK_ENTRIES // (n * n))
    z = np.empty((block, n, n))
    for q0 in range(0, c.size, block):
        dq = d[q0 : q0 + block, None, :]
        zb = z[: dq.shape[0]]
        np.add(u_neg, dq, out=zb[:, :n_neg])
        np.subtract(u_pos, dq, out=zb[:, n_neg:])
        _logaddexp_into(zb, 0.0)  # softplus(z)
        acc += c[q0 : q0 + block] @ zb.reshape(-1, n * n)

    kappa = np.empty((n, n))
    kappa[perm] = acc.reshape(n, n)
    kappa += c @ (l2 - g[:, x : x + 1])
    kappa[nonneg] += c @ d
    return kappa


class KernelLattice:
    """kappa_x tabulated on a coarse (u, v) lattice for one channel point.

    The lattice is the density grid decimated to `bins` half-width plus two
    sentinel rows/columns for the +/-inf point masses.  Per symbol the build
    costs one softplus per lattice entry and Gauss-Hermite node, summed over
    the nodes in blocks by a matrix product (`_symbol_kernel`); everything
    else is 1-D in v.  Evaluating a fixed point is then a bilinear form, so
    every fixed point at one channel (the 2L+1 positions of a coupled state)
    reuses the expensive part.

    Only two symbols are built.  Negating both bits negates every channel
    mean and slope, so with R the reflection (finite bins reversed, +inf and
    -inf swapped) kappa_3 = R kappa_0 R and kappa_2 = R kappa_1 R.  The
    reflections of the densities for those symbols cancel against them, and
    the four-symbol average is 0.5 (a' kappa_0 b + a' kappa_1 R b).  On the
    symmetric ray (ratio 1) the slope of symbol 1 and so kappa_1 vanish, and
    kappa_1 is None.
    """

    def __init__(self, ch: ChannelPoint, grid: DensityGrid, bins: int = LATTICE_BINS_DEFAULT):
        if grid.k_max % bins != 0:
            raise ValueError(f"lattice bins {bins} must divide grid half-width {grid.k_max}")
        self.ch = ch
        self.grid = grid
        self.coarse = DensityGrid(grid.bin_width * (grid.k_max // bins), grid.half_range)
        vals = np.concatenate((self.coarse.centers(), [INF_LLR, -INF_LLR]))
        self.n = vals.size
        self.kappa0 = _symbol_kernel(0, vals, ch)
        self.kappa1 = _symbol_kernel(1, vals, ch) if ch.slopes()[1] != 0.0 else None

    def _vector(self, dens: LlrDensity) -> np.ndarray:
        mass, pinf, ninf = _rebin(dens, self.coarse)
        return np.concatenate((mass, [pinf, ninf]))

    def value(self, u_dens: LlrDensity, v_dens: LlrDensity) -> float:
        """BP-GEXIT value for extrinsic variable-to-function densities."""
        a = self._vector(u_dens)
        b = self._vector(v_dens)
        total = a @ self.kappa0 @ b
        if self.kappa1 is not None:
            rb = np.concatenate((b[-3::-1], b[:-3:-1]))  # R b
            total += a @ self.kappa1 @ rb
        return 0.5 * float(total)


def kernel_lattice(
    ch: ChannelPoint, grid: DensityGrid, bins: int = LATTICE_BINS_DEFAULT
) -> KernelLattice:
    """The lattice of one GEXIT value.  It is not cached: each value of a
    curve or bound sweep falls at a new channel point."""
    return KernelLattice(ch, grid, bins)


def bp_gexit_value(
    fp: FixedPoint, ens: EnsembleSpec | CoupledSpec, bins: int = LATTICE_BINS_DEFAULT
) -> float:
    """GEXIT value of a DE fixed point of `ens`, averaged over its positions:
    the one of an uncoupled ensemble, or all 2L+1 of a coupled chain
    (boundary positions included)."""
    pairs = fp.state.extrinsic(ens)
    lat = kernel_lattice(fp.channel, pairs[0][0].grid, bins)
    return float(np.mean([lat.value(u, v) for u, v in pairs]))


class _CurveTracer:
    """Stable-branch sweep along one ray: the ensemble's DE per alpha,
    warm-started from the stalled state at the nearest smaller alpha, and
    the GEXIT value of each fixed point."""

    def __init__(self, ens, ratio: float, grid: DensityGrid, bins: int):
        self.ens = ens
        self.ratio = ratio
        self.bins = bins
        self.run = de_runner(ens, grid)
        self.states = []  # (alpha, stalled state), ascending alpha

    def eval_point(self, alpha: float) -> tuple[float, bool]:
        """(GEXIT value, decoded) of the fixed point at alpha."""
        start = None
        for a, st in self.states:
            if a <= alpha:
                start = st
        fp = self.run(ChannelPoint(alpha, self.ratio), start)
        if not fp.decoded:
            self.states.append((alpha, fp.state))
            self.states.sort(key=lambda t: t[0])
        return bp_gexit_value(fp, self.ens, self.bins), fp.decoded


def bp_gexit_curve(
    ens: EnsembleSpec | CoupledSpec,
    ratio: float,
    alphas,
    grid: DensityGrid | None = None,
    bins: int = LATTICE_BINS_DEFAULT,
) -> list[tuple[float, float]]:
    """Stable-branch BP-GEXIT curve of an uncoupled or coupled ensemble as
    (alpha, g) samples in ascending alpha: its DE per alpha (warm-started
    along the sweep), GEXIT value at the resulting fixed point."""
    if grid is None:
        grid = default_grid()
    tracer = _CurveTracer(ens, ratio, grid, bins)
    return [(a, tracer.eval_point(a)[0]) if a else (0.0, 0.0) for a in sorted(alphas)]


# ---------------------------------------------------------------------------
# area-theorem MAP bound
# ---------------------------------------------------------------------------


class MapBoundError(RuntimeError):
    """The curve integral never reaches twice the design rate."""


def _area(pts) -> tuple[np.ndarray, np.ndarray]:
    """The alphas of the curve samples pts, (alpha, g) in ascending alpha, and
    the cumulative trapezoid of -g from the first sample to each."""
    alphas, gs = np.array(pts, dtype=float).T
    return alphas, np.concatenate(([0.0], np.cumsum(0.5 * (-gs[1:] - gs[:-1]) * np.diff(alphas))))


def map_bound(pts, rate: float) -> float:
    """Largest alpha_bar with int_{alpha_bar}^{0} g = 2 * rate, by trapezoid
    over the curve samples pts, (alpha, g) in ascending alpha.

    Since g <= 0 under this parameterization the oriented integral from
    alpha_bar down to 0 is positive and increases with alpha_bar, so the
    crossing is unique; it is located by linear interpolation of the
    cumulative trapezoid sums.  The returned value satisfies
    alpha_MAP <= alpha_bar.
    """
    if len(pts) < 3:
        raise ValueError("curve too sparse")
    alphas, cum = _area(pts)
    if alphas[0] > 1e-9:
        raise ValueError("curve must start at alpha = 0")
    target = 2.0 * rate
    if cum[-1] < target:
        raise MapBoundError(
            f"integral reaches only {cum[-1]:.4f} < {target:.4f}; extend the curve"
        )
    i = int(np.searchsorted(cum, target))
    frac = (target - cum[i - 1]) / (cum[i] - cum[i - 1])
    return float(alphas[i - 1] + frac * (alphas[i] - alphas[i - 1]))


def map_bound_sweep(
    ens: EnsembleSpec,
    ratio: float,
    grid: DensityGrid | None = None,
    step: float = 0.01,
    bins: int = LATTICE_BINS_DEFAULT,
) -> tuple[float, list[tuple[float, float]]]:
    """alpha_bar of an ensemble and the (alpha, g) samples it came from.

    The stable branch is swept upward until the area passes 2 * design_rate
    with a margin, or DE decodes (past the BP threshold g is zero, so the
    area grows no further); then the step is halved near the crossing until
    alpha_bar moves by less than MAP_REFINE_TO."""
    if grid is None:
        grid = default_grid()
    rate = design_rate(ens)
    target = 2.0 * rate
    tracer = _CurveTracer(ens, ratio, grid, bins)

    pts = [(0.0, 0.0)]
    decoded = False
    while not decoded and _area(pts)[1][-1] < target * 1.02 + 2 * step:
        alpha = round(pts[-1][0] + step, 12)
        if alpha > BRACKET_ALPHA_MAX:
            raise MapBoundError(f"area never reached {target} below alpha = {BRACKET_ALPHA_MAX}")
        g, decoded = tracer.eval_point(alpha)
        pts.append((alpha, g))

    samples = dict(pts)
    bound = map_bound(pts, rate)
    span = step
    while span > MAP_REFINE_TO:
        span /= 2.0
        for candidate in (round(bound - span, 12), round(bound + span, 12)):
            if 0.0 < candidate and candidate not in samples:
                samples[candidate] = tracer.eval_point(candidate)[0]
        new_bound = map_bound(sorted(samples.items()), rate)
        if abs(new_bound - bound) < MAP_REFINE_TO:
            bound = new_bound
            break
        bound = new_bound

    return bound, sorted(samples.items())


def map_bound_alpha(ens: EnsembleSpec, ratio: float, **kwargs) -> float:
    """alpha_bar alone, the per-ray job of a MAP boundary sweep
    (`channel.ray_boundary`)."""
    return map_bound_sweep(ens, ratio, **kwargs)[0]
