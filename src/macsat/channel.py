"""The two-user binary-input Gaussian MAC with unit noise variance.

Channel outputs are Y = h1*X1 + h2*X2 + N with X in {+-1} and N ~ N(0, 1).
Channel points are parameterized along rays: h1 = alpha, h2 = ratio * alpha,
so a single scalar alpha degrades or improves both users at once.  The four
joint symbols are indexed 0..3 via (+1,+1), (+1,-1), (-1,+1), (-1,-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import csc_matrix
from scipy.special import ndtr, ndtri, roots_hermite

from .densities import DensityGrid, LlrDensity, delta_at, make_density

PI1 = np.array([1.0, 1.0, -1.0, -1.0])
PI2 = np.array([1.0, -1.0, 1.0, -1.0])
SYMBOLS = (0, 1, 2, 3)

GH_ORDERS = (129, 257, 513)


class QuadratureError(RuntimeError):
    """Gauss-Hermite escalation exhausted without converging."""


@dataclass(frozen=True)
class ChannelPoint:
    """Gain pair on a ray: h1 = alpha, h2 = ratio * alpha, noise variance 1."""

    alpha: float
    ratio: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.ratio < 0:
            raise ValueError("alpha and ratio must be nonnegative")

    @property
    def h1(self) -> float:
        return self.alpha

    @property
    def h2(self) -> float:
        return self.ratio * self.alpha

    def means(self) -> np.ndarray:
        """Conditional output means, one per joint symbol."""
        return self.h1 * PI1 + self.h2 * PI2

    def slopes(self) -> np.ndarray:
        """d(mean)/d(alpha) at fixed ratio: s_x = pi1(x) + ratio * pi2(x)."""
        return PI1 + self.ratio * PI2


def nu(x: int, y, ch: ChannelPoint):
    """Gaussian output density p(y | symbol x)."""
    mean = ch.means()[x]
    y = np.asarray(y, dtype=np.float64)
    return np.exp(-0.5 * (y - mean) ** 2) / np.sqrt(2.0 * np.pi)


def dp_dalpha(x: int, y, ch: ChannelPoint):
    """Analytic d p(y|x) / d alpha at fixed ratio."""
    s = ch.slopes()[x]
    y = np.asarray(y, dtype=np.float64)
    return nu(x, y, ch) * (y - ch.alpha * s) * s


_GH_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights w such that E[f(Y)] ~ sum w f(mu + y) for Y ~ N(mu, 1)."""
    pair = _GH_CACHE.get(order)
    if pair is None:
        t, w = roots_hermite(order)
        pair = (t * np.sqrt(2.0), w / np.sqrt(np.pi))
        _GH_CACHE[order] = pair
    return pair


# ---------------------------------------------------------------------------
# function-node density transform
# ---------------------------------------------------------------------------

FN_CENTRAL_STRATA = 256
FN_TAIL_STRATA = 24
_FN_CHUNK = 256  # partner bins per block while the operator is assembled


def _gaussian_strata(n_central: int = FN_CENTRAL_STRATA, n_tail: int = FN_TAIL_STRATA):
    """Partition of a unit Gaussian into probability strata.

    Equal-probability central strata bound the CDF staircase error by
    1/(2 n_central); geometrically refined tail strata keep tail mass placed
    down to ~2^-n_tail / n_central.  Returns (quantile nodes, exact masses).
    """
    if n_central % 2:
        raise ValueError("n_central must be even")
    base = 1.0 / n_central
    tail = base * 2.0 ** (-np.arange(n_tail, 0, -1))
    lower = np.concatenate(([0.0], tail, np.arange(1, n_central // 2 + 1) * base))
    bounds = np.concatenate((lower, (1.0 - lower[::-1])[1:]))
    # the outermost strata get a midpoint quantile too; it is finite
    mid = 0.5 * (bounds[:-1] + bounds[1:])
    return ndtri(mid), np.diff(bounds)


def fn_llr(y, m, h_t: float, h_p: float):
    """Function-node output LLR toward the target user for channel output y
    and partner message m: log[(nu_pp e^m + nu_pm) / (nu_mp e^m + nu_mm)],
    nu_ab the Gaussian at mean a*h_t + b*h_p (its common factor cancels)."""
    gpp = -0.5 * (y - (h_t + h_p)) ** 2
    gpm = -0.5 * (y - (h_t - h_p)) ** 2
    gmp = -0.5 * (y - (-h_t + h_p)) ** 2
    gmm = -0.5 * (y - (-h_t - h_p)) ** 2
    return np.logaddexp(gpp + m, gpm) - np.logaddexp(gmp + m, gmm)


class FnOperator:
    """Precomputed function-node transform toward one user at a fixed channel.

    The transform maps the partner's variable-to-function L-density to the
    L-density of the function-to-variable message for the target user,
    averaging over the partner's bit (type one-half) and the channel output.
    The output LLR for partner message m and output y is `fn_llr`.  The
    channel output is integrated over a stratified partition of its Gaussian
    law (exact stratum masses, one representative quantile each).  Each (partner bit, stratum)
    pair moves half the stratum's mass of a partner bin to one output bin, so
    the transform is linear: a sparse n x (n+2) matrix that depends only on
    (grid, h_t, h_p).  Its columns are the partner's finite bins, then +inf
    and -inf; column j holds the summed weights that partner bin j sends to
    each output bin, and sums to 1.  Each application is one sparse
    matrix-vector product.  Output LLRs are clipped into the finite bins, so
    the result has no mass at +-inf.
    """

    def __init__(self, grid: DensityGrid, h_target: float, h_partner: float):
        self.grid = grid
        self.h_target = h_target
        self.h_partner = h_partner
        # kept column-major as assembled: a row-major copy briefly holds the
        # matrix twice, and where those copies land moved the peak memory of
        # a threshold search from run to run; both sum in column order
        self.matrix = self._columns()

    def _columns(self) -> csc_matrix:
        """The operator assembled column block by column block."""
        y_off, w = _gaussian_strata()
        half_w = 0.5 * w
        n = self.grid.n_bins
        z = self.grid.centers()
        h_t, h_p = self.h_target, self.h_partner

        # output samples y, (partner bit, stratum, 1), against the bins
        sign = np.array([1.0, -1.0])[:, None, None]
        y = h_t + sign * h_p + y_off[None, :, None]

        rows, vals, counts = [], [], []  # nonzeros in column-major order
        for c0 in range(0, n, _FN_CHUNK):
            m = sign * z[None, None, c0 : c0 + _FN_CHUNK]  # sign-flipped when the partner sent -1
            self._add_columns(self._fold(fn_llr(y, m, h_t, h_p)), half_w, rows, vals, counts)
        # partner messages at +inf and -inf meet the sign of the partner's bit
        llr = 2.0 * h_t * np.concatenate((y - sign * h_p, y + sign * h_p), axis=2)
        self._add_columns(self._fold(llr), half_w, rows, vals, counts)

        indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
        return csc_matrix((np.concatenate(vals), np.concatenate(rows), indptr), shape=(n, n + 2))

    def _fold(self, llr: np.ndarray) -> np.ndarray:
        """Nearest-bin indices, out-of-range values clipped to the extreme
        finite bins (saturated messages must stay finite, as in conv_vn)."""
        g = self.grid
        k = np.floor(llr / g.bin_width + 0.5).astype(np.int64)
        return np.clip(k, -g.k_max, g.k_max) + g.center

    def _add_columns(self, idx, half_w, rows, vals, counts):
        """Sum the weights that consecutive columns send to output bins idx
        (2, Q, columns) in a dense block; append its nonzeros."""
        n = self.grid.n_bins
        cols = idx.shape[2]
        keys = idx + n * np.arange(cols)
        weights = np.broadcast_to(half_w[None, :, None], idx.shape)
        block = np.bincount(keys.ravel(), weights=weights.ravel(), minlength=cols * n)
        at = np.flatnonzero(block != 0).astype(np.int32)  # column * n + row
        rows.append(at % np.int32(n))
        vals.append(block[at])
        counts.append(np.diff(np.searchsorted(at, np.arange(cols + 1) * n)))

    def apply(self, partner: LlrDensity) -> LlrDensity:
        if partner.grid != self.grid:
            raise ValueError("partner density on wrong grid")
        x = np.concatenate((partner.mass, (partner.mass_pos_inf, partner.mass_neg_inf)))
        return make_density(self.grid, self.matrix @ x)


_FN_CACHE: dict[tuple, FnOperator] = {}
_FN_CACHE_LIMIT = 6


def fn_operator(grid: DensityGrid, to_user: int, ch: ChannelPoint) -> FnOperator:
    """Cached transform toward user 1 or 2 (they differ unless h1 = h2)."""
    if to_user not in (1, 2):
        raise ValueError("to_user must be 1 or 2")
    h_t, h_p = (ch.h1, ch.h2) if to_user == 1 else (ch.h2, ch.h1)
    key = (grid, h_t, h_p)
    op = _FN_CACHE.get(key)
    if op is None:
        if len(_FN_CACHE) >= _FN_CACHE_LIMIT:
            _FN_CACHE.clear()
        op = FnOperator(grid, h_t, h_p)
        _FN_CACHE[key] = op
    return op


def fn_transform(to_user: int, partner_vf: LlrDensity, ch: ChannelPoint) -> LlrDensity:
    """Function-node output L-density for `to_user`, conditioned on it sending +1.

    partner_vf is the partner's variable-to-function L-density (conditioned on
    the partner sending +1); the transform itself averages over the partner's
    actual bit.
    """
    return fn_operator(partner_vf.grid, to_user, ch).apply(partner_vf)


def bawgn_density(grid: DensityGrid, h: float) -> LlrDensity:
    """Exact single-user binary-input AWGN L-density at gain h: N(2h^2, 4h^2).

    Serves as the closed-form oracle for the h2 = 0 and known-partner
    reductions of the function node.
    """
    if h == 0.0:
        return delta_at(grid, 0.0)
    mean, sd = 2.0 * h * h, 2.0 * h
    edges = (np.arange(grid.n_bins + 1) - grid.n_bins / 2.0) * grid.bin_width
    cdf = ndtr((edges - mean) / sd)
    mass = np.diff(cdf)
    mass[-1] += 1.0 - cdf[-1]  # clip tails into the extreme bins
    mass[0] += cdf[0]
    return make_density(grid, mass)


# ---------------------------------------------------------------------------
# mutual informations and the capacity (MAC-ACPR) boundary
# ---------------------------------------------------------------------------


def _bawgn_capacity(h: float, order: int) -> float:
    """I(X;Y) for Y = hX + N, X uniform +-1: 1 - E log2(1 + e^(-2hY)) under X=+1."""
    if h == 0.0:
        return 0.0
    y_off, w = gauss_hermite(order)
    y = h + y_off
    return 1.0 - float(w @ np.logaddexp(0.0, -2.0 * h * y)) / np.log(2.0)


def _sum_information(ch: ChannelPoint, order: int) -> float:
    """I(X1,X2;Y) = h(Y) - h(N) with h(Y) from the 4-component Gaussian mixture."""
    y_off, w = gauss_hermite(order)
    means = ch.means()
    h_y = 0.0
    for mu in means:
        y = mu + y_off
        comps = -0.5 * (y[:, None] - means[None, :]) ** 2
        log_mix = np.logaddexp.reduce(comps, axis=1) - np.log(4.0) - 0.5 * np.log(2 * np.pi)
        h_y += 0.25 * float(w @ (-log_mix)) / np.log(2.0)
    h_n = 0.5 * np.log2(2.0 * np.pi * np.e)
    return h_y - h_n


def mac_mutual_infos(ch: ChannelPoint, tol: float = 1e-7) -> tuple[float, float, float]:
    """(I(X1;Y|X2), I(X2;Y|X1), I(X1,X2;Y)) in bits, uniform inputs.

    Gauss-Hermite order escalates until the sum information stabilizes.
    """
    prev = None
    for order in GH_ORDERS:
        i_sum = _sum_information(ch, order)
        if prev is not None and abs(i_sum - prev) < tol:
            return (
                _bawgn_capacity(ch.h1, order),
                _bawgn_capacity(ch.h2, order),
                i_sum,
            )
        prev = i_sum
    raise QuadratureError(f"sum information did not stabilize at {ch}")


class InfeasibleRayError(RuntimeError):
    """A boundary search ray never satisfies the rate constraints."""


def bisect(holds, lo: float, hi: float, width: float) -> float:
    """Midpoint of [lo, hi] once bisection has narrowed it to `width`;
    holds(alpha) must be false at lo, true at hi and monotone in between."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def ray_boundary(job, ray_grid, pmap=map) -> list[tuple[float, float]]:
    """Boundary polyline (alpha, ray * alpha) with alpha = job(ray) per ray.  For
    a worker pool's pmap the job must pickle: a module-level function or a
    functools.partial of one."""
    rays = list(ray_grid)
    if not rays:
        raise ValueError("empty ray grid")
    return [(alpha, ray * alpha) for ray, alpha in zip(rays, pmap(job, rays))]


def mac_acpr_point(rate_pair: tuple[float, float], ray: float, tol: float = 1e-4) -> float:
    """Minimal alpha on the ray h2 = ray*h1 where (R1, R2) is achievable."""
    r1, r2 = rate_pair
    if not (0.0 < r1 < 1.0 and 0.0 < r2 < 1.0):
        raise ValueError("rates must lie in (0, 1)")
    if ray <= 0.0:
        raise InfeasibleRayError("user 2 sees no channel on the ray A = 0")

    def feasible(alpha: float) -> bool:
        i1, i2, i_sum = mac_mutual_infos(ChannelPoint(alpha, ray))
        return i1 >= r1 and i2 >= r2 and i_sum >= r1 + r2

    lo, hi = 0.0, 4.0
    while not feasible(hi):
        lo, hi = hi, hi * 2.0
        if hi > 512.0:
            raise InfeasibleRayError(f"constraints unsatisfied up to alpha={hi} on ray {ray}")
    return bisect(feasible, lo, hi, tol)


def mac_acpr_boundary(rate_pair, ray_grid, tol: float = 1e-4, pmap=map) -> list[tuple[float, float]]:
    """MAC-ACPR boundary polyline: one (h1, h2) point per ray."""
    return ray_boundary(partial(mac_acpr_point, tuple(rate_pair), tol=tol), ray_grid, pmap)
