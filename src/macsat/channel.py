"""The two-user binary-input Gaussian MAC with unit noise variance.

Channel outputs are Y = h1*X1 + h2*X2 + N with X in {+-1} and N ~ N(0, 1).
Channel points are parameterized along rays: h1 = alpha, h2 = ratio * alpha,
so a single scalar alpha degrades or improves both users at once.  The four
joint symbols are indexed 0..3 via (+1,+1), (+1,-1), (-1,+1), (-1,-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from importlib import resources

import numpy as np

from .densities import DensityGrid, DensityRows, LlrDensity, delta_zero, make_density

# The Gauss-Hermite rules and the Gaussian stratum quantiles are read from a
# frozen table, so the only scipy module the package loads is scipy.sparse,
# imported where the function-node operator is assembled: the Monte-Carlo
# decoder and the capacity boundary run on numpy alone.

PI1 = np.array([1.0, 1.0, -1.0, -1.0])
PI2 = np.array([1.0, -1.0, 1.0, -1.0])

GH_ORDERS = (129, 257, 513)
GH_TOL = 1e-7  # mac_mutual_infos escalates the order until I_sum moves less


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


QUADRATURE_TABLE = "quadrature.npz"


@cache
def _quadrature() -> dict[str, np.ndarray]:
    """The frozen table: scipy.special.roots_hermite's nodes and weights
    (`hermite_nodes_<order>`, `hermite_weights_<order>`) for the orders the
    package uses, and scipy.special.ndtri at the stratum midpoints of
    `_strata_bounds` (`strata_quantiles`), as scipy 1.17.1 computes them.
    `tests/oracles.py::quadrature_table` regenerates it."""
    with resources.files(__package__).joinpath(QUADRATURE_TABLE).open("rb") as f, np.load(f) as npz:
        table = {name: npz[name] for name in npz.files}
    for a in table.values():
        a.flags.writeable = False
    return table


@cache
def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights w such that E[f(Y)] ~ sum w f(mu + y) for Y ~ N(mu, 1),
    for an order the frozen table holds (GH_ORDERS, which include the GEXIT
    kernel's)."""
    table = _quadrature()
    if f"hermite_nodes_{order}" not in table:
        raise ValueError(f"no Gauss-Hermite rule of order {order} in the table (orders {GH_ORDERS})")
    t, w = table[f"hermite_nodes_{order}"], table[f"hermite_weights_{order}"]
    return t * np.sqrt(2.0), w / np.sqrt(np.pi)


# ---------------------------------------------------------------------------
# function-node density transform
# ---------------------------------------------------------------------------

FN_CENTRAL_STRATA = 256
FN_TAIL_STRATA = 24
_FN_CHUNK = 64  # partner bins per block while the operator is assembled (1 MB at 2049 bins)


def _strata_bounds() -> np.ndarray:
    """CDF bounds of a partition of a unit Gaussian into probability strata.

    FN_CENTRAL_STRATA (even) equal-probability central strata bound the CDF
    staircase error by 1/(2 FN_CENTRAL_STRATA); FN_TAIL_STRATA geometrically
    refined tail strata keep tail mass placed down to
    ~2^-FN_TAIL_STRATA / FN_CENTRAL_STRATA.
    """
    base = 1.0 / FN_CENTRAL_STRATA
    tail = base * 2.0 ** (-np.arange(FN_TAIL_STRATA, 0, -1))
    lower = np.concatenate(([0.0], tail, np.arange(1, FN_CENTRAL_STRATA // 2 + 1) * base))
    return np.concatenate((lower, (1.0 - lower[::-1])[1:]))


def _gaussian_strata():
    """(quantile nodes, exact masses) of the strata: each node is the
    Gaussian quantile at its stratum's CDF midpoint, from the frozen table
    (the outermost strata get a midpoint quantile too; it is finite)."""
    return _quadrature()["strata_quantiles"], np.diff(_strata_bounds())


def _logaddexp_into(a: np.ndarray, b) -> np.ndarray:
    """log(e^a + e^b) as max(a, b) + log1p(exp(-|a - b|)), written into a
    (which must be a scratch array of the broadcast shape).  The vectorised
    passes run several times faster than np.logaddexp, which agrees to
    within an ulp, and hold one more array of that shape, not two."""
    t = np.subtract(a, b)
    np.abs(t, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    np.maximum(a, b, out=a)
    a += t
    return a


def fn_llr(y, m, h_t: float, h_p: float):
    """Function-node output LLR toward the target user for channel output y
    and partner message m: log[(nu_pp e^m + nu_pm) / (nu_mp e^m + nu_mm)],
    nu_ab the Gaussian at mean a*h_t + b*h_p (its common factor cancels)."""
    gpp = -0.5 * (y - (h_t + h_p)) ** 2
    gpm = -0.5 * (y - (h_t - h_p)) ** 2
    gmp = -0.5 * (y - (-h_t + h_p)) ** 2
    gmm = -0.5 * (y - (-h_t - h_p)) ** 2
    llr = _logaddexp_into(gpp + m, gpm)
    llr -= _logaddexp_into(gmp + m, gmm)
    return llr


class FnOperator:
    """Precomputed function-node transform toward one user at a fixed channel.

    The transform maps the partner's variable-to-function L-density to the
    L-density of the function-to-variable message for the target user,
    averaging over the partner's bit (type one-half) and the channel output.
    The output LLR for partner message m and output y is `fn_llr`.  The
    channel output is integrated over a stratified partition of its Gaussian
    law (exact stratum masses, one representative quantile each).  Each (partner bit, stratum)
    pair moves half the stratum's mass of a partner bin to one output bin, so
    the transform is linear: a sparse n x (n+1) matrix that depends only on
    (grid, h_t, h_p).  Its columns are the partner's finite bins, then +inf;
    column j holds the summed weights that partner bin j sends to each
    output bin, and sums to 1.  Each application is one sparse
    matrix-vector product, and the partners of one coupled sweep share one
    sparse product (`apply` of a sequence).  Output LLRs are clipped into
    the finite bins, so the result has no mass at +inf.
    """

    def __init__(self, grid: DensityGrid, h_target: float, h_partner: float):
        self.grid = grid
        self.h_target = h_target
        self.h_partner = h_partner
        # kept column-major as assembled: a row-major copy briefly holds the
        # matrix twice, and where those copies land moved the peak memory of
        # a threshold search from run to run; both sum in column order
        self.matrix = self._columns()

    def _columns(self):
        """The operator as a CSC matrix, assembled column block by column
        block into one buffer pair.  A column holds at most one nonzero per
        output bin and per (partner bit, stratum) pair; the buffers are sized
        for that worst case, and the pages no block writes are never made
        resident."""
        from scipy.sparse import csc_matrix

        y_off, w = _gaussian_strata()
        half_w = 0.5 * w
        n = self.grid.n_bins
        z = self.grid.centers()
        h_t, h_p = self.h_target, self.h_partner

        # output samples y, (partner bit, stratum, 1), against the bins
        sign = np.array([1.0, -1.0])[:, None, None]
        y = h_t + sign * h_p + y_off[None, :, None]

        size = (n + 1) * min(n, 2 * len(w))
        rows, vals = np.empty(size, np.int32), np.empty(size)  # column-major nonzeros
        indptr = np.zeros(n + 2, np.int64)
        for c0 in range(0, n, _FN_CHUNK):
            m = sign * z[None, None, c0 : c0 + _FN_CHUNK]  # sign-flipped when the partner sent -1
            self._add_columns(self._fold(fn_llr(y, m, h_t, h_p)), half_w, c0, rows, vals, indptr)
        # a partner message at +inf meets the sign of the partner's bit
        self._add_columns(self._fold(2.0 * h_t * (y - sign * h_p)), half_w, n, rows, vals, indptr)

        nnz = indptr[-1]
        return csc_matrix((vals[:nnz], rows[:nnz], indptr), shape=(n, n + 1))

    def _fold(self, llr: np.ndarray) -> np.ndarray:
        """Nearest-bin indices, out-of-range values clipped to the extreme
        finite bins (saturated messages must stay finite, as in conv_vn)."""
        return np.clip(self.grid.llr_to_index(llr), 0, self.grid.n_bins - 1)

    def _add_columns(self, idx, half_w, c0, rows, vals, indptr):
        """Sum the weights that the columns from c0 on send to output bins idx
        (2, Q, columns) in a dense block; write its nonzeros after those of
        the columns before c0."""
        n = self.grid.n_bins
        cols = idx.shape[2]
        keys = idx + n * np.arange(cols)
        weights = np.broadcast_to(half_w[None, :, None], idx.shape)
        block = np.bincount(keys.ravel(), weights=weights.ravel(), minlength=cols * n)
        at = np.flatnonzero(block != 0)  # column * n + row
        start = indptr[c0]
        rows[start : start + len(at)] = at % n
        vals[start : start + len(at)] = block[at]
        indptr[c0 + 1 : c0 + cols + 1] = start + np.searchsorted(at, np.arange(1, cols + 1) * n)

    def apply(self, partner: LlrDensity | DensityRows):
        """The transform of one partner density, or of a stack of them as a
        stack: one sparse product with a column per partner.  CSC sums each
        column in the same order whatever the batch, so every result has the
        bits of its own matrix-vector product."""
        rows = partner if isinstance(partner, DensityRows) else DensityRows.of([partner])
        if rows.grid != self.grid:
            raise ValueError("partner density on wrong grid")
        x = np.empty((len(rows), self.grid.n_bins + 1))
        x[:, :-1] = rows.mass
        x[:, -1] = rows.pos
        # each column normalized on its own, as a contiguous row
        out = DensityRows.make(self.grid, np.ascontiguousarray((self.matrix @ x.T).T), np.zeros(len(rows)))
        return out if isinstance(partner, DensityRows) else out[0]


_FN_CACHE: dict[tuple, FnOperator] = {}


def fn_operator(grid: DensityGrid, to_user: int, ch: ChannelPoint) -> FnOperator:
    """Cached transform toward user 1 or 2 (they differ unless h1 = h2).

    A DE run reuses its channel point's operators and each new point starts a
    new run, so the cache holds one gain pair on one grid: both users'
    operators, or the one they share on the ray A = 1.  A miss at any other
    point empties it before building, so the old matrices are freed before
    the new one is assembled.
    """
    if to_user not in (1, 2):
        raise ValueError("to_user must be 1 or 2")
    h_t, h_p = (ch.h1, ch.h2) if to_user == 1 else (ch.h2, ch.h1)
    key = (grid, h_t, h_p)
    op = _FN_CACHE.get(key)
    if op is None:
        if (grid, h_p, h_t) not in _FN_CACHE:
            _FN_CACHE.clear()
        op = _FN_CACHE[key] = FnOperator(grid, h_t, h_p)
    return op


def bawgn_density(grid: DensityGrid, h: float) -> LlrDensity:
    """Exact single-user binary-input AWGN L-density at gain h: N(2h^2, 4h^2).

    Serves as the closed-form oracle for the h2 = 0 and known-partner
    reductions of the function node.
    """
    if h == 0.0:
        return delta_zero(grid)
    mean, sd = 2.0 * h * h, 2.0 * h
    edges = (np.arange(grid.n_bins + 1) - grid.n_bins / 2.0) * grid.bin_width
    cdf = np.array([0.5 * math.erfc((mean - e) / (sd * math.sqrt(2.0))) for e in edges.tolist()])
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


def mac_mutual_infos(ch: ChannelPoint) -> tuple[float, float, float]:
    """(I(X1;Y|X2), I(X2;Y|X1), I(X1,X2;Y)) in bits, uniform inputs.

    Gauss-Hermite order escalates until the sum information moves by less
    than GH_TOL.
    """
    prev = None
    for order in GH_ORDERS:
        i_sum = _sum_information(ch, order)
        if prev is not None and abs(i_sum - prev) < GH_TOL:
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
    """Midpoint of [lo, hi] once bisection has narrowed it to `width`, or
    to adjacent doubles when `width` is finer than their spacing;
    holds(alpha) must be false at lo, true at hi and monotone in between."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def ray_boundary(job, ray_grid, pmap=map) -> list[tuple[float, float]]:
    """Boundary polyline (alpha, ray * alpha) with alpha = job(ray) per ray,
    for each kind of boundary: job is mac_acpr_point, jointde.threshold_alpha
    or gexit.map_bound_alpha with every argument but the ray bound by
    functools.partial.  For a worker pool's pmap the job must pickle."""
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
