"""Quantized LLR densities and the convolution algebra used by density evolution.

A density lives on a uniform grid of LLR bins plus two point masses at +/-inf.
All densities are conditioned on the transmission of a +1, so a "good" density
piles mass on positive LLRs and a perfectly decoded message is the delta at
+inf.  Variable-node combining is ordinary addition of LLRs, a linear
convolution done as a product of real FFTs at one fixed length per grid; each
density transforms its masses at most once and keeps the spectrum, so a
squaring or a density convolved again costs no further forward transform.
Check-node combining is the box-plus rule 2*atanh(tanh(x/2)*tanh(y/2)), done
exactly on the quantized grid via a precomputed output-bin table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

LOG2E = 1.0 / np.log(2.0)


class GridMismatchError(ValueError):
    """Two densities on different grids were combined."""


@dataclass(frozen=True)
class DensityGrid:
    """Uniform symmetric LLR grid.

    bin centers are k*bin_width for k in [-k_max, k_max] with
    k_max = floor(half_range / bin_width), so the bin count is odd and 0 is a
    bin center.
    """

    bin_width: float
    half_range: float

    def __post_init__(self):
        if self.bin_width <= 0 or self.half_range <= 0:
            raise ValueError("bin_width and half_range must be positive")
        if self.k_max < 1:
            raise ValueError("grid must contain at least one positive bin")

    @cached_property
    def k_max(self) -> int:
        return int(np.floor(self.half_range / self.bin_width + 1e-12))

    @property
    def n_bins(self) -> int:
        return 2 * self.k_max + 1

    @property
    def center(self) -> int:
        """Index of the 0-LLR bin inside the mass vector."""
        return self.k_max

    def centers(self) -> np.ndarray:
        k = np.arange(-self.k_max, self.k_max + 1)
        return k * self.bin_width

    def llr_to_index(self, llr: np.ndarray) -> np.ndarray:
        """Nearest-bin index (0-based into the mass vector), unclipped."""
        return np.floor(llr / self.bin_width + 0.5).astype(np.int64) + self.center

    @cached_property
    def fft_len(self) -> int:
        """Real-FFT length of the variable-node convolution: the fast length
        at or above the 4k+1 entries of a full linear convolution."""
        return next_fast_len(4 * self.k_max + 1, real=True)


def default_grid() -> DensityGrid:
    # half_range 30, 4097 bins; threshold error from quantization is well
    # below the tolerances used by the acceptance checks.
    return DensityGrid(bin_width=30.0 / 2048.0, half_range=30.0)


@dataclass(frozen=True)
class LlrDensity:
    """Probability masses per LLR bin plus point masses at +/-inf.

    Instances are immutable values: the mass vector is frozen after
    construction and every operation returns a fresh density, so sweeps can
    evaluate densities in parallel without locking.  The finite mass and the
    spectrum are derived from the frozen masses on first use and kept on the
    instance, outside the fields.
    """

    grid: DensityGrid
    mass: np.ndarray
    mass_pos_inf: float = 0.0
    mass_neg_inf: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=np.float64)
        if m.shape != (self.grid.n_bins,):
            raise ValueError(f"mass must have {self.grid.n_bins} entries")
        object.__setattr__(self, "mass", m)
        m.flags.writeable = False

    @cached_property
    def finite_mass(self) -> float:
        return float(self.mass.sum())

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Real FFT of the masses, zero-padded to the grid's `fft_len`."""
        return rfft(self.mass, self.grid.fft_len)


def _check_same_grid(a: LlrDensity, b: LlrDensity):
    if a.grid != b.grid:
        raise GridMismatchError(f"grid mismatch: {a.grid} vs {b.grid}")


def make_density(
    grid: DensityGrid,
    mass: np.ndarray,
    pos_inf: float = 0.0,
    neg_inf: float = 0.0,
) -> LlrDensity:
    """Validate and normalize raw masses into a density.

    Tiny negative entries from floating-point roundoff are clipped; the total
    is rescaled to exactly 1 provided it is already 1 within 1e-9 (anything
    worse is a bug upstream, not roundoff).
    """
    mass = np.asarray(mass, dtype=np.float64)
    low = min(mass.min(initial=0.0), pos_inf, neg_inf)
    if low < -1e-9:
        raise ValueError(f"negative mass {low}")
    mass = np.maximum(mass, 0.0)
    pos_inf = max(float(pos_inf), 0.0)
    neg_inf = max(float(neg_inf), 0.0)
    total = mass.sum() + pos_inf + neg_inf
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"total mass {total} too far from 1")
    return LlrDensity(grid, mass / total, pos_inf / total, neg_inf / total)


def delta_inf(grid: DensityGrid) -> LlrDensity:
    """All mass at +inf (perfect knowledge of a transmitted +1)."""
    return LlrDensity(grid, np.zeros(grid.n_bins), 1.0, 0.0)


def delta_zero(grid: DensityGrid) -> LlrDensity:
    """All mass at LLR 0 (erasure / no knowledge)."""
    m = np.zeros(grid.n_bins)
    m[grid.center] = 1.0
    return LlrDensity(grid, m, 0.0, 0.0)


# ---------------------------------------------------------------------------
# variable-node convolution (LLR addition)
# ---------------------------------------------------------------------------


def is_delta_inf(a: LlrDensity) -> bool:
    return a.mass_pos_inf == 1.0


def is_delta_zero(a: LlrDensity) -> bool:
    return a.mass[a.grid.center] == 1.0


def conv_vn(a: LlrDensity, b: LlrDensity) -> LlrDensity:
    """Density of the sum of independent LLRs drawn from a and b.

    Out-of-range mass is clipped into the extreme finite bins: a saturated
    LLR must stay finite so that later additions can still outweigh it
    (folding it to -inf would manufacture unrecoverable wrong-certainty and
    destabilize the coupled decoding wave, since the infinities are absorbing
    under addition).  The true +/-inf point masses combine by saturation:
    +inf absorbs any finite value and the measure-zero pairing of +inf with
    -inf is resolved to the 0 bin.
    """
    _check_same_grid(a, b)
    if is_delta_zero(a):
        return b
    if is_delta_zero(b):
        return a
    if is_delta_inf(a) and is_delta_inf(b):
        return a
    g = a.grid
    k = g.k_max

    # the linear convolution has 4k+1 entries, center index 2k; the padding
    # beyond them holds only roundoff
    fin = np.maximum(irfft(a.spectrum * b.spectrum, g.fft_len)[: 4 * k + 1], 0.0)
    core = fin[k : 3 * k + 1]
    core[-1] += float(fin[3 * k + 1 :].sum())
    core[0] += float(fin[:k].sum())

    a_fin = a.finite_mass
    b_fin = b.finite_mass
    pos = a.mass_pos_inf * (b_fin + b.mass_pos_inf) + b.mass_pos_inf * a_fin
    neg = a.mass_neg_inf * (b_fin + b.mass_neg_inf) + b.mass_neg_inf * a_fin
    core[k] += a.mass_pos_inf * b.mass_neg_inf + a.mass_neg_inf * b.mass_pos_inf

    return make_density(g, core, pos, neg)


# ---------------------------------------------------------------------------
# check-node convolution (box-plus), quantized table method
# ---------------------------------------------------------------------------
#
# For x, y > 0 the box-plus output is
#     z = min(x, y) + ln(1 + e^-(x+y)) - ln(1 + e^-|x-y|),
# so on the grid (x = i*d, y = j*d) the nearest output bin is
#     out(i, j) = max(min(i, j) + round(phi(i+j) - phi(D)), 0),  D = |i-j|,
# with phi(m) = ln(1 + e^(-m*d)) / d.  Along a diagonal D the rounded
# correction is non-increasing in i+j and settles to a constant c_D once i+j
# is large; c_D is non-decreasing in D (it is 0 for every pair beyond the band
# where phi(D) < 1/2), so the diagonals sharing a c_D are contiguous.  Within
# such a group, at a fixed smaller index m, the settled diagonals are a run
# D_lo..D_top(m), and their pairs (in both orders) land on bin
# max(m + c_D, 0): one row of suffix sums over the partner's bins
# m+D_lo..m+D_top(m).  Only the pairs that have not settled, and the
# diagonal D = 0, are tabulated one by one, each pair with its mirror (j, i)
# on the same bin.  Signs factor out of the magnitude computation: with p/n
# the positive/reflected-negative parts of a density, both signed outputs
# come from two magnitude passes over (p+n) and (p-n).  In a squaring (b is a)
# both operands of each pass are one array, so a pair's two products and a
# row's two terms are equal: the pass forms one of each and doubles it.


class BoxPlusTable:
    """Per-grid index tables of the quantized box-plus magnitude pass: the
    unsettled pairs and the rows of settled diagonal groups, each a gather
    from [p, q, suffix sums] and an output bin."""

    def __init__(self, grid: DensityGrid):
        self.grid = grid
        k = grid.k_max
        d = grid.bin_width

        m = np.arange(0, 2 * k + 1, dtype=np.float64)
        phi = np.log1p(np.exp(-m * d)) / d
        # the band is D < W, W the first D with phi(D) < 1/2: beyond it every
        # pair's correction rounds to exactly 0.  It holds at least D = 0.
        band = min(max(int(np.searchsorted(-phi, -0.5, side="right")), 1), k)

        # corrections of the band's diagonals, [D, smaller index - 1]
        dd = np.arange(band)[:, None]
        mm = np.arange(1, k + 1)[None, :]
        valid = mm <= k - dd
        corr = np.floor(phi[np.where(valid, 2 * mm + dd, 0)] - phi[dd] + 0.5).astype(np.int64)
        settled = np.zeros(k, dtype=np.int64)  # c_D
        settled[:band] = corr[np.arange(band), k - 1 - np.arange(band)]
        # first smaller index from which the diagonal stays at c_D; the
        # diagonal D = 0 is tabulated whole (it has no mirror pairs to share
        # a row with)
        first = np.ones(k, dtype=np.int64)
        first[:band] = np.where(valid & (corr != settled[:band, None]), mm, 0).max(axis=1) + 1
        first[0] = k + 1

        # The magnitude pass gathers from v = [p, q, sq, 0, sp, 0], with sq/sp
        # the suffix sums (sq[i] = sum_{j>=i} q[j]) and sq[k+1] = sp[k+1] = 0.
        n = k + 1
        at_p, at_q, at_sq, at_sp = 0, n, 2 * n, 3 * n + 1
        zero = at_sq + n

        # groups: runs of diagonals D >= 1 with one c_D, the band's apart from
        # the rest.  A diagonal joins the run of a row at m once it and every
        # diagonal before it in its group have settled; whatever comes earlier
        # is tabulated.
        starts = np.flatnonzero(np.diff(settled[1:])) + 2
        bounds = np.unique(np.concatenate(([1], starts, [band, k])))
        rows, row_out = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            first[lo:hi] = np.maximum.accumulate(first[lo:hi])
            rm = np.arange(first[lo], k - lo + 1)
            top = lo + np.searchsorted(first[lo:hi], rm, side="right")  # D_top + 1
            end = np.minimum(rm + top, n)
            rows.append((at_p + rm, at_sq + rm + lo, at_sq + end, at_q + rm, at_sp + rm + lo, at_sp + end))
            row_out.append(np.maximum(rm + settled[lo], 0))
        rows = np.concatenate(rows, axis=1) if rows else np.zeros((6, 0), dtype=np.int64)

        # tabulated pair and mirror, p[m] q[m+D] + q[m] p[m+D], on one bin
        tab = mm < first[:band, None]
        di, mi = np.nonzero(tab)
        m_tab = mi + 1
        mirror = np.where(di > 0, at_p + m_tab + di, zero)
        pairs = (at_p + m_tab, at_q + m_tab + di, at_q + m_tab, mirror)

        self.n_pairs = m_tab.size
        self.idx = np.concatenate((np.ravel(pairs), rows.ravel()))
        self.out = np.concatenate([np.maximum(m_tab + corr[tab], 0)] + row_out)

        # The squaring pass (q is p) gathers from [p, sp, 0]: each pair's and
        # row's first product, read through the p and sp entries in place of
        # the q and sq ones.  The D = 0 pairs come first (di is sorted); they
        # have no mirror, so only the entries after them are doubled.
        self.n_diag = int(np.count_nonzero(di == 0))
        self.square_idx = np.concatenate((pairs[0], pairs[1] - n, rows[0], rows[1] - n, rows[2] - n))

    def magnitude_op(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Bilinear magnitude combine: inputs indexed 1..k (entry 0 ignored),
        output indexed 0..k.

        With q is p the two products of a pair (p[m] p[m+D] twice) and of a
        row are equal, so the pass forms one of each and doubles it: x + x is
        2x exactly, and the bits are those of the general pass."""
        sp = np.cumsum(p[::-1])[::-1]
        t = self.n_pairs
        if q is p:
            g = np.concatenate((p, sp, [0.0]))[self.square_idx]
            row = g[2 * t :].reshape(3, -1)
            weights = np.concatenate((g[:t] * g[t : 2 * t], row[0] * (row[1] - row[2])))
            weights[self.n_diag :] *= 2.0
            return np.bincount(self.out, weights=weights, minlength=p.size)
        sq = np.cumsum(q[::-1])[::-1]
        g = np.concatenate((p, q, sq, [0.0], sp, [0.0]))[self.idx]
        pair = g[: 4 * t].reshape(4, t)
        row = g[4 * t :].reshape(6, -1)
        weights = np.concatenate(
            (pair[0] * pair[1] + pair[2] * pair[3], row[0] * (row[1] - row[2]) + row[3] * (row[4] - row[5]))
        )
        return np.bincount(self.out, weights=weights, minlength=p.size)


@cache
def _boxplus_table(grid: DensityGrid) -> BoxPlusTable:
    return BoxPlusTable(grid)


def _cn_parts(a: LlrDensity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p + n, p - n, finite nonzero masses) of a density, with p/n its
    positive and reflected negative parts indexed 1..k after a leading 0."""
    c = a.grid.center
    ap = np.concatenate(([0.0], a.mass[c + 1 :]))
    an = np.concatenate(([0.0], a.mass[c - 1 :: -1]))
    fin_nz = a.mass.copy()
    fin_nz[c] = 0.0
    return ap + an, ap - an, fin_nz


def conv_cn(a: LlrDensity, b: LlrDensity) -> LlrDensity:
    """Density of boxplus(x, y) for independent x ~ a, y ~ b."""
    _check_same_grid(a, b)
    if is_delta_inf(a):
        return b
    if is_delta_inf(b):
        return a
    if is_delta_zero(a):
        return a
    if is_delta_zero(b):
        return b
    g = a.grid
    c = g.center
    tab = _boxplus_table(g)

    a0 = float(a.mass[c])
    b0 = float(b.mass[c])

    # a squaring reuses its operand's parts, so magnitude_op sees one array
    # for both operands and takes its squaring pass
    a_sum, a_diff, fin_nz_a = _cn_parts(a)
    b_sum, b_diff, fin_nz_b = (a_sum, a_diff, fin_nz_a) if b is a else _cn_parts(b)

    ms = tab.magnitude_op(a_sum, b_sum)
    md = tab.magnitude_op(a_diff, b_diff)
    mass = np.empty(g.n_bins)
    np.add(ms[1:], md[1:], out=mass[c + 1 :])
    np.subtract(ms[1:], md[1:], out=mass[c - 1 :: -1])
    mass *= 0.5
    # anything box-plussed with an erasure is an erasure
    mass[c] = ms[0] + a0 + b0 - a0 * b0

    # +inf is the identity, -inf reflects.  Without infinite mass these terms
    # are exact zeros, and adding them changes no entry (none is -0.0: the
    # bincount sums start at +0.0), so they are skipped.
    if a.mass_pos_inf or a.mass_neg_inf or b.mass_pos_inf or b.mass_neg_inf:
        mass += a.mass_pos_inf * fin_nz_b + b.mass_pos_inf * fin_nz_a
        mass += a.mass_neg_inf * fin_nz_b[::-1] + b.mass_neg_inf * fin_nz_a[::-1]

    pos = a.mass_pos_inf * b.mass_pos_inf + a.mass_neg_inf * b.mass_neg_inf
    neg = a.mass_pos_inf * b.mass_neg_inf + a.mass_neg_inf * b.mass_pos_inf

    return make_density(g, mass, pos, neg)


# ---------------------------------------------------------------------------
# mixtures, polynomials, functionals
# ---------------------------------------------------------------------------


def mix(densities: list[LlrDensity], weights) -> LlrDensity:
    """Convex mixture of densities on a common grid."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(densities) != weights.size or len(densities) == 0:
        raise ValueError("need one weight per density")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be a probability vector")
    g = densities[0].grid
    for d in densities[1:]:
        if d.grid != g:
            raise GridMismatchError("mixture over mismatched grids")
    mass = np.zeros(g.n_bins)
    pos = neg = 0.0
    for wgt, d in zip(weights, densities):
        mass += wgt * d.mass
        pos += wgt * d.mass_pos_inf
        neg += wgt * d.mass_neg_inf
    return make_density(g, mass, pos, neg)


def _power(a: LlrDensity, n: int, conv, unit: LlrDensity, squares: list | None) -> LlrDensity:
    """n-fold self-convolution under `conv` by repeated squaring; n = 0 gives
    `unit`.  `squares`, when given, is the list [a, a^2, a^4, ...] of the
    squarings done so far, extended in place, so that several powers of one
    density square it once."""
    if n < 0:
        raise ValueError("negative power")
    if squares is None:
        squares = [a]
    result = unit
    k = 0
    while n:
        if k == len(squares):
            squares.append(conv(squares[-1], squares[-1]))
        if n & 1:
            result = conv(result, squares[k])
        n >>= 1
        k += 1
    return result


def power_vn(a: LlrDensity, n: int, squares: list | None = None) -> LlrDensity:
    """n-fold variable-node self-convolution; n = 0 gives the 0-LLR delta."""
    return _power(a, n, conv_vn, delta_zero(a.grid), squares)


def power_cn(a: LlrDensity, n: int) -> LlrDensity:
    """n-fold box-plus self-convolution; n = 0 gives the +inf delta."""
    return _power(a, n, conv_cn, delta_inf(a.grid), None)


def _poly_apply(coeffs, a: LlrDensity, conv, unit: LlrDensity, edge: bool, squares=None) -> LlrDensity:
    """Mixture sum_i coeffs[i] * a^(i-1) (edge perspective) or a^i (node)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    nonzero = np.nonzero(coeffs)[0]
    if nonzero.size == 1:
        # regular polynomial: one power, computed by repeated squaring
        deg = int(nonzero[0])
        return _power(a, deg - 1 if edge else deg, conv, unit, squares)
    parts, weights = [], []
    power = unit if edge else conv(unit, a)  # degree-1 term
    for i in range(1, coeffs.size):
        if coeffs[i] > 0:
            parts.append(power)
            weights.append(coeffs[i])
        if i + 1 < coeffs.size:
            power = conv(power, a)
    return mix(parts, np.asarray(weights) / sum(weights)) if len(parts) > 1 else parts[0]


def poly_vn(coeffs, a: LlrDensity, squares: list | None = None) -> LlrDensity:
    """Edge-perspective variable polynomial: sum_i coeffs[i] a^{*(i-1)}.

    coeffs is indexed by degree (coeffs[0] unused and must be 0).  A regular
    polynomial is one power_vn, which shares `squares` with other powers of a.
    """
    return _poly_apply(coeffs, a, conv_vn, delta_zero(a.grid), True, squares)


def poly_cn(coeffs, a: LlrDensity) -> LlrDensity:
    """Edge-perspective check polynomial: sum_i coeffs[i] a^{boxplus(i-1)}."""
    return _poly_apply(coeffs, a, conv_cn, delta_inf(a.grid), True)


def poly_vn_node(coeffs, a: LlrDensity, squares: list | None = None) -> LlrDensity:
    """Node-perspective polynomial sum_i coeffs[i] a^{*i}: a degree-i variable
    node aggregates all i of its check edges toward the function node."""
    return _poly_apply(coeffs, a, conv_vn, delta_zero(a.grid), False, squares)


@cache
def _entropy_kernel(grid: DensityGrid) -> np.ndarray:
    return np.logaddexp(0.0, -grid.centers()) * LOG2E


def entropy(a: LlrDensity) -> float:
    """Entropy functional sum a(z) log2(1 + e^-z), in bits.

    Equals H(X|Y) in [0, 1] for symmetric densities.  Mass at -inf was folded
    from beyond -half_range, so it is charged the boundary kernel value.
    """
    kern = _entropy_kernel(a.grid)
    h = float(a.mass @ kern)
    if a.mass_neg_inf:
        h += a.mass_neg_inf * float(np.logaddexp(0.0, a.grid.half_range) * LOG2E)
    return h


def error_prob(a: LlrDensity) -> float:
    """Probability of a sign error: negative mass plus half the 0-bin mass."""
    c = a.grid.center
    return float(a.mass[:c].sum() + 0.5 * a.mass[c] + a.mass_neg_inf)


def symmetry_residual(a: LlrDensity) -> float:
    """sum_{z>0} |a(-z) - e^-z a(z)| * bin_width; 0 for exactly symmetric."""
    c = a.grid.center
    z = a.grid.centers()[c + 1 :]
    pos = a.mass[c + 1 :]
    neg = a.mass[c - 1 :: -1]
    return float(np.abs(neg - np.exp(-z) * pos).sum() * a.grid.bin_width)
