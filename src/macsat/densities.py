"""Quantized LLR densities and the convolution algebra used by density evolution.

A density lives on a uniform grid of LLR bins plus one point mass at +inf.
All densities are conditioned on the transmission of a +1, so a "good" density
piles mass on positive LLRs and a perfectly decoded message is the delta at
+inf.  DE carries only symmetric densities, a(-z) = e^-z a(z), and symmetry
leaves no mass at -inf, so there is no point mass there.  Variable-node
combining is ordinary addition of LLRs, a linear convolution done as a
product of numpy's real FFTs (the pocketfft kernels that scipy.fft runs, so
the bits are fftconvolve's) at one fixed length per grid; each density
transforms its masses at most once and keeps the spectrum, so a squaring or
a density convolved again costs no further forward transform.
Check-node combining is the box-plus rule 2*atanh(tanh(x/2)*tanh(y/2)), done
exactly on the quantized grid via a precomputed output-bin table.
The arithmetic of make_density, conv_vn, conv_cn and mix runs over the last
axis, so `DensityRows`, a stack of densities one per row, runs the same ops
on all rows at once with the same bits (coupled DE stacks its positions).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from numpy.fft import irfft, rfft

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
        """Real-FFT length of the variable-node convolution: the smallest
        2·3·5-smooth length at or above the 4k+1 entries of a full linear
        convolution, the length scipy.fft.next_fast_len(4k+1, real=True)
        gives and scipy.signal.fftconvolve transforms at."""
        return _smooth_len(4 * self.k_max + 1)


def _smooth_len(n: int) -> int:
    """The smallest integer at or above n >= 1 with no prime factor above 5."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^j at or above n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def default_grid() -> DensityGrid:
    # half_range 30, 4097 bins; threshold error from quantization is well
    # below the tolerances used by the acceptance checks.
    return DensityGrid(bin_width=30.0 / 2048.0, half_range=30.0)


@dataclass(frozen=True)
class LlrDensity:
    """Probability masses per LLR bin plus a point mass at +inf.

    Instances are immutable values: the mass vector is frozen after
    construction and every operation returns a fresh density, so sweeps can
    evaluate densities in parallel without locking.  The finite mass and the
    spectrum are derived from the frozen masses on first use and kept on the
    instance, outside the fields.
    """

    grid: DensityGrid
    mass: np.ndarray
    mass_pos_inf: float = 0.0

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
    worse is a bug upstream, not roundoff).  Mass given at -inf is clipped
    into the lowest finite bin, as conv_vn clips its out-of-range mass.
    """
    mass = np.asarray(mass, dtype=np.float64)
    if neg_inf > 0.0:
        if mass.min(initial=0.0) < -1e-9:
            raise ValueError(f"negative mass {mass.min()}")
        mass = np.maximum(mass, 0.0)
        mass[0] += neg_inf
    elif neg_inf < -1e-9:
        raise ValueError(f"negative mass {neg_inf}")
    return LlrDensity(grid, *_normalized(mass, float(pos_inf)))


def _normalized(mass: np.ndarray, pos):
    """make_density's arithmetic over the last axis: (masses, +inf masses)
    of one density (a float pos) or of a stack of them (pos one per row)."""
    rows = np.ndim(pos)
    low = min(mass.min(initial=0.0), pos.min(initial=0.0) if rows else pos)
    if low < -1e-9:
        raise ValueError(f"negative mass {low}")
    mass = np.maximum(mass, 0.0)
    pos = np.maximum(pos, 0.0) if rows else max(pos, 0.0)
    total = mass.sum(axis=-1) + pos
    if (np.abs(total - 1.0).max(initial=0.0) if rows else abs(total - 1.0)) > 1e-9:
        raise ValueError(f"total mass {total} too far from 1")
    return mass / (total[:, None] if rows else total), pos / total


def delta_inf(grid: DensityGrid) -> LlrDensity:
    """All mass at +inf (perfect knowledge of a transmitted +1)."""
    return LlrDensity(grid, np.zeros(grid.n_bins), 1.0)


def delta_zero(grid: DensityGrid) -> LlrDensity:
    """All mass at LLR 0 (erasure / no knowledge)."""
    m = np.zeros(grid.n_bins)
    m[grid.center] = 1.0
    return LlrDensity(grid, m)


class DensityRows:
    """A stack of densities on one grid, one per row: masses (P, n) and +inf
    masses (P,); `rows[i]` is row i as an LlrDensity.  The stacked
    operations below run the arithmetic of the one-density ones over all
    rows at once, with that arithmetic's bits; a row the one-density
    operation answers by an early return takes that operand's row through a
    mask.  The spectra of the rows a variable-node convolution reads are
    taken on first use, in one transform, and kept."""

    def __init__(self, grid: DensityGrid, mass: np.ndarray, pos: np.ndarray):
        self.grid = grid
        self.mass = mass
        self.pos = pos
        self._spectrum = None
        self._has_spectrum = np.zeros(len(pos), dtype=bool)

    @classmethod
    def of(cls, densities) -> "DensityRows":
        grid = densities[0].grid
        if any(d.grid != grid for d in densities):
            raise GridMismatchError("stack over mismatched grids")
        return cls(grid, np.array([d.mass for d in densities]), np.array([float(d.mass_pos_inf) for d in densities]))

    @classmethod
    def make(cls, grid: DensityGrid, mass: np.ndarray, pos: np.ndarray) -> "DensityRows":
        """make_density row by row: clip, check and rescale each row."""
        return cls(grid, *_normalized(mass, pos))

    @classmethod
    def delta_inf(cls, grid: DensityGrid, rows: int) -> "DensityRows":
        """rows +inf deltas whose masses all read one zero row (a read-only
        view), so that such a stack, a decoded chain say, holds one row."""
        return cls(grid, np.broadcast_to(np.zeros(grid.n_bins), (rows, grid.n_bins)), np.ones(rows))

    def __len__(self) -> int:
        return len(self.pos)

    @property
    def inf(self) -> np.ndarray:
        """Rows that are the +inf delta (is_delta_inf)."""
        return self.pos == 1.0

    @property
    def zero(self) -> np.ndarray:
        """Rows that are the 0-LLR delta (is_delta_zero)."""
        return self.mass[:, self.grid.center] == 1.0

    def take(self, rows) -> "DensityRows":
        return DensityRows(self.grid, self.mass[rows], self.pos[rows])

    def put(self, rows, src: "DensityRows") -> "DensityRows":
        """A copy with the given rows replaced by those of src."""
        mass, pos = self.mass.copy(), self.pos.copy()
        mass[rows], pos[rows] = src.mass, src.pos
        return DensityRows(self.grid, mass, pos)

    def __getitem__(self, i: int) -> LlrDensity:
        return LlrDensity(self.grid, self.mass[i], self.pos[i])

    def spectrum(self, rows: np.ndarray) -> np.ndarray:
        need = rows & ~self._has_spectrum
        if need.any():
            if self._spectrum is None:
                self._spectrum = np.empty((len(self), self.grid.fft_len // 2 + 1), dtype=complex)
            self._spectrum[need] = rfft(self.mass[need], self.grid.fft_len)
            self._has_spectrum |= need
        return self._spectrum[rows]

    def entropies(self) -> np.ndarray:
        """entropy of each row, one dot product per row as entropy takes it."""
        kernel = _entropy_kernel(self.grid)
        return np.array([m @ kernel for m in self.mass])

    def error_probs(self) -> np.ndarray:
        c = self.grid.center
        return self.mass[:, :c].sum(axis=-1) + 0.5 * self.mass[:, c]


def _combine_rows(a: DensityRows, b: DensityRows, take_a, take_b, where, arithmetic) -> DensityRows:
    """Rows of a two-operand operation: rows outside `where` are the +inf
    delta, take_a and take_b rows (the early returns) copy that operand's
    row, and the rest come from arithmetic(rows) -> (masses, +inf masses)."""
    mass, pos = np.zeros(a.mass.shape), np.ones(len(a))
    for take, src in ((take_a & where, a), (take_b & where, b)):
        mass[take], pos[take] = src.mass[take], src.pos[take]
    live = where & ~take_a & ~take_b
    if live.any():
        mass[live], pos[live] = arithmetic(live)
    return DensityRows(a.grid, mass, pos)


def conv_vn_rows(a: DensityRows, b: DensityRows, where=None) -> DensityRows:
    """conv_vn of each row pair; rows outside `where` (by default there are
    none) are not combined and come back as the +inf delta."""
    where = np.ones(len(a), dtype=bool) if where is None else where
    a_zero, b_zero = a.zero, b.zero

    def arithmetic(live):
        return _vn_rows(
            a.grid, a.spectrum(live), b.spectrum(live),
            a.mass[live].sum(axis=-1), a.pos[live], b.mass[live].sum(axis=-1), b.pos[live],
        )  # fmt: skip

    return _combine_rows(a, b, ~a_zero & (b_zero | (a.inf & b.inf)), a_zero, where, arithmetic)


def conv_cn_rows(a: DensityRows, b: DensityRows) -> DensityRows:
    """conv_cn of each row pair; `b is a` squares every row."""
    a_inf, b_inf = a.inf, b.inf
    a_zero, b_zero = a.zero, b.zero

    def arithmetic(live):
        return _cn_rows(a.grid, a.mass[live], a.pos[live], b.mass[live], b.pos[live], b is a)

    take_b = a_inf | (~b_inf & ~a_zero & b_zero)
    return _combine_rows(a, b, ~a_inf & (b_inf | a_zero), take_b, np.ones(len(a), dtype=bool), arithmetic)


def mix_rows(rows: DensityRows, index: np.ndarray, weights) -> DensityRows:
    """Row r is mix([row index[r, j] for j], weights), summed in mix's order."""
    return DensityRows(
        rows.grid, *_mix_rows([rows.mass[col] for col in index.T], [rows.pos[col] for col in index.T], weights)
    )


def _squarings(n: int, conv, squares: list):
    """The n-th power (n >= 1) under `conv` by repeated squaring, of one
    density or of a stack of them: `squares` is the list [a, a^2, a^4, ...]
    of the squarings done so far, extended in place, so that several powers
    of one operand square it once.  The first factor is taken as it is: its
    combine with the unit would be an early return of it."""
    if n < 1:
        raise ValueError("powers by squaring start at 1")
    result = None
    k = 0
    while n:
        if k == len(squares):
            squares.append(conv(squares[-1], squares[-1]))
        if n & 1:
            result = squares[k] if result is None else conv(result, squares[k])
        n >>= 1
        k += 1
    return result


def power_vn_rows(a: DensityRows, n: int) -> DensityRows:
    return _squarings(n, conv_vn_rows, [a])


def power_cn_rows(a: DensityRows, n: int) -> DensityRows:
    return _squarings(n, conv_cn_rows, [a])


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
    under addition).  The +inf point mass absorbs any finite value.
    """
    _check_same_grid(a, b)
    if is_delta_zero(a):
        return b
    if is_delta_zero(b):
        return a
    if is_delta_inf(a) and is_delta_inf(b):
        return a
    return LlrDensity(
        a.grid,
        *_vn_rows(a.grid, a.spectrum, b.spectrum, a.finite_mass, a.mass_pos_inf, b.finite_mass, b.mass_pos_inf),
    )


def _vn_rows(g: DensityGrid, spec_a, spec_b, fin_a, pos_a, fin_b, pos_b):
    """conv_vn's arithmetic over the last axis, from the operands' spectra,
    finite masses and +inf masses: (masses, +inf masses)."""
    k = g.k_max
    # the linear convolution has 4k+1 entries, center index 2k; the padding
    # beyond them holds only roundoff
    fin = np.maximum(irfft(spec_a * spec_b, g.fft_len)[..., : 4 * k + 1], 0.0)
    core = fin[..., k : 3 * k + 1]
    core[..., -1] += fin[..., 3 * k + 1 :].sum(axis=-1)
    core[..., 0] += fin[..., :k].sum(axis=-1)
    return _normalized(core, pos_a * (fin_b + pos_b) + pos_b * fin_a)


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
        n = p.size
        t = self.n_pairs
        if q is p:
            # one buffer [p, sp, 0], the suffix sums summed into it reversed
            v = np.empty(2 * n + 1)
            v[:n] = p
            p[::-1].cumsum(out=v[2 * n - 1 : n - 1 : -1])
            v[2 * n] = 0.0
            g = v.take(self.square_idx)
            row = g[2 * t :].reshape(3, -1)
            weights = np.empty(t + row.shape[1])
            np.multiply(g[:t], g[t : 2 * t], out=weights[:t])
            np.subtract(row[1], row[2], out=weights[t:])
            np.multiply(row[0], weights[t:], out=weights[t:])
            weights[self.n_diag :] *= 2.0
            return np.bincount(self.out, weights=weights, minlength=n)
        # [p, q, sq, 0, sp, 0]
        v = np.empty(4 * n + 2)
        v[:n] = p
        v[n : 2 * n] = q
        q[::-1].cumsum(out=v[3 * n - 1 : 2 * n - 1 : -1])
        v[3 * n] = 0.0
        p[::-1].cumsum(out=v[4 * n : 3 * n : -1])
        v[4 * n + 1] = 0.0
        g = v.take(self.idx)
        pair = g[: 4 * t].reshape(4, t)
        row = g[4 * t :].reshape(6, -1)
        weights = np.empty(t + row.shape[1])
        w_pair, w_row = weights[:t], weights[t:]
        np.multiply(pair[0], pair[1], out=w_pair)
        w_pair += pair[2] * pair[3]
        np.subtract(row[1], row[2], out=w_row)
        w_row *= row[0]
        w_row += row[3] * (row[4] - row[5])
        return np.bincount(self.out, weights=weights, minlength=n)


@cache
def _boxplus_table(grid: DensityGrid) -> BoxPlusTable:
    return BoxPlusTable(grid)


def _cn_parts(mass: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p + n, p - n, finite nonzero masses) over the last axis, with p/n the
    positive and reflected negative parts indexed 1..k after a leading 0."""
    lead = np.zeros(mass.shape[:-1] + (1,))
    ap = np.concatenate((lead, mass[..., c + 1 :]), axis=-1)
    an = np.concatenate((lead, mass[..., c - 1 :: -1]), axis=-1)
    fin_nz = mass.copy()
    fin_nz[..., c] = 0.0
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
    return LlrDensity(a.grid, *_cn_rows(a.grid, a.mass, a.mass_pos_inf, b.mass, b.mass_pos_inf, b is a))


def _cn_rows(g: DensityGrid, a_mass, a_pos, b_mass, b_pos, square: bool):
    """conv_cn's arithmetic over the last axis: (masses, +inf masses).  The
    magnitude passes run one row at a time; a squaring hands each pass one
    array for both operands, so magnitude_op takes its squaring branch."""
    c = g.center
    tab = _boxplus_table(g)
    a0 = a_mass[..., c]
    b0 = b_mass[..., c]
    a_sum, a_diff, fin_nz_a = _cn_parts(a_mass, c)
    b_sum, b_diff, fin_nz_b = (a_sum, a_diff, fin_nz_a) if square else _cn_parts(b_mass, c)

    def passes(x, y):
        if x.ndim == 1:
            return tab.magnitude_op(x, x if square else y)
        return np.array([tab.magnitude_op(u, u if square else v) for u, v in zip(x, y)])

    ms = passes(a_sum, b_sum)
    md = passes(a_diff, b_diff)
    mass = np.empty(a_mass.shape)
    np.add(ms[..., 1:], md[..., 1:], out=mass[..., c + 1 :])
    np.subtract(ms[..., 1:], md[..., 1:], out=mass[..., c - 1 :: -1])
    mass *= 0.5
    # anything box-plussed with an erasure is an erasure
    mass[..., c] = ms[..., 0] + a0 + b0 - a0 * b0

    # +inf is the identity.  Without infinite mass these terms are exact
    # zeros, and adding them changes no entry (none is -0.0: the bincount
    # sums start at +0.0), so they are skipped.
    if np.any(a_pos) or np.any(b_pos):
        mass += np.expand_dims(a_pos, -1) * fin_nz_b + np.expand_dims(b_pos, -1) * fin_nz_a
    return _normalized(mass, a_pos * b_pos)


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
    return LlrDensity(g, *_mix_rows([d.mass for d in densities], [d.mass_pos_inf for d in densities], weights))


def _mix_rows(masses, poss, weights):
    """mix's arithmetic over the last axis, summed in the order given:
    (masses, +inf masses)."""
    mass = np.zeros(masses[0].shape)
    pos = 0.0
    for wgt, m, p in zip(weights, masses, poss):
        mass += wgt * m
        pos += wgt * p
    return _normalized(mass, pos)


def _power(a: LlrDensity, n: int, conv, unit: LlrDensity, squares: list | None) -> LlrDensity:
    """n-fold self-convolution under `conv` by repeated squaring; n = 0 gives
    `unit`.  `squares`, when given, is the list of squarings of a that
    `_squarings` extends."""
    if n < 0:
        raise ValueError("negative power")
    return _squarings(n, conv, [a] if squares is None else squares) if n else unit


def _poly_apply(coeffs, a: LlrDensity, conv, unit: LlrDensity, shift: int, squares=None) -> LlrDensity:
    """Mixture sum_i coeffs[i] * a^(i - shift): shift 1 is the edge
    perspective, 0 the node perspective.  Each degree's power is taken by
    repeated squaring on one list of squarings of a (`squares` when given)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    degrees = np.flatnonzero(coeffs)
    squares = [a] if squares is None else squares
    parts = [_power(a, int(i) - shift, conv, unit, squares) for i in degrees]
    weights = coeffs[degrees]
    return mix(parts, weights / weights.sum()) if len(parts) > 1 else parts[0]


def poly_vn(coeffs, a: LlrDensity, squares: list | None = None) -> LlrDensity:
    """Edge-perspective variable polynomial: sum_i coeffs[i] a^{*(i-1)}.

    coeffs is indexed by degree (coeffs[0] must be 0).  Its powers share
    `squares` with other powers of a.
    """
    return _poly_apply(coeffs, a, conv_vn, delta_zero(a.grid), 1, squares)


def poly_cn(coeffs, a: LlrDensity) -> LlrDensity:
    """Edge-perspective check polynomial: sum_i coeffs[i] a^{boxplus(i-1)}."""
    return _poly_apply(coeffs, a, conv_cn, delta_inf(a.grid), 1)


def poly_vn_node(coeffs, a: LlrDensity, squares: list | None = None) -> LlrDensity:
    """Node-perspective polynomial sum_i coeffs[i] a^{*i}: a degree-i variable
    node aggregates all i of its check edges toward the function node."""
    return _poly_apply(coeffs, a, conv_vn, delta_zero(a.grid), 0, squares)


@cache
def _entropy_kernel(grid: DensityGrid) -> np.ndarray:
    return np.logaddexp(0.0, -grid.centers()) * LOG2E


def entropy(a: LlrDensity) -> float:
    """Entropy functional sum a(z) log2(1 + e^-z), in bits.

    Equals H(X|Y) in [0, 1] for symmetric densities; the +inf mass costs
    nothing.
    """
    return float(a.mass @ _entropy_kernel(a.grid))


def error_prob(a: LlrDensity) -> float:
    """Probability of a sign error: negative mass plus half the 0-bin mass."""
    c = a.grid.center
    return float(a.mass[:c].sum() + 0.5 * a.mass[c])


def symmetry_residual(a: LlrDensity) -> float:
    """sum_{z>0} |a(-z) - e^-z a(z)| * bin_width; 0 for exactly symmetric."""
    c = a.grid.center
    z = a.grid.centers()[c + 1 :]
    pos = a.mass[c + 1 :]
    neg = a.mass[c - 1 :: -1]
    return float(np.abs(neg - np.exp(-z) * pos).sum() * a.grid.bin_width)
