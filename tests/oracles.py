"""Reference implementations the tests compare the package against.

They evaluate the same quantities as the production kernels pointwise and in
the most direct form, so they are slow and live here rather than in src/.
The Monte-Carlo side of the DE-versus-simulation checks lives here too: the
joint decoder's messages at a fixed round and their distance to a DE density.
"""

from itertools import islice
from unittest import mock

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import expit

from macsat import channel
from macsat.channel import PI1, PI2, ChannelPoint, FnOperator, _gaussian_strata, gauss_hermite
from macsat.densities import (
    DensityGrid,
    LlrDensity,
    delta_inf,
    is_delta_inf,
    is_delta_zero,
    make_density,
    mix,
    power_cn,
    power_vn,
)
from macsat.gexit import INF_LLR, KERNEL_ORDER, LOG2E, _rebin
from macsat.mcsim import (
    LLR_CLIP,
    JointInstance,
    LdpcGraph,
    _bp_rounds,
    _fn_outputs,
    _rng_for,
    _transmit,
)


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


def total_mass(dens: LlrDensity) -> float:
    """All of a density's mass, the +-inf point masses included: 1 for every
    density the kernels produce."""
    return float(dens.mass.sum() + dens.mass_pos_inf + dens.mass_neg_inf)


def delta_neg_inf(grid: DensityGrid) -> LlrDensity:
    """All mass at -inf (perfect knowledge of the wrong sign)."""
    return LlrDensity(grid, np.zeros(grid.n_bins), 0.0, 1.0)


def delta_at(grid: DensityGrid, llr: float) -> LlrDensity:
    """Point mass at the bin nearest to `llr`."""
    # no bin lies within reach of twice the half-range (nor of +-inf)
    i = int(grid.llr_to_index(llr)) if abs(llr) < 2 * grid.half_range else -1
    if not 0 <= i < grid.n_bins:
        return delta_inf(grid) if llr > 0 else delta_neg_inf(grid)
    m = np.zeros(grid.n_bins)
    m[i] = 1.0
    return LlrDensity(grid, m, 0.0, 0.0)


def fftconvolve_conv_vn(a: LlrDensity, b: LlrDensity) -> LlrDensity:
    """Variable-node convolution through `scipy.signal.fftconvolve`, which
    transforms both operands on every call: the oracle for `conv_vn` and its
    per-density spectrum."""
    if is_delta_zero(a):
        return b
    if is_delta_zero(b):
        return a
    if is_delta_inf(a) and is_delta_inf(b):
        return a
    g = a.grid
    k = g.k_max
    fin = np.maximum(fftconvolve(a.mass, b.mass), 0.0)  # length 4k+1, center 2k
    core = fin[k : 3 * k + 1].copy()
    core[-1] += float(fin[3 * k + 1 :].sum())
    core[0] += float(fin[:k].sum())
    a_fin = float(a.mass.sum())
    b_fin = float(b.mass.sum())
    pos = a.mass_pos_inf * (b_fin + b.mass_pos_inf) + b.mass_pos_inf * a_fin
    neg = a.mass_neg_inf * (b_fin + b.mass_neg_inf) + b.mass_neg_inf * a_fin
    core[k] += a.mass_pos_inf * b.mass_neg_inf + a.mass_neg_inf * b.mass_pos_inf
    return make_density(g, core, pos, neg)


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


def logaddexp_fn_llr(y, m, h_t: float, h_p: float):
    """`channel.fn_llr` through np.logaddexp, the form the function-node
    operator was first built with: the oracle for its split softplus."""
    gpp = -0.5 * (y - (h_t + h_p)) ** 2
    gpm = -0.5 * (y - (h_t - h_p)) ** 2
    gmp = -0.5 * (y - (-h_t + h_p)) ** 2
    gmm = -0.5 * (y - (-h_t - h_p)) ** 2
    return np.logaddexp(gpp + m, gpm) - np.logaddexp(gmp + m, gmm)


def logaddexp_fn_operator(grid: DensityGrid, h_target: float, h_partner: float) -> FnOperator:
    """`FnOperator` assembled from `logaddexp_fn_llr` instead of `fn_llr`."""
    with mock.patch.object(channel, "fn_llr", logaddexp_fn_llr):
        return FnOperator(grid, h_target, h_partner)


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


def nu(x: int, y, ch: ChannelPoint):
    """Gaussian output density p(y | symbol x)."""
    mean = ch.means()[x]
    y = np.asarray(y, dtype=np.float64)
    return np.exp(-0.5 * (y - mean) ** 2) / np.sqrt(2.0 * np.pi)


def dp_dalpha(x: int, y, ch: ChannelPoint):
    """Analytic d p(y|x) / d alpha at fixed ratio, the channel derivative the
    GEXIT kernel integrates against."""
    s = ch.slopes()[x]
    y = np.asarray(y, dtype=np.float64)
    return nu(x, y, ch) * (y - ch.alpha * s) * s


def lift(u: float, v: float) -> np.ndarray:
    """Extrinsic pair (u, v) lifted to the posterior 4-vector over symbols."""
    su = expit(u)
    sv = expit(v)
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


def var_degrees(graph: LdpcGraph) -> np.ndarray:
    return np.bincount(graph.edge_var, minlength=graph.n_vars)


def check_degrees(graph: LdpcGraph) -> np.ndarray:
    return np.bincount(graph.edge_check, minlength=graph.n_checks)


def design_rate_realized(graph: LdpcGraph) -> float:
    """1 - (connected checks) / variables; degree-0 checks are vacuous."""
    active = int(np.count_nonzero(check_degrees(graph)))
    return 1.0 - active / graph.n_vars


def gauss_jordan_rref(graph: LdpcGraph) -> tuple[list[int], np.ndarray]:
    """Reduced row-echelon form of the graph's parity-check matrix over GF(2),
    one column at a time on bit-packed rows: (reduced rows as little-endian
    ints, pivot columns).  The RREF is unique, so `Gf2Encoder`'s blocked
    elimination must reproduce it bit for bit."""
    n, m = graph.n_vars, graph.n_checks
    words = (n + 63) // 64
    rows = np.zeros((m, words), dtype=np.uint64)
    np.bitwise_xor.at(
        rows,
        (graph.edge_check, graph.edge_var // 64),
        np.uint64(1) << (graph.edge_var % 64).astype(np.uint64),
    )  # parallel edges cancel mod 2

    pivots = []
    rank = 0
    for col in range(n):
        wcol, bit = col // 64, np.uint64(col % 64)
        hits = np.nonzero((rows[rank:, wcol] >> bit) & np.uint64(1))[0]
        if hits.size == 0:
            continue
        piv = rank + hits[0]
        rows[[rank, piv]] = rows[[piv, rank]]
        sel = np.nonzero((rows[:, wcol] >> bit) & np.uint64(1))[0]
        sel = sel[sel != rank]
        rows[sel] ^= rows[rank]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    row_ints = [int.from_bytes(rows[i].tobytes(), "little") for i in range(rank)]
    return row_ints, np.array(pivots, dtype=np.int64)


def rref_encode(row_ints: list[int], pivot_cols: np.ndarray, info_bits: np.ndarray) -> np.ndarray:
    """Systematic codeword from `gauss_jordan_rref`'s output, one reduced row
    at a time: the free columns carry the information bits, and each pivot
    bit is the popcount parity of its row's overlap with them."""
    n = len(info_bits) + len(pivot_cols)
    x = np.zeros(n, dtype=np.uint8)
    x[np.setdiff1d(np.arange(n), pivot_cols)] = info_bits & 1
    packed = int.from_bytes(np.packbits(x, bitorder="little").tobytes(), "little")
    for row, col in zip(row_ints, pivot_cols):
        x[col] = (row & packed).bit_count() & 1
    return x


def round_messages(inst: JointInstance, ch: ChannelPoint, y, k: int) -> tuple:
    """Round k (k >= 1) of the joint BP decoder's messages, run past any clean
    syndrome: (v->c 1, v->c 2, f->v 1, f->v 2, hard 1, hard 2)."""
    return next(islice(_bp_rounds(inst, ch, y), k - 1, None))


def positional_errors(
    inst: JointInstance, ch: ChannelPoint, max_iters: int, seed: int = 0
) -> np.ndarray:
    """Per-position user-1 bit-error counts after `max_iters` rounds of one
    random-codeword frame on a coupled instance: the decoding-wave footprint
    (boundary positions clear before the chain center)."""
    if inst.graph1.var_pos is None:
        raise ValueError("positional error traces need a coupled instance")
    x1, x2, y = _transmit(inst, ch, "random", _rng_for(seed, stream=3000))
    wrong = round_messages(inst, ch, y, max_iters)[4] != x1
    positions = np.unique(inst.graph1.var_pos)
    return np.array(
        [int(np.count_nonzero(wrong[inst.graph1.var_pos == p])) for p in positions]
    )


def de_mc_crosscheck(
    inst: JointInstance,
    ch: ChannelPoint,
    de_density: LlrDensity,
    iteration: int,
    num_frames: int = 1,
    seed: int = 0,
    mode: str = "signs",
) -> dict:
    """Kolmogorov distance between the empirical iteration-k user-1 message
    histogram and a DE density (messages sign-adjusted to the +1 frame).

    DE conditions on type-one-half codewords, so the transmission must carry
    +-1 bits in both codes.  mode "signs" draws them i.i.d. uniform: exact for
    k <= 1 (check messages are still zero) and cheap at large n.  mode
    "random" transmits true random codewords (systematic encoding), valid at
    any k; cycles still make k >= 3 unreliable at small n, which is flagged,
    not asserted.  iteration = 0 compares the raw function-node outputs.
    """
    if mode not in ("signs", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "signs" and iteration > 1:
        raise ValueError("i.i.d. signs break check parity; use mode='random' for k >= 2")

    samples = []
    for frame in range(num_frames):
        rng = _rng_for(seed, stream=2000 + frame)
        if mode == "signs":  # drawn as x1 bits, x2 bits, then the noise
            n = inst.graph1.n_vars
            x1 = 1.0 - 2.0 * rng.integers(0, 2, size=n)
            x2 = 1.0 - 2.0 * rng.integers(0, 2, size=n)
            y = ch.h1 * x1 + ch.h2 * x2[inst.matching] + rng.standard_normal(n)
        else:
            x1, x2, y = _transmit(inst, ch, "random", rng)
        if iteration == 0:
            out = _fn_outputs(y, np.zeros(y.size), ch, 1)
            samples.append(out * x1)
        else:
            vc1 = round_messages(inst, ch, y, iteration)[0]
            samples.append(vc1 * x1[inst.graph1.edge_var])
    msgs = np.concatenate(samples)

    grid = de_density.grid
    edges = (np.arange(grid.n_bins + 1) - grid.n_bins / 2.0) * grid.bin_width
    counts = np.histogram(np.clip(msgs, -LLR_CLIP + 1e-9, LLR_CLIP - 1e-9), bins=edges)[0]
    emp_cdf = np.concatenate(([0.0], np.cumsum(counts) / msgs.size))
    de_cdf = np.concatenate(
        ([de_density.mass_neg_inf], de_density.mass_neg_inf + np.cumsum(de_density.mass))
    )
    distance = float(np.abs(emp_cdf - de_cdf).max())
    return {
        "kolmogorov": distance,
        "edges_sampled": int(msgs.size),
        "iteration": iteration,
        "mode": mode,
        "cycles_warning": iteration >= 3,
    }
