"""Finite-length Monte-Carlo oracle for the joint BP decoder.

Builds configuration-model LDPC graphs (regular or spatially coupled), pairs
two of them bit-by-bit through function nodes, simulates the Gaussian MAC and
runs the joint sum-product decoder with the same parallel schedule as density
evolution, so iteration-k message histograms can be compared against DE
densities directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import ChannelPoint, fn_llr
from .densities import LlrDensity
from .ensembles import CoupledSpec

LLR_CLIP = 30.0  # matches the DE grid half-range


def _rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream): parallel frame order
    can never change the results."""
    return np.random.Generator(np.random.Philox(key=np.uint64([seed, stream])))


@dataclass
class LdpcGraph:
    """Bipartite Tanner graph as parallel edge arrays."""

    n_vars: int
    n_checks: int
    edge_var: np.ndarray  # variable index per edge
    edge_check: np.ndarray  # check index per edge
    var_pos: np.ndarray | None = None  # position labels for coupled graphs
    check_pos: np.ndarray | None = None
    duplicate_edges: int = 0  # parallel edges accepted after retries

    @property
    def n_edges(self) -> int:
        return self.edge_var.size

    def var_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_var, minlength=self.n_vars)

    def check_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_check, minlength=self.n_checks)

    def design_rate_realized(self) -> float:
        """1 - (connected checks) / variables; degree-0 checks are vacuous."""
        active = int(np.count_nonzero(self.check_degrees()))
        return 1.0 - active / self.n_vars


def _count_duplicates(edge_var, edge_check, n_vars) -> int:
    pair = edge_var.astype(np.int64) * n_vars + edge_check
    return int(pair.size - np.unique(pair).size)


def build_regular(n: int, l: int, r: int, seed: int) -> LdpcGraph:
    """Configuration model: n variables of degree l, n*l/r checks of degree r.

    The check-socket permutation is redrawn up to 100 times if parallel edges
    appear; any survivors are kept and reported (they are vanishingly rare for
    small graphs and harmless for BP at the sizes used here).
    """
    if (n * l) % r != 0:
        raise ValueError("n*l must be divisible by r")
    m = n * l // r
    edge_var = np.repeat(np.arange(n, dtype=np.int64), l)
    check_sockets = np.repeat(np.arange(m, dtype=np.int64), r)
    rng = _rng_for(seed)
    edge_check = None
    dups = 0
    for _ in range(100):
        edge_check = rng.permutation(check_sockets)
        dups = _count_duplicates(edge_var, edge_check, n)
        if dups == 0:
            break
    return LdpcGraph(n, m, edge_var, edge_check, duplicate_edges=dups)


def build_coupled(spec: CoupledSpec, seed: int) -> LdpcGraph:
    """Coupled Tanner graph: M variables per position in [-L, L], (l/r)M
    checks per position in [-L, L+w-1].

    Each position's l*M variable stubs are split exactly evenly over the w
    check positions above it (requires w | l*M); within a check position the
    incoming stubs land on a uniform subset of the r*(l/r)M sockets, so bulk
    checks have degree exactly r and boundary checks are partially filled.
    """
    l, r, L, w, m_per = spec.l, spec.r, spec.L, spec.w, spec.M
    if m_per <= 0:
        raise ValueError("spec.M must be set for instantiation")
    if (l * m_per) % w != 0:
        raise ValueError("l*M must be divisible by w")
    rng = _rng_for(seed)

    n_pos = 2 * L + 1
    c_pos_count = 2 * L + w
    checks_per_pos = l * m_per // r
    n_vars = n_pos * m_per
    n_checks = c_pos_count * checks_per_pos

    var_pos = np.repeat(np.arange(-L, L + 1), m_per)
    check_pos = np.repeat(np.arange(-L, L + w), checks_per_pos)

    # stub -> check-position assignment, exact per-position counts
    edge_var = np.repeat(np.arange(n_vars, dtype=np.int64), l)
    stub_targets = np.empty(n_vars * l, dtype=np.int64)
    per_target = l * m_per // w
    for pi, p in enumerate(range(-L, L + 1)):
        targets = np.repeat(np.arange(p, p + w), per_target)
        rng.shuffle(targets)
        stub_targets[pi * m_per * l : (pi + 1) * m_per * l] = targets

    # check sockets per position: uniform subset of the available sockets
    edge_check = np.empty(n_vars * l, dtype=np.int64)
    for ci, c in enumerate(range(-L, L + w)):
        stub_idx = np.nonzero(stub_targets == c)[0]
        sockets = np.repeat(
            ci * checks_per_pos + np.arange(checks_per_pos, dtype=np.int64), r
        )
        chosen = rng.permutation(sockets)[: stub_idx.size]
        edge_check[stub_idx] = chosen

    dups = _count_duplicates(edge_var, edge_check, n_vars)
    return LdpcGraph(
        n_vars, n_checks, edge_var, edge_check, var_pos, check_pos, duplicate_edges=dups
    )


@dataclass
class JointInstance:
    """Two Tanner graphs whose variables are matched through function nodes.

    The matching permutes code 2's variables; for coupled instances it is a
    uniform permutation within each position, keeping positions aligned.
    """

    graph1: LdpcGraph
    graph2: LdpcGraph
    matching: np.ndarray  # function node i joins var i of code 1 and matching[i] of code 2
    seed: int

    def __post_init__(self):
        if self.graph1.n_vars != self.graph2.n_vars:
            raise ValueError("codes must have equal length")
        if np.bincount(self.matching, minlength=self.graph1.n_vars).max() != 1:
            raise ValueError("matching must be a bijection")


def build_joint(graph1: LdpcGraph, graph2: LdpcGraph, seed: int) -> JointInstance:
    rng = _rng_for(seed, stream=1)
    n = graph1.n_vars
    if graph1.var_pos is not None:
        matching = np.empty(n, dtype=np.int64)
        for p in np.unique(graph1.var_pos):
            own = np.nonzero(graph1.var_pos == p)[0]
            other = np.nonzero(graph2.var_pos == p)[0]
            matching[own] = rng.permutation(other)
    else:
        matching = rng.permutation(n)
    return JointInstance(graph1, graph2, matching, seed)


# ---------------------------------------------------------------------------
# GF(2) systematic encoding (random-codeword mode)
# ---------------------------------------------------------------------------


class Gf2Encoder:
    """Systematic encoder from the parity-check matrix: Gauss-Jordan over
    GF(2) on bit-packed rows, free columns carry the information bits."""

    def __init__(self, graph: LdpcGraph):
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
        self.n = n
        self.rank = rank
        self.pivot_cols = np.array(pivots, dtype=np.int64)
        free = np.ones(n, dtype=bool)
        free[self.pivot_cols] = False
        self.free_cols = np.nonzero(free)[0]
        # reduced rows touch only their pivot plus free columns; keep them as
        # python ints for popcount-parity encoding
        self._row_ints = [
            int.from_bytes(rows[i].tobytes(), "little") for i in range(rank)
        ]

    @property
    def k(self) -> int:
        return self.n - self.rank

    def _pack(self, x: np.ndarray) -> int:
        return int.from_bytes(np.packbits(x, bitorder="little").tobytes(), "little")

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Codeword in {0,1}: free positions carry info bits, pivots solve the
        reduced rows (parity over the row's free-bit overlap)."""
        if info_bits.size != self.k:
            raise ValueError(f"need {self.k} information bits")
        x = np.zeros(self.n, dtype=np.uint8)
        x[self.free_cols] = info_bits & 1
        packed = self._pack(x)
        for i in range(self.rank):
            x[self.pivot_cols[i]] = (self._row_ints[i] & packed).bit_count() & 1
        return x

    def check(self, x: np.ndarray) -> bool:
        packed = self._pack(np.asarray(x, dtype=np.uint8))
        return all(((r & packed).bit_count() & 1) == 0 for r in self._row_ints)


def _encoder_for(graph: LdpcGraph) -> Gf2Encoder:
    """Gauss-Jordan elimination is the expensive part; keep it on the graph."""
    enc = getattr(graph, "_encoder", None)
    if enc is None:
        enc = Gf2Encoder(graph)
        graph._encoder = enc
    return enc


# ---------------------------------------------------------------------------
# joint BP decoder
# ---------------------------------------------------------------------------


class _CodeSide:
    """Edge-array sum-product machinery for one Tanner graph."""

    def __init__(self, graph: LdpcGraph):
        self.graph = graph

    def check_update(self, msg_vc: np.ndarray) -> np.ndarray:
        """Box-plus of all-but-one incoming message per edge, via log-tanh
        magnitudes and sign parities per check."""
        g = self.graph
        m = np.clip(msg_vc, -LLR_CLIP, LLR_CLIP)
        sign = m < 0
        mag = np.abs(m)
        # log |tanh(m/2)|, guarded at 0
        lt = np.log(np.tanh(np.maximum(mag, 1e-300) / 2.0))
        lt_sum = np.bincount(g.edge_check, weights=lt, minlength=g.n_checks)
        parity = np.bincount(g.edge_check, weights=sign, minlength=g.n_checks).astype(np.int64) & 1
        lt_ex = lt_sum[g.edge_check] - lt
        sign_ex = parity[g.edge_check] ^ sign
        t = np.exp(np.minimum(lt_ex, -1e-300))
        mag_out = np.log1p(t) - np.log1p(-np.minimum(t, 1.0 - 1e-16))
        out = np.where(sign_ex, -mag_out, mag_out)
        return np.clip(out, -LLR_CLIP, LLR_CLIP)

    def var_update(self, msg_cv: np.ndarray, channel_llr: np.ndarray):
        """Returns (variable-to-check messages, variable-to-function totals)."""
        g = self.graph
        sums = np.bincount(g.edge_var, weights=msg_cv, minlength=g.n_vars)
        vf = sums + 0.0  # all check edges, channel term excluded (extrinsic to fn)
        vc = channel_llr[g.edge_var] + sums[g.edge_var] - msg_cv
        return np.clip(vc, -LLR_CLIP, LLR_CLIP), np.clip(vf, -LLR_CLIP, LLR_CLIP)


def _fn_outputs(y, m_partner, ch: ChannelPoint, to_user: int):
    """Function-node output LLR for `to_user` given partner v->f messages."""
    h_t, h_p = (ch.h1, ch.h2) if to_user == 1 else (ch.h2, ch.h1)
    return np.clip(fn_llr(y, m_partner, h_t, h_p), -LLR_CLIP, LLR_CLIP)


def _syndrome_ok(graph: LdpcGraph, hard_pm1: np.ndarray) -> bool:
    bits = (hard_pm1 < 0).astype(np.int64)
    parity = np.bincount(graph.edge_check, weights=bits[graph.edge_var], minlength=graph.n_checks)
    return not np.any(parity.astype(np.int64) & 1)


@dataclass
class FrameResult:
    frame: int
    bit_errors: tuple[int, int]
    iterations: int
    decoded: bool


@dataclass
class SimulationResult:
    frames: list
    n_bits: int
    seed: int
    mode: str

    def ber(self, user: int) -> float:
        errs = sum(f.bit_errors[user - 1] for f in self.frames)
        return errs / (self.n_bits * len(self.frames))

    def ber_confidence(self, user: int, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation binomial interval on the BER."""
        n = self.n_bits * len(self.frames)
        p = self.ber(user)
        half = z * np.sqrt(max(p * (1 - p), 1e-300) / n)
        return max(p - half, 0.0), min(p + half, 1.0)


def _decode_frame(
    inst: JointInstance,
    ch: ChannelPoint,
    x1: np.ndarray,
    x2: np.ndarray,
    y: np.ndarray,
    max_iters: int,
    collect_iteration: int | None = None,
):
    """Joint BP with the DE schedule: function nodes fire from the previous
    round's v->f messages, then checks, then variables, for both users.

    Function node i joins code-1 variable i and code-2 variable matching[i];
    y is indexed by function node.  Early exit on clean syndromes, except in
    a collection run, which does exactly `collect_iteration` rounds and keeps
    that round's (v->c 1, v->c 2, f->v 1, f->v 2) messages.  Returns (bit
    errors of user 1, of user 2, rounds, collected messages or None, user-1
    hard decisions).
    """
    side1 = _CodeSide(inst.graph1)
    side2 = _CodeSide(inst.graph2)
    n = inst.graph1.n_vars
    perm = inst.matching

    vf1 = np.zeros(n)  # indexed by code-1 variable == fn index
    vf2 = np.zeros(n)  # indexed by code-2 variable
    vc1 = np.zeros(inst.graph1.n_edges)
    vc2 = np.zeros(inst.graph2.n_edges)
    hard1 = -x1
    hard2 = -x2
    collected = None

    it = 0
    for it in range(1, max_iters + 1):
        ch1 = _fn_outputs(y, vf2[perm], ch, 1)
        out2 = _fn_outputs(y, vf1, ch, 2)  # fn-indexed, pre-round vf1
        cv1 = side1.check_update(vc1)
        vc1, vf1 = side1.var_update(cv1, ch1)
        ch2_by_var = np.empty(n)
        ch2_by_var[perm] = out2
        cv2 = side2.check_update(vc2)
        vc2, vf2 = side2.var_update(cv2, ch2_by_var)

        tot1 = ch1 + np.bincount(inst.graph1.edge_var, weights=cv1, minlength=n)
        tot2 = ch2_by_var + np.bincount(inst.graph2.edge_var, weights=cv2, minlength=n)
        hard1 = np.where(tot1 >= 0, 1.0, -1.0)
        hard2 = np.where(tot2 >= 0, 1.0, -1.0)
        if it == collect_iteration:
            collected = (vc1, vc2, ch1, ch2_by_var)
            break
        if collect_iteration is None and _syndrome_ok(inst.graph1, hard1) and _syndrome_ok(
            inst.graph2, hard2
        ):
            break

    err1 = int(np.count_nonzero(hard1 != x1))
    err2 = int(np.count_nonzero(hard2 != x2))
    return err1, err2, it, collected, hard1


def _transmit(inst: JointInstance, ch: ChannelPoint, mode: str, rng) -> tuple:
    """(x1, x2, y): one +-1 word per code (bit 0 -> +1) and the channel output
    per function node.  mode "all_plus_one" sends all +1, "signs" i.i.d.
    uniform signs that are not codewords, "random" uniform codewords."""
    n = inst.graph1.n_vars
    if mode == "all_plus_one":
        x1, x2 = np.ones(n), np.ones(n)
    elif mode == "signs":
        x1 = 1.0 - 2.0 * rng.integers(0, 2, size=n)
        x2 = 1.0 - 2.0 * rng.integers(0, 2, size=n)
    elif mode == "random":
        enc1, enc2 = _encoder_for(inst.graph1), _encoder_for(inst.graph2)
        x1 = 1.0 - 2.0 * enc1.encode(rng.integers(0, 2, size=enc1.k).astype(np.uint8))
        x2 = 1.0 - 2.0 * enc2.encode(rng.integers(0, 2, size=enc2.k).astype(np.uint8))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return x1, x2, ch.h1 * x1 + ch.h2 * x2[inst.matching] + rng.standard_normal(n)


def _run_frame(
    inst: JointInstance, ch: ChannelPoint, mode: str, max_iters: int, seed: int, frame: int
) -> FrameResult:
    """One frame of simulate_joint; its randomness is keyed by (seed, frame)."""
    x1, x2, y = _transmit(inst, ch, mode, _rng_for(seed, stream=1000 + frame))
    e1, e2, iters, _, _ = _decode_frame(inst, ch, x1, x2, y, max_iters)
    return FrameResult(frame, (e1, e2), iters, e1 == 0 and e2 == 0)


def simulate_joint(
    inst: JointInstance,
    ch: ChannelPoint,
    mode: str = "all_plus_one",
    max_iters: int = 200,
    num_frames: int = 100,
    seed: int = 0,
    pmap=map,
) -> SimulationResult:
    """Monte-Carlo BER of the joint decoder.

    mode "all_plus_one" transmits the all-(+1) codeword pair (fast; the
    channel is user-asymmetric so this is the type caveat noted in the
    docs); mode "random" draws uniform codewords through a systematic
    GF(2) encoding of each graph.  pmap(job, frames) runs the frames; job
    pickles, so a worker pool's map serves.
    """
    if mode == "random":
        # built once here; the graphs carry them to pool workers
        _encoder_for(inst.graph1)
        _encoder_for(inst.graph2)
    elif mode != "all_plus_one":
        raise ValueError(f"unknown mode {mode!r}")
    job = partial(_run_frame, inst, ch, mode, max_iters, seed)
    return SimulationResult(list(pmap(job, range(num_frames))), inst.graph1.n_vars, seed, mode)


def positional_errors(
    inst: JointInstance, ch: ChannelPoint, max_iters: int, seed: int = 0
) -> np.ndarray:
    """Per-position user-1 bit-error counts after one random-codeword frame on
    a coupled instance: the decoding-wave footprint (boundary positions clear
    before the chain center)."""
    if inst.graph1.var_pos is None:
        raise ValueError("positional error traces need a coupled instance")
    x1, x2, y = _transmit(inst, ch, "random", _rng_for(seed, stream=3000))
    hard1 = _decode_frame(inst, ch, x1, x2, y, max_iters)[4]
    wrong = hard1 != x1
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
        x1, x2, y = _transmit(inst, ch, mode, _rng_for(seed, stream=2000 + frame))
        if iteration == 0:
            out = _fn_outputs(y, np.zeros(y.size), ch, 1)
            samples.append(out * x1)
        else:
            collected = _decode_frame(inst, ch, x1, x2, y, iteration, collect_iteration=iteration)[3]
            samples.append(collected[0] * x1[inst.graph1.edge_var])
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
