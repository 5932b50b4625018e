"""Finite-length Monte-Carlo simulation of the joint BP decoder.

Builds configuration-model LDPC graphs (regular or spatially coupled), pairs
two of them bit-by-bit through function nodes, simulates the Gaussian MAC and
runs the joint sum-product decoder with the same parallel schedule as density
evolution, so its iteration-k messages are comparable with DE round by round.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .channel import ChannelPoint, fn_llr
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

    @property
    def n_edges(self) -> int:
        return self.edge_var.size


def _count_duplicates(edge_var, edge_check, n_vars) -> int:
    """Parallel edges: equal neighbours among the sorted (variable, check)
    keys, the count `pair.size - np.unique(pair).size` without its hashing."""
    pair = np.sort(edge_var.astype(np.int64) * n_vars + edge_check)
    return int(np.count_nonzero(pair[1:] == pair[:-1]))


def build_regular(n: int, l: int, r: int, seed: int) -> LdpcGraph:
    """Configuration model: n variables of degree l, n*l/r checks of degree r.

    The check-socket permutation is redrawn up to 100 times if parallel edges
    appear, and the last draw's survivors are kept.  They are not rare: at
    (n = 6000, seed 0), (12000, 1) and (20000, 1) all 100 draws keep some (5,
    5 and 4).  A survivor cancels mod 2 in the encoder's parity-check matrix,
    while BP sees it as two edges.  The retry rule stays because every golden
    graph depends on its draw sequence.
    """
    if (n * l) % r != 0:
        raise ValueError("n*l must be divisible by r")
    m = n * l // r
    edge_var = np.repeat(np.arange(n, dtype=np.int64), l)
    check_sockets = np.repeat(np.arange(m, dtype=np.int64), r)
    rng = _rng_for(seed)
    edge_check = None
    for _ in range(100):
        edge_check = rng.permutation(check_sockets)
        if _count_duplicates(edge_var, edge_check, n) == 0:
            break
    return LdpcGraph(n, m, edge_var, edge_check)


def build_coupled(spec: CoupledSpec, m_per_position: int, seed: int) -> LdpcGraph:
    """Coupled Tanner graph: M = `m_per_position` variables per position in
    [-L, L], (l/r)M checks per position in [-L, L+w-1] (requires r | l*M).

    Each position's l*M variable stubs are split exactly evenly over the w
    check positions above it (requires w | l*M); within a check position the
    incoming stubs land on a uniform subset of the r*(l/r)M sockets, so bulk
    checks have degree exactly r and boundary checks are partially filled.
    """
    l, r, L, w, m_per = spec.l, spec.r, spec.L, spec.w, m_per_position
    if m_per <= 0:
        raise ValueError("M must be positive")
    if (l * m_per) % w != 0:
        raise ValueError("l*M must be divisible by w")
    if (l * m_per) % r != 0:
        raise ValueError("l*M must be divisible by r")
    rng = _rng_for(seed)

    n_pos = 2 * L + 1
    c_pos_count = 2 * L + w
    checks_per_pos = l * m_per // r
    n_vars = n_pos * m_per
    n_checks = c_pos_count * checks_per_pos

    var_pos = np.repeat(np.arange(-L, L + 1), m_per)

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

    return LdpcGraph(n_vars, n_checks, edge_var, edge_check, var_pos)


@dataclass
class JointInstance:
    """Two Tanner graphs whose variables are matched through function nodes.

    The matching permutes code 2's variables; for coupled instances it is a
    uniform permutation within each position, keeping positions aligned.
    """

    graph1: LdpcGraph
    graph2: LdpcGraph
    matching: np.ndarray  # function node i joins var i of code 1 and matching[i] of code 2

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
    return JointInstance(graph1, graph2, matching)


# ---------------------------------------------------------------------------
# GF(2) systematic encoding (random-codeword mode)
# ---------------------------------------------------------------------------


_ONE = np.uint64(1)
_BYTE = np.uint64(255)
_XOR_CHUNK = 512  # rows per table lookup, keeping the temporaries small


def _word_pivots(val: np.ndarray) -> tuple[list[int], list[int], np.ndarray]:
    """Gauss-Jordan on one 64-column word of the rows that hold no pivot yet,
    reducing `val` (their words) in place.

    Returns the positions of the rows chosen as pivots, the pivot bits, and
    per row the mask of the pivot rows (by order found) it has absorbed.
    """
    mask = np.zeros(val.size, dtype=np.uint64)
    avail = np.ones(val.size, dtype=np.uint64)
    found, bits = [], []
    present = int(np.bitwise_or.reduce(val))  # XORs of these rows set no other bit
    for b in (b for b in range(64) if present >> b & 1):
        hit = (val >> np.uint64(b)) & _ONE
        p = int(np.argmax(hit & avail))
        if not hit[p] & avail[p]:
            continue  # a free column
        hit[p] = 0
        val ^= hit * val[p]
        mask ^= hit * (mask[p] ^ np.uint64(1 << len(found)))
        avail[p] = 0
        found.append(p)
        bits.append(b)
    return found, bits, mask


def _xor_tables(vecs: np.ndarray) -> np.ndarray:
    """Four-Russians tables: entry [g, i] is the XOR of vecs[8g + t] over the
    set bits t of i, for each group g of 8 (the last one padded with zeros)."""
    groups = -(-len(vecs) // 8)
    padded = np.zeros((groups * 8,) + vecs.shape[1:], dtype=np.uint64)
    padded[: len(vecs)] = vecs
    padded = padded.reshape((groups, 8) + vecs.shape[1:])
    tables = np.zeros((groups, 256) + vecs.shape[1:], dtype=np.uint64)
    for t in range(8):
        np.bitwise_xor(tables[:, : 1 << t], padded[:, t : t + 1], out=tables[:, 1 << t : 2 << t])
    return tables


def _xor_lookup(tables: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per key, the XOR of the vectors the tables were built from, over the
    set bits of the key."""
    out = tables[0][keys & _BYTE]
    for g in range(1, len(tables)):
        out ^= tables[g][(keys >> np.uint64(8 * g)) & _BYTE]
    return out


class Gf2Encoder:
    """Systematic encoder from the parity-check matrix: Gauss-Jordan over
    GF(2) on bit-packed rows, free columns carry the information bits.

    The elimination runs one 64-column word at a time with the method of four
    Russians (Albrecht, Bard & Hart, ACM TOMS 2010).  The word's pivots are
    found on the word column alone, which gives each row a 64-bit mask of the
    word's pivot rows it absorbs; the full rows then take all of the word's
    row operations at once, through 256-entry XOR tables of 8 pivot rows each.
    The reduced row-echelon form is unique, so the rows and pivots equal those
    of column-at-a-time elimination.
    """

    def __init__(self, graph: LdpcGraph):
        n, m = graph.n_vars, graph.n_checks
        words = (n + 63) // 64
        rows = np.zeros((m, words), dtype=np.uint64)
        np.bitwise_xor.at(
            rows,
            (graph.edge_check, graph.edge_var // 64),
            np.uint64(1) << (graph.edge_var % 64).astype(np.uint64),
        )  # parallel edges cancel mod 2

        pivots, pivot_rows = [], []
        placed = np.zeros(m, dtype=bool)  # row holds an earlier word's pivot
        for w in range(words):
            touch = np.flatnonzero(rows[:, w])
            old = placed[touch]
            new = touch[~old]
            if new.size == 0:
                continue  # all 64 columns are free
            found, bits, new_mask = _word_pivots(rows[new, w])
            piv = new[found]
            # reduced pivot j, as a mask of the word's pivot rows, is its own
            # row plus those it absorbed; the reduced pivots are zero at each
            # other's bits, so a placed row absorbs pivot j where its word has
            # pivot j's bit
            full = np.zeros(64, dtype=np.uint64)
            full[bits] = new_mask[found] ^ (_ONE << np.arange(len(found), dtype=np.uint64))
            mask = np.empty(touch.size, dtype=np.uint64)
            mask[~old] = new_mask
            mask[old] = _xor_lookup(_xor_tables(full), rows[touch[old], w])
            # rows without a pivot are zero left of this word, so the tables
            # of its pivot rows (as they stand before the word) start here
            tables = _xor_tables(rows[piv, w:])
            nz = np.flatnonzero(mask)
            for c in range(0, nz.size, _XOR_CHUNK):
                part = nz[c : c + _XOR_CHUNK]
                rows[touch[part], w:] ^= _xor_lookup(tables, mask[part])
            pivots.extend(64 * w + b for b in bits)
            pivot_rows.extend(piv)
            placed[piv] = True
            if len(pivots) == m:
                break
        self.n = n
        self.rank = len(pivots)
        self.pivot_cols = np.array(pivots, dtype=np.int64)
        free = np.ones(n, dtype=bool)
        free[self.pivot_cols] = False
        self.free_cols = np.nonzero(free)[0]
        # reduced rows touch only their pivot plus free columns, so each
        # pivot bit is the parity of its row's overlap with the free bits
        self.rows = rows[pivot_rows]

    @property
    def k(self) -> int:
        return self.n - self.rank

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Codeword in {0,1}: free positions carry info bits, and the pivot
        bits are solved on the packed words, `_XOR_CHUNK` reduced rows at a
        time to bound the temporary (pivot bits are still 0 when `x` is
        packed)."""
        if info_bits.size != self.k:
            raise ValueError(f"need {self.k} information bits")
        x = np.zeros(64 * self.rows.shape[1], dtype=np.uint8)
        x[self.free_cols] = info_bits & 1
        packed = np.packbits(x, bitorder="little").view("<u8")
        parity = np.empty(self.rank, dtype=np.uint8)
        for c in range(0, self.rank, _XOR_CHUNK):
            block = self.rows[c : c + _XOR_CHUNK]  # a view: `& packed` is the one temporary
            words = np.bitwise_xor.reduce(block & packed, axis=1)
            parity[c : c + _XOR_CHUNK] = np.bitwise_count(words) & 1
        x[self.pivot_cols] = parity
        return x[: self.n]


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
        magnitudes and sign parities per check.  The messages are within
        +-LLR_CLIP: var_update clips them, and the first round's are zeros."""
        g = self.graph
        sign = msg_vc < 0
        mag = np.abs(msg_vc)
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
        """Returns (variable-to-check messages, variable-to-function messages,
        per-variable sums of the check messages).  The v->f message is the
        clipped sum: the channel term is extrinsic to the function node."""
        g = self.graph
        sums = np.bincount(g.edge_var, weights=msg_cv, minlength=g.n_vars)
        vc = channel_llr[g.edge_var] + sums[g.edge_var] - msg_cv
        return np.clip(vc, -LLR_CLIP, LLR_CLIP), np.clip(sums, -LLR_CLIP, LLR_CLIP), sums


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


def _bp_rounds(inst: JointInstance, ch: ChannelPoint, y: np.ndarray):
    """Joint BP with the DE schedule: function nodes fire from the previous
    round's v->f messages, then checks, then variables, for both users.

    Function node i joins code-1 variable i and code-2 variable matching[i];
    y is indexed by function node.  Yields each round's (v->c 1, v->c 2,
    f->v 1, f->v 2, user-1 hard decisions, user-2 hard decisions) without
    end; the caller decides when to stop.
    """
    side1 = _CodeSide(inst.graph1)
    side2 = _CodeSide(inst.graph2)
    n = inst.graph1.n_vars
    perm = inst.matching

    vf1 = np.zeros(n)  # indexed by code-1 variable == fn index
    vf2 = np.zeros(n)  # indexed by code-2 variable
    vc1 = np.zeros(inst.graph1.n_edges)
    vc2 = np.zeros(inst.graph2.n_edges)

    while True:
        ch1 = _fn_outputs(y, vf2[perm], ch, 1)
        out2 = _fn_outputs(y, vf1, ch, 2)  # fn-indexed, pre-round vf1
        cv1 = side1.check_update(vc1)
        vc1, vf1, sums1 = side1.var_update(cv1, ch1)
        ch2_by_var = np.empty(n)
        ch2_by_var[perm] = out2
        cv2 = side2.check_update(vc2)
        vc2, vf2, sums2 = side2.var_update(cv2, ch2_by_var)

        hard1 = np.where(ch1 + sums1 >= 0, 1.0, -1.0)
        hard2 = np.where(ch2_by_var + sums2 >= 0, 1.0, -1.0)
        yield vc1, vc2, ch1, ch2_by_var, hard1, hard2


def _decode_frame(inst: JointInstance, ch: ChannelPoint, x1, x2, y, max_iters: int) -> tuple:
    """Up to `max_iters` rounds of joint BP, stopping early once both
    syndromes are clean.  Returns (bit errors of user 1, of user 2, rounds)."""
    hard1, hard2 = -x1, -x2
    rounds = 0
    for rounds, (*_, hard1, hard2) in enumerate(islice(_bp_rounds(inst, ch, y), max_iters), 1):
        if _syndrome_ok(inst.graph1, hard1) and _syndrome_ok(inst.graph2, hard2):
            break
    return int(np.count_nonzero(hard1 != x1)), int(np.count_nonzero(hard2 != x2)), rounds


def _transmit(inst: JointInstance, ch: ChannelPoint, mode: str, rng) -> tuple:
    """(x1, x2, y): one +-1 word per code (bit 0 -> +1) and the channel output
    per function node.  mode "all_plus_one" sends all +1, "random" uniform
    codewords."""
    n = inst.graph1.n_vars
    if mode == "all_plus_one":
        x1, x2 = np.ones(n), np.ones(n)
    else:
        enc1, enc2 = _encoder_for(inst.graph1), _encoder_for(inst.graph2)
        x1 = 1.0 - 2.0 * enc1.encode(rng.integers(0, 2, size=enc1.k).astype(np.uint8))
        x2 = 1.0 - 2.0 * enc2.encode(rng.integers(0, 2, size=enc2.k).astype(np.uint8))
    return x1, x2, ch.h1 * x1 + ch.h2 * x2[inst.matching] + rng.standard_normal(n)


def _run_frame(
    inst: JointInstance, ch: ChannelPoint, mode: str, max_iters: int, seed: int, frame: int
) -> FrameResult:
    """One frame of simulate_joint; its randomness is keyed by (seed, frame)."""
    x1, x2, y = _transmit(inst, ch, mode, _rng_for(seed, stream=1000 + frame))
    e1, e2, iters = _decode_frame(inst, ch, x1, x2, y, max_iters)
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
    return SimulationResult(list(pmap(job, range(num_frames))), inst.graph1.n_vars, mode)
