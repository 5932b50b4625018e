"""Density evolution for the (l, r, L, w) spatially coupled joint system.

Positions run over [-L, L]; densities outside are pinned to the +inf delta
(perfect termination).  One update per position i is

    a_i' = fn(to 1, Gamma(b window at i)) * g(a window at i)

with the double-window operators

    t_i   = (1/w) sum_j ( (1/w) sum_k x_{i+j-k} )^{boxplus(r-1)}
    g     = t_i^{*(l-1)},   Gamma = t_i^{*l}

and symmetrically for b.  All positions update from the previous state
(Jacobi), matching the displayed recursion.

One engine runs the recursion over a fold of the chain: positions -L..L of
both users or, on the symmetric ray (A = 1, equal codes, symmetric start),
positions 0..L of user 1 read through p -> |p| with the user as its own
partner, since b = a and a_{-i} = a_i hold there (the user-exchange
reduction of uncoupled DE together with spatial mirror symmetry).  The
per-position updates are pure functions of their input windows, so the
engine memoizes them: positions whose windows did not change since the last
iteration (the decoded region behind the wave and the inert bulk ahead of
it) are skipped bit-exactly, and each user's check-window densities sit in
one memo that both users' updates read.  The GEXIT extrinsic profile takes
its window averages t_i from the same engine.  Runs and thresholds use the
halting rule and threshold search of `jointde`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelPoint, fn_operator
from .densities import (
    DensityGrid,
    LlrDensity,
    conv_vn,
    delta_inf,
    delta_zero,
    entropy,
    error_prob,
    mix,
    power_cn,
    power_vn,
)
from .ensembles import CoupledSpec
from .jointde import (
    BRACKET_ALPHA_MAX,
    STALL_ENTROPY_DELTA,
    STALL_PATIENCE,
    SUCCESS_ERROR_PROB,
    ThresholdResult,
    run_to_halt,
    threshold_search,
)

FREEZE_ERROR_PROB = 1e-12
COUPLED_MAX_ITERS = 30_000  # decoding waves need ~L / wave-speed iterations


@dataclass(frozen=True)
class CoupledState:
    """Position-indexed variable-to-check densities for both users."""

    a_vec: tuple
    b_vec: tuple
    L: int
    iteration: int = 0

    def __post_init__(self):
        if len(self.a_vec) != 2 * self.L + 1 or len(self.b_vec) != 2 * self.L + 1:
            raise ValueError("need one density per position in [-L, L]")


def _is_symmetric_state(st: CoupledState) -> bool:
    n = len(st.a_vec)
    return all(st.a_vec[i] is st.b_vec[i] for i in range(n)) and all(
        st.a_vec[i] is st.a_vec[n - 1 - i] for i in range(n // 2)
    )


class _Engine:
    """The coupled recursion over one fold of the chain, with per-user memos.

    `vecs` holds one tuple of densities per evolving user over positions
    lo..L: -L..L of both users, or 0..L of user 1 on the symmetric fold,
    where positions are read through p -> |p| and user 1 is its own partner.
    The symmetric fold serves a start whose users and mirror positions share
    their density objects, on the symmetric ray; without a channel point the
    engine only reads windows (no updates), so the start alone decides.
    """

    def __init__(self, spec: CoupledSpec, start: CoupledState, ch=None, freeze=False):
        grid = start.a_vec[0].grid
        self.symmetric = _is_symmetric_state(start) and (ch is None or ch.ratio == 1.0)
        self.spec = spec
        self.freeze = freeze
        self.dinf = delta_inf(grid)
        users = (1,) if self.symmetric else (1, 2)
        # fns[u]: the function-node operator toward user u
        self.fns = () if ch is None else tuple(fn_operator(grid, u, ch) for u in users)
        self.lo = 0 if self.symmetric else -spec.L
        self.positions = range(self.lo, spec.L + 1)
        self.vecs = [start.a_vec[spec.L :]] if self.symmetric else [start.a_vec, start.b_vec]
        self.partner = (0,) if self.symmetric else (1, 0)
        self.iteration = start.iteration
        self._weights = np.full(spec.w, 1.0 / spec.w)
        self._z_memo = [{} for _ in self.vecs]  # per user: check pos -> (window, z)
        self._pos_memo = [{} for _ in self.vecs]  # per user: var pos -> (windows, result)

    def _at(self, vec, p: int) -> LlrDensity:
        if self.symmetric:
            p = abs(p)
        return vec[p - self.lo] if self.lo <= p <= self.spec.L else self.dinf

    def _window(self, u: int, lo: int, hi: int) -> list:
        return [self._at(self.vecs[u], p) for p in range(lo, hi + 1)]

    def unfold(self, vecs) -> tuple:
        """(a, b) over positions -L..L from per-user lists over the fold; on
        the symmetric fold both are user 1's chain."""
        L = self.spec.L
        full = [tuple(self._at(vec, p) for p in range(-L, L + 1)) for vec in vecs]
        return full[0], full[-1]

    @staticmethod
    def _same(xs, ys) -> bool:
        # identity comparison; the memo keeps the inputs alive so object
        # identity is stable across iterations
        return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))

    def _z(self, u: int, c: int) -> LlrDensity:
        """Check-node output of user u's window ending at check position c."""
        xs = self._window(u, c - self.spec.w + 1, c)
        hit = self._z_memo[u].get(c)
        if hit is not None and self._same(hit[0], xs):
            return hit[1]
        z = power_cn(mix(xs, self._weights), self.spec.r - 1)
        self._z_memo[u][c] = (xs, z)
        return z

    def inner(self, u: int, i: int) -> LlrDensity:
        """The window average t_i of user u at position i."""
        return mix([self._z(u, i + j) for j in range(self.spec.w)], self._weights)

    def update_position(self, u: int, i: int) -> LlrDensity:
        """New variable-to-check density of user u at position i; bit-exact
        memo reuse when the (own, partner) windows are unchanged."""
        w, l = self.spec.w, self.spec.l
        v = self.partner[u]
        own = self._window(u, i - w + 1, i + w - 1)
        windows = own + (own if v == u else self._window(v, i - w + 1, i + w - 1))
        hit = self._pos_memo[u].get(i)
        if hit is not None and self._same(hit[0], windows):
            return hit[1]

        t_own = self.inner(u, i)
        g_own = power_vn(t_own, l - 1)
        t_par = t_own if v == u else self.inner(v, i)
        gamma_par = conv_vn(power_vn(t_par, l - 1), t_par)
        out = conv_vn(self.fns[u].apply(gamma_par), g_own)
        if self.freeze and error_prob(out) < FREEZE_ERROR_PROB:
            out = self.dinf
        # hand back the previous object when the update reproduced it
        # bit-exactly, so neighbours' window-identity checks keep hitting
        prev = self._at(self.vecs[u], i)
        if (
            out is not prev
            and out.mass_pos_inf == prev.mass_pos_inf
            and out.mass_neg_inf == prev.mass_neg_inf
            and np.array_equal(out.mass, prev.mass)
        ):
            out = prev
        self._pos_memo[u][i] = (windows, out)
        return out

    def iterate(self) -> "_Engine":
        """One Jacobi sweep in place; returns self, the state run_to_halt steps."""
        self.vecs = [
            tuple(self.update_position(u, i) for i in self.positions) for u in range(len(self.vecs))
        ]
        self.iteration += 1
        return self

    def measure(self) -> tuple[float, float]:
        """Mean entropy over the evolving positions, largest error probability."""
        ds = [d for vec in self.vecs for d in vec]
        return float(np.mean(_entropies(ds))), max(error_prob(d) for d in ds)

    def full_state(self) -> CoupledState:
        return CoupledState(*self.unfold(self.vecs), self.spec.L, self.iteration)


@dataclass(frozen=True)
class CoupledFixedPoint:
    channel: ChannelPoint
    state: CoupledState
    residual: float
    decoded: bool
    iterations: int
    halt: str

    def error_profile(self) -> np.ndarray:
        return np.array([error_prob(d) for d in self.state.a_vec])


def _entropies(vec) -> np.ndarray:
    return np.array([entropy(d) for d in vec])


def coupled_run(
    ch: ChannelPoint,
    spec: CoupledSpec,
    grid: DensityGrid,
    max_iters: int = COUPLED_MAX_ITERS,
    success_error: float = SUCCESS_ERROR_PROB,
    stall_delta: float = STALL_ENTROPY_DELTA,
    stall_patience: int = STALL_PATIENCE,
    freeze: bool = True,
    profile=None,
    start: CoupledState | None = None,
) -> CoupledFixedPoint:
    """Run coupled DE from the no-knowledge start (or `start`) until success
    or stall.

    `profile(iteration, entropies_a, entropies_b)` is invoked per iteration
    when given (wave visualization).  On the symmetric ray, from a start
    whose users and mirror positions share their density objects, the engine
    evolves half the chain of one user; it is exact, not an approximation.
    """
    if start is None:
        d0 = delta_zero(grid)
        start = CoupledState((d0,) * spec.n_positions, (d0,) * spec.n_positions, spec.L)
    engine = _Engine(spec, start, ch, freeze)

    observe = None
    if profile is not None:

        def observe(eng, _entropy):
            full = eng.full_state()
            profile(full.iteration, _entropies(full.a_vec), _entropies(full.b_vec))

    _, residual, halt = run_to_halt(
        engine, _Engine.iterate, _Engine.measure, max_iters, success_error, stall_delta,
        stall_patience, observe,
    )
    state = engine.full_state()
    return CoupledFixedPoint(ch, state, residual, halt == "success", state.iteration, halt)


def coupled_threshold(
    spec: CoupledSpec,
    ratio: float,
    tol: float = 5e-3,
    grid: DensityGrid | None = None,
    bracket: tuple[float, float] = (0.0, BRACKET_ALPHA_MAX),
    max_iters: int = COUPLED_MAX_ITERS,
    freeze: bool = True,
) -> ThresholdResult:
    """Bisect for the coupled BP threshold on the ray h2 = ratio * h1."""
    from .densities import default_grid

    if grid is None:
        grid = default_grid()
    return threshold_search(
        lambda ch: coupled_run(ch, spec, grid, max_iters=max_iters, freeze=freeze),
        ratio,
        tol,
        bracket,
    )


def extrinsic_profile(state: CoupledState, spec: CoupledSpec):
    """Per-position variable-to-function densities (Gamma = t_i^{*l} of each
    window) of both users, for the position-averaged GEXIT value."""
    eng = _Engine(spec, state)
    gammas = [
        tuple(power_vn(eng.inner(u, i), spec.l) for i in eng.positions) for u in range(len(eng.vecs))
    ]
    return list(zip(*eng.unfold(gammas)))


def profile_csv_rows(profiles):
    """Flatten recorded (iteration, ent_a, ent_b) triples into CSV rows
    (iteration, position, entropy_a, entropy_b)."""
    rows = []
    for it, ea, eb in profiles:
        L = (len(ea) - 1) // 2
        for idx, pos in enumerate(range(-L, L + 1)):
            rows.append((it, pos, float(ea[idx]), float(eb[idx])))
    return rows
