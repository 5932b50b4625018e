"""Density evolution for the (l, r, L, w) spatially coupled joint system.

Positions run over [-L, L]; densities outside are pinned to the +inf delta
(perfect termination).  One update per position i is

    a_i' = fn(to 1, Gamma(b window at i)) * g(a window at i)

with the double-window operators

    g     = ( (1/w) sum_j ( (1/w) sum_k x_{i+j-k} )^{boxplus(r-1)} )^{*(l-1)}
    Gamma = same inner part, outer power l,

and symmetrically for b.  All positions update from the previous state
(Jacobi), matching the displayed recursion.

The per-position updates are pure functions of their input windows, so the
engine memoizes them: positions whose windows did not change since the last
iteration (the decoded region behind the wave and the inert bulk ahead of it)
are skipped bit-exactly.  On the symmetric ray (A = 1, equal codes, symmetric
start) the user-exchange reduction of uncoupled DE applies here too, together
with spatial mirror symmetry, so the engine evolves only positions 0..L of one
user.  Runs and thresholds use the halting rule and threshold search of
`jointde`.
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

    def at(self, vec, i: int) -> LlrDensity:
        return vec[i + self.L]


def coupled_initial_state(grid: DensityGrid, spec: CoupledSpec) -> CoupledState:
    d0 = delta_zero(grid)
    n = spec.n_positions
    return CoupledState((d0,) * n, (d0,) * n, spec.L)


def window_g(xs, l: int, r: int, w: int) -> LlrDensity:
    """Double-window check-then-variable operator on 2w-1 densities around a
    position (ascending positions), with outer variable power l-1."""
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


class _Engine:
    """Memoizing per-position updater over a fetch-by-position view."""

    def __init__(self, grid: DensityGrid, spec: CoupledSpec, freeze: bool):
        self.grid = grid
        self.spec = spec
        self.freeze = freeze
        self.dinf = delta_inf(grid)
        self._z_memo = {}  # check pos -> (window, z)
        self._z_memo_partner = {}
        self._pos_memo = {}  # var pos -> (own window + partner window, result)

    def _fetch_window(self, fetch, lo: int, hi: int):
        return [fetch(p) for p in range(lo, hi + 1)]

    @staticmethod
    def _same(xs, ys) -> bool:
        # identity comparison; the memo keeps the inputs alive so object
        # identity is stable across iterations
        return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))

    def _z_cached(self, memo: dict, fetch, c: int) -> LlrDensity:
        xs = self._fetch_window(fetch, c - self.spec.w + 1, c)
        hit = memo.get(c)
        if hit is not None and self._same(hit[0], xs):
            return hit[1]
        m = mix(xs, np.full(self.spec.w, 1.0 / self.spec.w))
        z = power_cn(m, self.spec.r - 1)
        memo[c] = (xs, z)
        return z

    def update_position(self, i: int, fetch_own, fetch_partner, fn_op) -> LlrDensity:
        """New variable-to-check density at position i; bit-exact memo reuse
        when the (own, partner) windows are unchanged."""
        w, l = self.spec.w, self.spec.l
        own = self._fetch_window(fetch_own, i - w + 1, i + w - 1)
        partner = self._fetch_window(fetch_partner, i - w + 1, i + w - 1)
        hit = self._pos_memo.get(i)
        if hit is not None and self._same(hit[0], own + partner):
            return hit[1]

        weights = np.full(w, 1.0 / w)
        t_own = mix([self._z_cached(self._z_memo, fetch_own, i + j) for j in range(w)], weights)
        g_own = power_vn(t_own, l - 1)
        if fetch_partner is fetch_own:
            t_par = t_own
        else:
            t_par = mix(
                [self._z_cached(self._z_memo_partner, fetch_partner, i + j) for j in range(w)],
                weights,
            )
        gamma_par = conv_vn(power_vn(t_par, l - 1), t_par)
        out = conv_vn(fn_op.apply(gamma_par), g_own)
        if self.freeze and error_prob(out) < FREEZE_ERROR_PROB:
            out = self.dinf
        # hand back the previous object when the update reproduced it
        # bit-exactly, so neighbours' window-identity checks keep hitting
        prev = fetch_own(i)
        if (
            out is not prev
            and out.mass_pos_inf == prev.mass_pos_inf
            and out.mass_neg_inf == prev.mass_neg_inf
            and np.array_equal(out.mass, prev.mass)
        ):
            out = prev
        self._pos_memo[i] = (own + partner, out)
        return out


def coupled_de_iterate(
    state: CoupledState, ch: ChannelPoint, spec: CoupledSpec, freeze: bool = True
) -> CoupledState:
    """One Jacobi update of every position of both users."""
    grid = state.a_vec[0].grid
    engine_a = _Engine(grid, spec, freeze)
    engine_b = _Engine(grid, spec, freeze)
    return _iterate_general(state, ch, spec, engine_a, engine_b)


def _iterate_general(state, ch, spec, engine_a, engine_b) -> CoupledState:
    grid = state.a_vec[0].grid
    dinf = engine_a.dinf
    fn1 = fn_operator(grid, 1, ch)
    fn2 = fn_operator(grid, 2, ch)
    L = spec.L

    def fetch_a(p):
        return state.a_vec[p + L] if -L <= p <= L else dinf

    def fetch_b(p):
        return state.b_vec[p + L] if -L <= p <= L else dinf

    a_new = tuple(
        engine_a.update_position(i, fetch_a, fetch_b, fn1) for i in range(-L, L + 1)
    )
    b_new = tuple(
        engine_b.update_position(i, fetch_b, fetch_a, fn2) for i in range(-L, L + 1)
    )
    return CoupledState(a_new, b_new, L, state.iteration + 1)


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


def _measure_full(state: CoupledState) -> tuple[float, float]:
    """Mean entropy over every position of both users, largest error probability."""
    vecs = (state.a_vec, state.b_vec)
    h = float(np.mean([entropy(d) for vec in vecs for d in vec]))
    return h, max(error_prob(d) for vec in vecs for d in vec)


class _SymmetricRun:
    """Half-domain engine for A = 1 with identical codes: b = a and
    a_{-i} = a_i hold exactly, so only positions 0..L of user 1 evolve."""

    def __init__(
        self,
        grid: DensityGrid,
        spec: CoupledSpec,
        ch: ChannelPoint,
        freeze: bool,
        start: "CoupledState | None" = None,
    ):
        self.spec = spec
        self.engine = _Engine(grid, spec, freeze)
        self.fn = fn_operator(grid, 1, ch)
        self.iteration = 0
        if start is None:
            self.half = [delta_zero(grid)] * (spec.L + 1)
        else:
            self.half = [start.a_vec[spec.L + i] for i in range(spec.L + 1)]

    def fetch(self, p: int) -> LlrDensity:
        p = abs(p)
        return self.half[p] if p <= self.spec.L else self.engine.dinf

    def iterate(self) -> "_SymmetricRun":
        """One Jacobi sweep in place; returns self, the state run_to_halt steps."""
        fetch = self.fetch  # one bound-method object so identity checks hold
        self.half = [
            self.engine.update_position(i, fetch, fetch, self.fn)
            for i in range(self.spec.L + 1)
        ]
        self.iteration += 1
        return self

    def measure(self) -> tuple[float, float]:
        """Mean entropy over positions 0..L, largest error probability."""
        return float(np.mean(_entropies(self.half))), max(error_prob(d) for d in self.half)

    def full_state(self) -> CoupledState:
        full = tuple(self.half[abs(i)] for i in range(-self.spec.L, self.spec.L + 1))
        return CoupledState(full, full, self.spec.L, self.iteration)


def _is_symmetric_state(st: CoupledState) -> bool:
    n = len(st.a_vec)
    return all(st.a_vec[i] is st.b_vec[i] for i in range(n)) and all(
        st.a_vec[i] is st.a_vec[n - 1 - i] for i in range(n // 2)
    )


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
    """Run coupled DE from the no-knowledge start until success or stall.

    `profile(iteration, entropies_a, entropies_b)` is invoked per iteration
    when given (wave visualization).  On the symmetric ray the half-domain
    fast path is used; it is exact, not an approximation.
    """
    if ch.ratio == 1.0 and (start is None or _is_symmetric_state(start)):
        init = _SymmetricRun(grid, spec, ch, freeze, start=start)
        step, measure = _SymmetricRun.iterate, _SymmetricRun.measure
        full_state = _SymmetricRun.full_state
    else:
        engine_a = _Engine(grid, spec, freeze)
        engine_b = _Engine(grid, spec, freeze)
        init = start if start is not None else coupled_initial_state(grid, spec)
        step = lambda st: _iterate_general(st, ch, spec, engine_a, engine_b)
        measure = _measure_full
        full_state = lambda st: st

    observe = None
    if profile is not None:

        def observe(st, _entropy):
            full = full_state(st)
            profile(full.iteration, _entropies(full.a_vec), _entropies(full.b_vec))

    final, residual, halt = run_to_halt(
        init, step, measure, max_iters, success_error, stall_delta, stall_patience, observe
    )
    state = full_state(final)
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
    """Per-position variable-to-function densities (Gamma of each window),
    for the position-averaged GEXIT value."""
    grid = state.a_vec[0].grid
    dinf = delta_inf(grid)
    L = spec.L

    def fetch(vec):
        def f(p):
            return vec[p + L] if -L <= p <= L else dinf

        return f

    fa, fb = fetch(state.a_vec), fetch(state.b_vec)
    out = []
    for i in range(-L, L + 1):
        xs_a = [fa(p) for p in range(i - spec.w + 1, i + spec.w)]
        xs_b = [fb(p) for p in range(i - spec.w + 1, i + spec.w)]
        out.append(
            (window_gamma(xs_a, spec.l, spec.r, spec.w), window_gamma(xs_b, spec.l, spec.r, spec.w))
        )
    return out


def profile_csv_rows(profiles):
    """Flatten recorded (iteration, ent_a, ent_b) triples into CSV rows
    (iteration, position, entropy_a, entropy_b)."""
    rows = []
    for it, ea, eb in profiles:
        L = (len(ea) - 1) // 2
        for idx, pos in enumerate(range(-L, L + 1)):
            rows.append((it, pos, float(ea[idx]), float(eb[idx])))
    return rows
