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
reduction of uncoupled DE together with spatial mirror symmetry).  A sweep
is staged: each user's check windows are box-plus'ed once, each position's
(t_i, g) is formed once and read by both users' updates, the positions whose
own g is not the +inf delta send their partner densities through the user's
function node in one batched apply, and each finishes with the product with
g and the freeze.  A window of +inf deltas, and a position whose own g is
the +inf delta (the decoded region behind the wave), yield the +inf delta
without a box-plus or a function-node column.  The engine keeps no memo:
a live density changes from each sweep to the next until it freezes, so a
sweep has nothing to reuse.
The GEXIT extrinsic profile takes its window averages t_i from the same
engine.  Runs use the halting rule of `jointde`, whose threshold search and
GEXIT curves serve coupled ensembles through `jointde.de_runner`.
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
    is_delta_inf,
    mix,
    power_cn,
    power_vn,
)
from .ensembles import CoupledSpec
from .jointde import FixedPoint, run_to_halt

FREEZE_ERROR_PROB = 1e-12
COUPLED_MAX_ITERS = 30_000  # decoding waves need ~L / wave-speed iterations


@dataclass(frozen=True)
class CoupledState:
    """Position-indexed variable-to-check densities for both users."""

    a_vec: tuple
    b_vec: tuple
    L: int

    def __post_init__(self):
        if len(self.a_vec) != 2 * self.L + 1 or len(self.b_vec) != 2 * self.L + 1:
            raise ValueError("need one density per position in [-L, L]")

    def extrinsic(self, spec: CoupledSpec) -> list:
        """Per-position (user 1, user 2) variable-to-function densities
        (Gamma = t_i^{*l} of each window), the input of the position-averaged
        GEXIT value."""
        eng = _Engine(spec, self)
        gammas = [tuple(power_vn(t, spec.l) for t in eng.inners(u)) for u in range(len(eng.vecs))]
        return list(zip(*eng.unfold(gammas)))


def _is_symmetric_state(st: CoupledState) -> bool:
    n = len(st.a_vec)
    return all(st.a_vec[i] is st.b_vec[i] for i in range(n)) and all(
        st.a_vec[i] is st.a_vec[n - 1 - i] for i in range(n // 2)
    )


class _Engine:
    """The coupled recursion over one fold of the chain, as a staged sweep.

    `vecs` holds one tuple of densities per evolving user over positions
    lo..L: -L..L of both users, or 0..L of user 1 on the symmetric fold,
    where positions are read through p -> |p| and user 1 is its own partner.
    The symmetric fold serves a start whose users and mirror positions share
    their density objects, on the symmetric ray; without a channel point the
    engine only reads windows (no updates), so the start alone decides.
    A sweep box-plus'es each user's check windows once, forms each user's
    (t_i, g) once per position, sends the positions whose own g is not the
    +inf delta through the user's function node in one batched apply, and
    finishes them one by one.
    """

    def __init__(self, spec: CoupledSpec, start: CoupledState, ch=None):
        if start.L != spec.L:
            raise ValueError(f"start has {len(start.a_vec)} positions, {spec} has {spec.n_positions}")
        grid = start.a_vec[0].grid
        self.symmetric = _is_symmetric_state(start) and (ch is None or ch.ratio == 1.0)
        self.spec = spec
        self.dinf = delta_inf(grid)
        users = (1,) if self.symmetric else (1, 2)
        # fns[u]: the function-node operator toward user u
        self.fns = () if ch is None else tuple(fn_operator(grid, u, ch) for u in users)
        self.lo = 0 if self.symmetric else -spec.L
        self.positions = range(self.lo, spec.L + 1)
        self.vecs = [start.a_vec[spec.L :]] if self.symmetric else [start.a_vec, start.b_vec]
        self.partner = (0,) if self.symmetric else (1, 0)
        self._weights = np.full(spec.w, 1.0 / spec.w)

    def _at(self, vec, p: int) -> LlrDensity:
        if self.symmetric:
            p = abs(p)
        return vec[p - self.lo] if self.lo <= p <= self.spec.L else self.dinf

    def unfold(self, vecs) -> tuple:
        """(a, b) over positions -L..L from per-user lists over the fold; on
        the symmetric fold both are user 1's chain."""
        L = self.spec.L
        full = [tuple(self._at(vec, p) for p in range(-L, L + 1)) for vec in vecs]
        return full[0], full[-1]

    def _average(self, xs: list) -> LlrDensity:
        """The uniform mixture of a window of densities; the +inf delta when
        all of them are (their mixture normalizes to it exactly)."""
        return self.dinf if all(map(is_delta_inf, xs)) else mix(xs, self._weights)

    def inners(self, u: int) -> list:
        """The window averages t_i of user u over the evolving positions.

        Each check window c in [lo, L + w - 1] is box-plus'ed once; a window
        of +inf deltas gives the +inf delta, which box-plus keeps."""
        w = self.spec.w
        zs = []
        for c in range(self.lo, self.spec.L + w):
            x = self._average([self._at(self.vecs[u], p) for p in range(c - w + 1, c + 1)])
            zs.append(x if x is self.dinf else power_cn(x, self.spec.r - 1))
        return [self._average(zs[j : j + w]) for j in range(len(self.positions))]

    def update_position(self, u: int, i: int, branches: list) -> LlrDensity | None:
        """The first phase of the update of user u at position i, given each
        user's (t, g) per position: the partner's variable-to-function
        density conv_vn(g_par, t_par), or None when the own g is the +inf
        delta.  The update is then the frozen +inf delta: conv_vn with a g
        of no finite mass leaves none."""
        j = i - self.lo
        _, g_own = branches[u][j]
        t_par, g_par = branches[self.partner[u]][j]  # on the symmetric fold, the own pair
        return None if is_delta_inf(g_own) else conv_vn(g_par, t_par)

    def iterate(self) -> "_Engine":
        """One Jacobi sweep in place; returns self, the state run_to_halt steps.

        Per user, the live positions go through the user's function node in
        one batched apply, then take the product with g_own and the freeze
        to the +inf delta once the error probability falls below
        FREEZE_ERROR_PROB."""
        branches = [
            [(t, t if t is self.dinf else power_vn(t, self.spec.l - 1)) for t in self.inners(u)]
            for u in range(len(self.vecs))
        ]
        vecs = []
        for u, fn in enumerate(self.fns):
            vfs = [self.update_position(u, i, branches) for i in self.positions]
            live = [j for j, vf in enumerate(vfs) if vf is not None]
            vec = [self.dinf] * len(vfs)
            if live:
                for j, fn_out in zip(live, fn.apply([vfs[j] for j in live])):
                    out = conv_vn(fn_out, branches[u][j][1])
                    vec[j] = self.dinf if error_prob(out) < FREEZE_ERROR_PROB else out
            vecs.append(tuple(vec))
        self.vecs = vecs
        return self

    def measure(self) -> tuple[float, float]:
        """Mean entropy over positions -L..L of both users, largest error
        probability.  The fold takes each density's entropy once and reads it
        at every position it stands for, so it halts as the full chain does."""
        a, b = self.unfold([_entropies(vec) for vec in self.vecs])
        return float(np.mean(a + b)), max(error_prob(d) for vec in self.vecs for d in vec)

    def full_state(self) -> CoupledState:
        return CoupledState(*self.unfold(self.vecs), self.spec.L)


def _entropies(vec) -> np.ndarray:
    return np.array([entropy(d) for d in vec])


def coupled_run(
    ch: ChannelPoint,
    spec: CoupledSpec,
    grid: DensityGrid,
    max_iters: int = COUPLED_MAX_ITERS,
    profile=None,
    start: CoupledState | None = None,
) -> FixedPoint:
    """Run coupled DE from the no-knowledge start (or `start`) until success
    or stall.  Positions whose error probability falls below
    FREEZE_ERROR_PROB are frozen to the +inf delta.

    `profile(iteration, entropies_a, entropies_b)` is invoked per iteration
    when given (wave visualization).  On the symmetric ray, from a start
    whose users and mirror positions share their density objects, the engine
    evolves half the chain of one user; it is exact, not an approximation.
    """
    if start is None:
        d0 = delta_zero(grid)
        start = CoupledState((d0,) * spec.n_positions, (d0,) * spec.n_positions, spec.L)
    engine = _Engine(spec, start, ch)

    observe = None
    if profile is not None:

        def observe(iteration, eng):
            full = eng.full_state()
            profile(iteration, _entropies(full.a_vec), _entropies(full.b_vec))

    _, residual, halt, iterations = run_to_halt(
        engine, _Engine.iterate, _Engine.measure, max_iters, observe
    )
    return FixedPoint(ch, engine.full_state(), residual, halt, iterations)
