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
per-position updates are pure functions of the densities they read, so the
engine memoizes each step on their identity: check-node outputs on their
window, a branch (t_i, g) on its check-node outputs, a position on the
branches it reads.  Positions whose branches did not change (the decoded
region behind the wave and the inert bulk ahead of it) are skipped
bit-exactly, and both users' updates read one memo of each user's branches.
A sweep runs in two phases per user: the positions that miss the memo send
their partner densities through the user's function node in one batched
apply, then finish one by one.
The GEXIT extrinsic profile takes its window averages t_i from the same
engine.  Runs use the halting rule of `jointde`, whose threshold search and
GEXIT curves serve coupled ensembles through `jointde.de_runner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
        gammas = [
            tuple(power_vn(eng.inner(u, i), spec.l) for i in eng.positions)
            for u in range(len(eng.vecs))
        ]
        return list(zip(*eng.unfold(gammas)))


class _Pending(NamedTuple):
    """A position update that missed the memo, waiting for the function node:
    the branches (g_own, t_par, g_par) it read and the partner's
    variable-to-function density."""

    i: int
    branches: tuple
    vf: LlrDensity


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

    def __init__(self, spec: CoupledSpec, start: CoupledState, ch=None):
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
        # per user: (kind, position) -> (input objects, value)
        self._memo = [{} for _ in self.vecs]

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

    def _recall(self, u: int, key, inputs):
        """The value stored under `key` if `inputs` are the very objects it
        was computed from, else None; the memo keeps them alive, so identity
        is stable."""
        hit = self._memo[u].get(key)
        if hit is not None and all(x is y for x, y in zip(hit[0], inputs)):
            return hit[1]
        return None

    def _memoized(self, u: int, key, inputs, compute):
        """compute(), reused while `inputs` are the objects it last ran on."""
        value = self._recall(u, key, inputs)
        if value is None:
            value = compute()
            self._memo[u][key] = (inputs, value)
        return value

    def _z(self, u: int, c: int) -> LlrDensity:
        """Check-node output of user u's window ending at check position c."""
        xs = [self._at(self.vecs[u], p) for p in range(c - self.spec.w + 1, c + 1)]
        return self._memoized(
            u, ("z", c), xs, lambda: power_cn(mix(xs, self._weights), self.spec.r - 1)
        )

    def _zs(self, u: int, i: int) -> list:
        return [self._z(u, i + j) for j in range(self.spec.w)]

    def inner(self, u: int, i: int) -> LlrDensity:
        """The window average t_i of user u at position i."""
        return mix(self._zs(u, i), self._weights)

    def _branch(self, u: int, i: int) -> tuple[LlrDensity, LlrDensity]:
        """(t_i, g = t_i^{*(l-1)}) of user u at position i, memoized on the
        check densities t_i averages: the user's own update and its
        partner's read one computation."""
        zs = self._zs(u, i)

        def compute():
            t = mix(zs, self._weights)
            return t, power_vn(t, self.spec.l - 1)

        return self._memoized(u, ("branch", i), zs, compute)

    def update_position(self, u: int, i: int) -> LlrDensity | _Pending:
        """The first phase of the update of user u at position i: the new
        variable-to-check density when the branches it reads are the objects
        its memo holds, else the pending update with the partner's
        variable-to-function density conv_vn(g_par, t_par)."""
        _, g_own = self._branch(u, i)
        t_par, g_par = self._branch(self.partner[u], i)  # on the symmetric fold, the own pair
        branches = (g_own, t_par, g_par)
        done = self._recall(u, ("position", i), branches)
        return done if done is not None else _Pending(i, branches, conv_vn(g_par, t_par))

    def _finish(self, u: int, pending: _Pending, fn_out: LlrDensity) -> LlrDensity:
        """The second phase: the function-node output times g_own, frozen to
        the +inf delta once its error probability falls below
        FREEZE_ERROR_PROB, and memoized on the branches it read."""
        out = conv_vn(fn_out, pending.branches[0])
        if error_prob(out) < FREEZE_ERROR_PROB:
            out = self.dinf
        # hand back the previous object when the update reproduced it
        # bit-exactly, so the neighbours' memo keys keep hitting
        prev = self._at(self.vecs[u], pending.i)
        if (
            out.mass_pos_inf == prev.mass_pos_inf
            and out.mass_neg_inf == prev.mass_neg_inf
            and np.array_equal(out.mass, prev.mass)
        ):
            out = prev
        self._memo[u][("position", pending.i)] = (pending.branches, out)
        return out

    def iterate(self) -> "_Engine":
        """One Jacobi sweep in place; returns self, the state run_to_halt steps.

        Per user, the positions that miss the memo go through the user's
        function node in one batched apply, then finish one by one."""
        vecs = []
        for u, fn in enumerate(self.fns):
            vec = [self.update_position(u, i) for i in self.positions]
            misses = [j for j, x in enumerate(vec) if isinstance(x, _Pending)]
            if misses:
                for j, fn_out in zip(misses, fn.apply([vec[j].vf for j in misses])):
                    vec[j] = self._finish(u, vec[j], fn_out)
            vecs.append(tuple(vec))
        self.vecs = vecs
        return self

    def measure(self) -> tuple[float, float]:
        """Mean entropy over the evolving positions, largest error probability."""
        ds = [d for vec in self.vecs for d in vec]
        return float(np.mean(_entropies(ds))), max(error_prob(d) for d in ds)

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
