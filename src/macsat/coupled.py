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
reduction of uncoupled DE together with spatial mirror symmetry).  Each
user's fold is one stack of densities (`densities.DensityRows`), and since
the recursion is Jacobi each stage of a sweep is one array operation over
all positions: the check-window averages are one weighted sum over an index
map of the fold and its termination, the live windows are box-plus'ed
together (the magnitude passes one row at a time), each position's (t_i, g)
is formed once and read by both users' updates, the positions whose own g
is not the +inf delta send their partner densities through the user's
function node in one batched apply, and the product with g and the freeze
finish them; every transform is one FFT along the positions.  A window of
+inf deltas, and a position whose own g is the +inf delta (the decoded
region behind the wave), yield the +inf delta through a row mask, without a
box-plus, a transform or a function-node column.  The engine keeps no memo:
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
    DensityRows,
    conv_vn_rows,
    delta_inf,
    delta_zero,
    mix_rows,
    power_cn_rows,
    power_vn_rows,
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
        gammas = [power_vn_rows(eng.inners(u), spec.l) for u in range(len(eng.rows))]
        return list(zip(*eng.unfold([[g.density(j) for j in range(len(g))] for g in gammas])))


def _is_symmetric_state(st: CoupledState) -> bool:
    n = len(st.a_vec)
    return all(st.a_vec[i] is st.b_vec[i] for i in range(n)) and all(
        st.a_vec[i] is st.a_vec[n - 1 - i] for i in range(n // 2)
    )


class _Engine:
    """The coupled recursion over one fold of the chain, as a staged sweep on
    position-stacked arrays.

    `rows` holds one DensityRows per evolving user over positions lo..L:
    -L..L of both users, or 0..L of user 1 on the symmetric fold, where
    positions are read through p -> |p| and user 1 is its own partner.  The
    symmetric fold serves a start whose users and mirror positions share
    their density objects, on the symmetric ray; without a channel point the
    engine only reads windows (no updates), so the start alone decides.
    Each stage of a sweep is one operation over all positions of a user:
    the check-window averages are one weighted sum over an index map of the
    fold and its termination (a +inf-delta row), the live windows are
    box-plus'ed together, (t_i, g) is formed once per position, the
    positions whose own g is not the +inf delta send their partner densities
    through the user's function node in one batched apply, and the product
    with g and the freeze finish them.  Rows the density operations answer
    by an early return (+inf-delta windows and positions, the 0-LLR deltas
    of the start) never reach a transform or a magnitude pass.
    """

    def __init__(self, spec: CoupledSpec, start: CoupledState, ch=None):
        if start.L != spec.L:
            raise ValueError(f"start has {len(start.a_vec)} positions, {spec} has {spec.n_positions}")
        grid = start.a_vec[0].grid
        self.symmetric = _is_symmetric_state(start) and (ch is None or ch.ratio == 1.0)
        self.spec = spec
        self.grid = grid
        self.dinf = delta_inf(grid)
        users = (1,) if self.symmetric else (1, 2)
        # fns[u]: the function-node operator toward user u
        self.fns = () if ch is None else tuple(fn_operator(grid, u, ch) for u in users)
        L, w = spec.L, spec.w
        self.lo = 0 if self.symmetric else -L
        self.positions = range(self.lo, L + 1)
        self._vecs = [start.a_vec[L:]] if self.symmetric else [start.a_vec, start.b_vec]
        self.rows = [DensityRows.of(vec) for vec in self._vecs]
        self._inert = None  # rows that are the +inf delta object, once a sweep ran
        self.partner = (0,) if self.symmetric else (1, 0)
        self._weights = np.full(w, 1.0 / w)
        # check window c in [lo, L + w - 1], slot j: the row of position
        # c - w + 1 + j, or the termination row n outside the chain
        n = len(self.positions)
        p = np.arange(self.lo, L + w)[:, None] + np.arange(1 - w, 1)
        if self.symmetric:
            p = np.abs(p)
        self._checks = np.where((self.lo <= p) & (p <= L), p - self.lo, n)
        self._inner = np.arange(n)[:, None] + np.arange(w)  # position j: windows j..j+w-1

    def _at(self, vec, p: int):
        if self.symmetric:
            p = abs(p)
        return vec[p - self.lo] if self.lo <= p <= self.spec.L else self.dinf

    def unfold(self, vecs) -> tuple:
        """(a, b) over positions -L..L from per-user sequences over the fold;
        on the symmetric fold both are user 1's chain."""
        L = self.spec.L
        full = [tuple(self._at(vec, p) for p in range(-L, L + 1)) for vec in vecs]
        return full[0], full[-1]

    @property
    def vecs(self) -> list:
        """One tuple of densities per evolving user over the fold; a row a
        sweep left at the +inf delta is the engine's one +inf delta."""
        if self._vecs is None:
            self._vecs = [
                tuple(self.dinf if inert[j] else rows.density(j) for j in range(len(rows)))
                for rows, inert in zip(self.rows, self._inert)
            ]
        return self._vecs

    def _average(self, rows: DensityRows, index: np.ndarray) -> DensityRows:
        """Row r is the uniform mixture of rows index[r]; the +inf delta when
        all of them are (their mixture normalizes to it exactly)."""
        out = DensityRows.delta_inf(self.grid, len(index))
        live = ~rows.inf[index].all(axis=1)
        return out.put(live, mix_rows(rows, index[live], self._weights)) if live.any() else out

    def inners(self, u: int) -> DensityRows:
        """The window averages t_i of user u over the evolving positions.

        Each check window c in [lo, L + w - 1] is box-plus'ed once; a window
        of +inf deltas gives the +inf delta, which box-plus keeps."""
        rows = self.rows[u]
        ends = DensityRows(self.grid, np.vstack((rows.mass, np.zeros(self.grid.n_bins))), np.append(rows.pos, 1.0))
        x = self._average(ends, self._checks)
        live = ~x.inf
        z = x.put(live, power_cn_rows(x.take(live), self.spec.r - 1)) if live.any() else x
        return self._average(z, self._inner)

    def update_position(self, u: int, branches: list) -> tuple:
        """The first phase of the stage of user u, given each user's (t, g):
        the rows whose own g is not the +inf delta, and at those rows the
        partner's variable-to-function density conv_vn(g_par, t_par).  At
        the other rows the update is the frozen +inf delta: conv_vn with a g
        of no finite mass leaves none."""
        _, g_own = branches[u]
        t_par, g_par = branches[self.partner[u]]  # on the symmetric fold, the own pair
        live = ~g_own.inf
        return live, conv_vn_rows(g_par, t_par, where=live)

    def iterate(self) -> "_Engine":
        """One Jacobi sweep in place; returns self, the state run_to_halt steps.

        Per user, the live positions go through the user's function node in
        one batched apply, then take the product with g_own and the freeze
        to the +inf delta once the error probability falls below
        FREEZE_ERROR_PROB."""
        branches = []
        for u in range(len(self.rows)):
            t = self.inners(u)
            branches.append((t, power_vn_rows(t, self.spec.l - 1)))
        rows, inert = [], []
        for u, fn in enumerate(self.fns):
            live, vf = self.update_position(u, branches)
            out = DensityRows.delta_inf(self.grid, len(live))
            if live.any():
                fn_out = out.put(live, fn.apply(vf.take(live)))
                out = conv_vn_rows(fn_out, branches[u][1], where=live)
                live &= ~(out.error_probs() < FREEZE_ERROR_PROB)
                out.mass[~live], out.pos[~live] = 0.0, 1.0
            rows.append(out)
            inert.append(~live)
        self.rows, self._inert, self._vecs = rows, inert, None
        return self

    def measure(self) -> tuple[float, float]:
        """Mean entropy over positions -L..L of both users, largest error
        probability.  The fold takes each row's entropy once and reads it at
        every position it stands for, so it halts as the full chain does."""
        a, b = self.unfold([rows.entropies() for rows in self.rows])
        return float(np.mean(a + b)), max(float(rows.error_probs().max()) for rows in self.rows)

    def full_state(self) -> CoupledState:
        return CoupledState(*self.unfold(self.vecs), self.spec.L)


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
            a, b = eng.unfold([rows.entropies() for rows in eng.rows])
            profile(iteration, np.array(a), np.array(b))

    _, residual, halt, iterations = run_to_halt(
        engine, _Engine.iterate, _Engine.measure, max_iters, observe
    )
    return FixedPoint(ch, engine.full_state(), residual, halt, iterations)
