"""Density evolution for the (l, r, L, w) spatially coupled joint system.

Positions run over [-L, L]; densities outside are pinned to the +inf delta
(perfect termination).  One update per position i is

    a_i' = fn(to 1, Gamma(b window at i)) * g(a window at i)

with the double-window operators

    t_i   = (1/w) sum_j ( (1/w) sum_k x_{i+j-k} )^{boxplus(r-1)}
    g     = t_i^{*(l-1)},   Gamma = t_i^{*l}

and symmetrically for b.  All positions update from the previous state
(Jacobi), matching the displayed recursion.

One engine runs the recursion over the state it is given, which is its
fold of the chain: two stacks of densities (`densities.DensityRows`),
positions -L..L of both users, or on the symmetric ray (A = 1, equal codes)
one stack, positions 0..L of user 1 read through p -> |p| with the user as
its own partner, since b = a and a_{-i} = a_i hold there (the user-exchange
reduction of uncoupled DE together with spatial mirror symmetry).  Since
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
    """Position-stacked variable-to-check densities (`densities.DensityRows`).

    One stack is the symmetric fold: positions 0..L of user 1, standing for
    both users and for the mirror positions (b = a, a_{-i} = a_i).  Two
    stacks are users 1 and 2 over positions -L..L."""

    rows: tuple
    L: int

    def __post_init__(self):
        n = self.L + 1 if len(self.rows) == 1 else 2 * self.L + 1
        if len(self.rows) not in (1, 2) or any(len(r) != n for r in self.rows):
            raise ValueError(f"need one stack of positions 0..{self.L} or two of positions -{self.L}..{self.L}")

    def index(self, p: np.ndarray) -> np.ndarray:
        """The stack row of each position p, read through p -> |p| on the
        fold; outside -L..L the termination row, one past the last."""
        inside = np.abs(p) <= self.L
        return np.where(inside, np.abs(p) if len(self.rows) == 1 else p + self.L, len(self.rows[0]))

    def unfold(self, stacks) -> tuple:
        """(user 1, user 2) over positions -L..L from one sequence per stack,
        indexed as its rows; on the fold both are user 1's chain."""
        idx = self.index(np.arange(-self.L, self.L + 1))
        full = [tuple(stack[i] for i in idx) for stack in stacks]
        return full[0], full[-1]

    def extrinsic(self, spec: CoupledSpec) -> list:
        """Per-position (user 1, user 2) variable-to-function densities
        (Gamma = t_i^{*l} of each window), the input of the position-averaged
        GEXIT value."""
        eng = _Engine(spec, self)
        gammas = [power_vn_rows(eng.inners(u), spec.l) for u in range(len(self.rows))]
        return list(zip(*self.unfold(gammas)))


class _Engine:
    """The coupled recursion over the chain a state stacks, as a staged sweep
    on position-stacked arrays.

    A two-stack state runs both users over -L..L.  A one-stack state runs
    the symmetric fold, positions 0..L of user 1 read through p -> |p| with
    user 1 as its own partner, on the symmetric ray; run off the ray it is
    first unfolded into both users' chains.  Without a channel point the
    engine only reads windows (no updates), so the state alone decides.
    Each stage of a sweep is one operation over all positions of a user:
    the check-window averages are one weighted sum over the state's index
    map and its termination (a +inf-delta row), the live windows are
    box-plus'ed together, (t_i, g) is formed once per position, the
    positions whose own g is not the +inf delta send their partner densities
    through the user's function node in one batched apply, and the product
    with g and the freeze finish them.  Rows the density operations answer
    by an early return (+inf-delta windows and positions, the 0-LLR deltas
    of the start) never reach a transform or a magnitude pass.
    """

    def __init__(self, spec: CoupledSpec, start: CoupledState, ch=None):
        if start.L != spec.L:
            raise ValueError(f"start has {2 * start.L + 1} positions, {spec} has {spec.n_positions}")
        L, w = spec.L, spec.w
        if len(start.rows) == 1 and ch is not None and ch.ratio != 1.0:
            full = start.rows[0].take(start.index(np.arange(-L, L + 1)))
            start = CoupledState((full, full), L)
        self.spec = spec
        self.state = start
        self.grid = start.rows[0].grid
        users = len(start.rows)
        # fns[u]: the function-node operator toward user u
        self.fns = () if ch is None else tuple(fn_operator(self.grid, u, ch) for u in (1, 2)[:users])
        self.partner = (0,) if users == 1 else (1, 0)
        self._weights = np.full(w, 1.0 / w)
        # check window c in [lo, L + w - 1], slot j: the row of position
        # c - w + 1 + j, or the termination row outside the chain
        lo = 0 if users == 1 else -L
        self._checks = start.index(np.arange(lo, L + w)[:, None] + np.arange(1 - w, 1))
        n = len(start.rows[0])
        self._inner = np.arange(n)[:, None] + np.arange(w)  # row j: windows j..j+w-1

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
        rows = self.state.rows[u]
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
        for u in range(len(self.state.rows)):
            t = self.inners(u)
            branches.append((t, power_vn_rows(t, self.spec.l - 1)))
        rows = []
        for u, fn in enumerate(self.fns):
            live, vf = self.update_position(u, branches)
            out = DensityRows.delta_inf(self.grid, len(live))
            if live.any():
                fn_out = out.put(live, fn.apply(vf.take(live)))
                new = conv_vn_rows(fn_out, branches[u][1], where=live)
                live &= ~(new.error_probs() < FREEZE_ERROR_PROB)
                new.mass[~live], new.pos[~live] = 0.0, 1.0
                out = new if live.any() else out  # a user frozen whole is the +inf stack
            rows.append(out)
        self.state = CoupledState(tuple(rows), self.spec.L)
        return self

    def entropies(self) -> tuple:
        """Each user's entropies over positions -L..L; the fold takes each
        row's entropy once and reads it at every position it stands for."""
        return self.state.unfold([rows.entropies() for rows in self.state.rows])

    def measure(self) -> tuple[float, float]:
        """Mean entropy over positions -L..L of both users, largest error
        probability; so the fold halts as the full chain does."""
        a, b = self.entropies()
        return float(np.mean(a + b)), max(float(rows.error_probs().max()) for rows in self.state.rows)


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
    when given (wave visualization).  The no-knowledge start is the fold of
    0-LLR deltas: on the symmetric ray the engine evolves half the chain of
    one user, which is exact, not an approximation; off it, both users'
    chains.  A two-stack `start` runs the full chain on any ray.
    """
    if start is None:
        start = CoupledState((DensityRows.of([delta_zero(grid)] * (spec.L + 1)),), spec.L)
    engine = _Engine(spec, start, ch)

    observe = None
    if profile is not None:

        def observe(iteration, eng):
            profile(iteration, *map(np.array, eng.entropies()))

    _, residual, halt, iterations = run_to_halt(
        engine, _Engine.iterate, _Engine.measure, max_iters, observe
    )
    return FixedPoint(ch, engine.state, residual, halt, iterations)
