"""Joint density evolution for the uncoupled two-user system.

One update is

    a' = fn(to user 1, L(rho(b))) * lambda(rho(a))
    b' = fn(to user 2, L(rho(a))) * lambda(rho(b))

with * the variable-node convolution; both users update simultaneously from
the previous state (Jacobi), which is what the displayed recursion expresses.
On the symmetric ray (A = 1) with equal codes the recursion maps a pair of
identical densities to an identical pair, so one update serves both users.

This module also holds the halting rule shared with coupled DE, the one
place (`de_runner`) that picks uncoupled or coupled DE for an ensemble, and
the threshold search over either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelPoint, bisect, fn_operator
from .densities import (
    DensityGrid,
    LlrDensity,
    conv_vn,
    default_grid,
    delta_inf,
    delta_zero,
    entropy,
    error_prob,
    poly_cn,
    poly_vn,
    poly_vn_node,
)
from .ensembles import CoupledSpec, EnsembleSpec

# halting defaults: success once both users are essentially error free, stall
# once entropy stops moving for a while (separates near-threshold slowdown
# from genuine failure)
SUCCESS_ERROR_PROB = 1e-10
STALL_ENTROPY_DELTA = 1e-9
STALL_PATIENCE = 10
MAX_ITERS = 10_000

BRACKET_ALPHA_MAX = 6.0


@dataclass(frozen=True)
class DeState:
    """Variable-to-check L-densities of the two users."""

    a: LlrDensity
    b: LlrDensity

    def extrinsic(self, ens: EnsembleSpec) -> list:
        """[(user 1, user 2)] variable-to-function densities L(rho(.)) at the
        one position, the input of the GEXIT value; users that share one
        density (the symmetric ray) map once."""
        a = _variable_side(ens, self.a, False)[0]
        return [(a, a if self.b is self.a else _variable_side(ens, self.b, False)[0])]


@dataclass(frozen=True)
class FixedPoint:
    """Where one DE run halted: its DeState or CoupledState, the last entropy
    change, the halt reason and the iterations this run spent."""

    channel: ChannelPoint
    state: object
    residual: float
    halt: str  # "success" | "stall" | "max_iters"
    iterations: int

    @property
    def decoded(self) -> bool:
        return self.halt == "success"


def initial_state(grid: DensityGrid) -> DeState:
    """No-knowledge start: both users at one shared 0-LLR delta."""
    d0 = delta_zero(grid)
    return DeState(d0, d0)


def de_iterate(
    state: DeState,
    ch: ChannelPoint,
    ens: EnsembleSpec,
    genie: bool = False,
) -> DeState:
    """One joint DE update.  genie=True pins each user's partner to the
    perfectly-known delta at +inf (single-user diagnostic).

    On the symmetric ray a state whose users share one density object is
    updated once and stays shared: both users' updates are bit-identical.
    """
    grid = state.a.grid
    vf_a, g_a = _variable_side(ens, state.a, genie)
    if ch.ratio == 1.0 and state.a is state.b:
        x = conv_vn(fn_operator(grid, 1, ch).apply(vf_a), g_a)
        return DeState(x, x)

    vf_b, g_b = _variable_side(ens, state.b, genie)
    a_next = conv_vn(fn_operator(grid, 1, ch).apply(vf_b), g_a)
    b_next = conv_vn(fn_operator(grid, 2, ch).apply(vf_a), g_b)
    return DeState(a_next, b_next)


def _variable_side(ens: EnsembleSpec, a: LlrDensity, genie: bool):
    """(L(rho(a)), lambda(rho(a))) of one user: the density toward the
    function node, where a degree-i variable node forwards the sum of all i
    of its check messages (the +inf delta under the genie), and the product
    of the check messages a variable node sends back on an edge.  Both take
    their powers of rho(a) from one list of its squarings."""
    rho = poly_cn(ens.rho_coeffs, a)
    squares = [rho]
    vf = delta_inf(a.grid) if genie else poly_vn_node(ens.node_lambda, rho, squares)
    return vf, poly_vn(ens.lambda_coeffs, rho, squares)


def run_to_halt(state, step, measure, max_iters, observe=None):
    """The halting rule of every DE run, uncoupled or coupled.

    Applies state = step(state) until the largest error probability falls
    below SUCCESS_ERROR_PROB ("success"), the entropy moves by less than
    STALL_ENTROPY_DELTA for STALL_PATIENCE iterations in a row ("stall"), or
    max_iters steps are spent ("max_iters", reported as not decoded).
    measure(state) returns (entropy, largest error probability) and
    observe(iteration, state), when given, sees every step.  Returns
    (state, residual, halt, iterations) with residual the last entropy
    change and iterations the steps this call spent, whatever the start.
    """
    h_prev, _ = measure(state)
    quiet = 0
    residual = np.inf
    for iteration in range(1, max_iters + 1):
        state = step(state)
        h_now, worst_error = measure(state)
        residual = abs(h_prev - h_now)
        if observe is not None:
            observe(iteration, state)
        if worst_error < SUCCESS_ERROR_PROB:
            return state, residual, "success", iteration
        quiet = quiet + 1 if residual < STALL_ENTROPY_DELTA else 0
        if quiet >= STALL_PATIENCE:
            return state, residual, "stall", iteration
        h_prev = h_now
    return state, residual, "max_iters", max_iters


def _measure_pair(state: DeState) -> tuple[float, float]:
    return entropy(state.a) + entropy(state.b), max(error_prob(state.a), error_prob(state.b))


def de_run(
    ch: ChannelPoint,
    ens: EnsembleSpec,
    grid: DensityGrid,
    max_iters: int = MAX_ITERS,
    genie: bool = False,
    start: DeState | None = None,
) -> FixedPoint:
    """Iterate DE until decoded, stalled at a nontrivial fixed point, or out
    of iterations (reported as nontrivial, conservatively)."""
    return FixedPoint(
        ch,
        *run_to_halt(
            start if start is not None else initial_state(grid),
            lambda st: de_iterate(st, ch, ens, genie=genie),
            _measure_pair,
            max_iters,
        ),
    )


def de_runner(ens: EnsembleSpec | CoupledSpec, grid: DensityGrid, genie: bool = False):
    """The DE of an ensemble as run(ch, start=None) -> FixedPoint: coupled DE
    for an (l, r, L, w) ensemble, joint DE otherwise.  This is the one place
    that tells the two apart; thresholds and GEXIT curves share the rest."""
    if isinstance(ens, CoupledSpec):
        if genie:
            raise ValueError("genie DE is defined for uncoupled ensembles only")
        from .coupled import coupled_run

        return lambda ch, start=None: coupled_run(ch, ens, grid, start=start)
    return lambda ch, start=None: de_run(ch, ens, grid, genie=genie, start=start)


class BracketError(RuntimeError):
    """Threshold bisection could not establish a success/failure bracket."""


@dataclass
class ThresholdResult:
    alpha: float
    tol: float
    ratio: float
    iterations: int  # total DE iterations spent
    probes: list  # (alpha, decoded) in evaluation order


def bp_threshold(
    ens: EnsembleSpec | CoupledSpec,
    ratio: float,
    tol: float = 5e-3,
    grid: DensityGrid | None = None,
    bracket: tuple[float, float] = (0.0, BRACKET_ALPHA_MAX),
    genie: bool = False,
) -> ThresholdResult:
    """Bisect for the BP threshold of an uncoupled or coupled ensemble on the
    ray h2 = ratio * h1; the bracket ends must fail and decode.  Returns the
    bracket midpoint once the half-width drops below tol."""
    if not ratio >= 0:
        raise ValueError("ratio must be nonnegative")
    run = de_runner(ens, grid if grid is not None else default_grid(), genie)
    probes: list[tuple[float, bool]] = []
    spent = 0

    def decoded_at(alpha: float) -> bool:
        nonlocal spent
        fp = run(ChannelPoint(alpha, ratio))
        spent += fp.iterations
        probes.append((alpha, fp.decoded))
        return fp.decoded

    lo, hi = bracket
    if decoded_at(lo):
        raise BracketError(f"DE already succeeds at alpha={lo}")
    if not decoded_at(hi):
        raise BracketError(f"DE still fails at alpha={hi}")
    alpha = bisect(decoded_at, lo, hi, 2.0 * tol)
    return ThresholdResult(alpha, tol, ratio, spent, probes)


def threshold_alpha(ens, ratio: float, **kwargs) -> float:
    """The BP threshold alone, the per-ray job of a BP boundary sweep
    (`channel.ray_boundary`)."""
    return bp_threshold(ens, ratio, **kwargs).alpha
