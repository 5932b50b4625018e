"""The benchmark's workloads: set-up, one unit of measured work, its check.

Importing this module imports numpy, scipy and macsat, so the benchmark
times the import as part of set-up. Every workload goes through macsat's
public API in one process; nothing here starts a worker pool. Calls go
through the module objects so that the tracer's patches are seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from macsat import channel, coupled, densities, gexit, jointde, mcsim
from macsat.channel import ChannelPoint
from macsat.densities import DensityGrid
from macsat.ensembles import CoupledSpec, named_ensemble

GRID_513 = DensityGrid(bin_width=30.0 / 256.0, half_range=30.0)
GRID_2049 = DensityGrid(bin_width=30.0 / 1024.0, half_range=30.0)

# References measured on the commit that introduced the benchmark. The BP
# threshold and the capacity anchor are the default-grid values of ROADMAP.md.
ALPHA_BP_REF = 1.68457  # reg36, A = 1, tol 5e-3
MAP_BOUND_REF = 1.26689  # map-bound-coarse settings below
MAP_BOUND_TOL = 1e-3

REG36 = named_ensemble("reg36")

THRESHOLD_BRACKET = (1.5, 1.9)
THRESHOLD_TOL = 0.05
COUPLED_SPEC = CoupledSpec(3, 6, 16, 2)
COUPLED_ALPHA = 1.45
MAP_STEP = 0.1
MAP_LATTICE = 64
SIM_N = 6000
SIM_GRAPH_SEED = 0  # graphs of `macsat simulate --seed 0`
SIM_ALPHA = 1.95
SIM_MAX_ITERS = 200
# 1 of 600 frames failed on these graphs; 0.005 leaves room for that estimate
SIM_FRAME_ERROR_REF = 0.005
SIM_TAIL = 1e-6  # each tail of the frame-error binomial interval


def warm_boxplus(grid: DensityGrid):
    """Build the grid's box-plus table into the cache conv_cn reads."""
    dens = channel.bawgn_density(grid, 1.0)
    densities.conv_cn(dens, dens)


def clear_channel_caches():
    """Empty the per-channel-point caches so that every unit does the same work.

    The box-plus table depends only on the grid and counts as set-up, so it
    stays. A cache that a later version of the package no longer has is
    skipped.
    """
    for module, name in ((channel, "_FN_CACHE"), (gexit, "_LATTICE_CACHE")):
        cache = getattr(module, name, None)
        if cache is not None:
            cache.clear()


class ThresholdMid:
    """reg36 BP threshold bisection at A = 1 on the 2049-bin grid."""

    def setup(self, seed):
        warm_boxplus(GRID_2049)

    def unit(self, ctx, index):
        clear_channel_caches()
        return jointde.bp_threshold(
            REG36, 1.0, tol=THRESHOLD_TOL, grid=GRID_2049, bracket=THRESHOLD_BRACKET
        )

    def check(self, res):
        if abs(res.alpha - ALPHA_BP_REF) > res.tol:
            return [f"alpha_bp {res.alpha} farther than {res.tol} from {ALPHA_BP_REF}"]
        return []


class CoupledWave:
    """Coupled (3,6,16,2) DE at A = 1 on 513 bins, run until it decodes."""

    def setup(self, seed):
        warm_boxplus(GRID_513)

    def unit(self, ctx, index):
        clear_channel_caches()
        return coupled.coupled_run(ChannelPoint(COUPLED_ALPHA, 1.0), COUPLED_SPEC, GRID_513)

    def check(self, fp):
        return [] if fp.halt == "success" else [f"coupled run halted with {fp.halt}"]


class MapBoundCoarse:
    """Area-theorem bound sweep for reg36 at A = 1 on 513 bins, with the
    MAC-ACPR point for the ordering check."""

    def setup(self, seed):
        warm_boxplus(GRID_513)

    def unit(self, ctx, index):
        clear_channel_caches()
        bound, _ = gexit.map_bound_sweep(
            REG36, 1.0, grid=GRID_513, step=MAP_STEP, bins=MAP_LATTICE
        )
        return bound, channel.mac_acpr_point((0.5, 0.5), 1.0)

    def check(self, res):
        bound, alpha_sh = res
        problems = []
        if abs(bound - MAP_BOUND_REF) > MAP_BOUND_TOL:
            problems.append(f"alpha_bar {bound} farther than {MAP_BOUND_TOL} from {MAP_BOUND_REF}")
        if not alpha_sh <= bound <= ALPHA_BP_REF:
            problems.append(f"ordering alpha_Sh {alpha_sh} <= {bound} <= {ALPHA_BP_REF} broken")
        return problems


class DensityEvolution:
    """The three density-evolution computations above, in one unit.

    As separate workloads each run could measure only about 20 s, too little
    to be steady on a host whose speed drifts; one workload of all three
    measures about 40 s per run.
    """

    name = "density-evolution"
    traced_units = 1
    parts = (ThresholdMid(), CoupledWave(), MapBoundCoarse())

    def setup(self, seed):
        for part in self.parts:
            part.setup(seed)

    def unit(self, ctx, index):
        return [part.unit(ctx, index) for part in self.parts]

    def check(self, results):
        return [m for part, res in zip(self.parts, results) for m in part.check(res)]


@dataclass
class SimContext:
    inst: mcsim.JointInstance
    seed: int


class SimulateWaterfall:
    name = "simulate-waterfall"
    traced_units = 10

    def setup(self, seed):
        # graph seeds derived as the `simulate` command derives them; the
        # graphs stay fixed so that only codewords and noise follow --seed
        s = SIM_GRAPH_SEED
        g1 = mcsim.build_regular(SIM_N, 3, 6, s)
        g2 = mcsim.build_regular(SIM_N, 3, 6, s + 1)
        inst = mcsim.build_joint(g1, g2, s + 2)
        mcsim._encoder_for(g1)
        mcsim._encoder_for(g2)
        return SimContext(inst, seed)

    def unit(self, ctx, index):
        """Frame `index` of `macsat simulate --mode random --seed <seed>`."""
        res = mcsim.simulate_joint(
            ctx.inst,
            ChannelPoint(SIM_ALPHA, 1.0),
            mode="random",
            max_iters=SIM_MAX_ITERS,
            num_frames=index + 1,
            seed=ctx.seed,
            pmap=lambda run_frame, _frames: [run_frame(index)],
        )
        return res.frames[0]

    def check(self, frame):
        # the decoder stops early only on clean syndromes, so a frame it
        # marked decoded must carry no bit errors
        if frame.iterations < SIM_MAX_ITERS and frame.bit_errors != (0, 0):
            return [f"frame {frame.frame} halted decoded with bit errors {frame.bit_errors}"]
        return []

    def check_all(self, frames):
        """Frame-error count of each user inside the reference binomial interval.

        Bit errors cluster in the frames that fail, so the binomial law holds
        for frames, not for bits.
        """
        lo, hi = binomial_interval(len(frames), SIM_FRAME_ERROR_REF, SIM_TAIL)
        problems = []
        for user in (0, 1):
            k = sum(1 for f in frames if f.bit_errors[user])
            if not lo <= k <= hi:
                problems.append(
                    f"user {user + 1}: {k} of {len(frames)} frames in error, "
                    f"outside [{lo}, {hi}] for rate {SIM_FRAME_ERROR_REF}"
                )
        return problems


def binomial_interval(n: int, p: float, tail: float) -> tuple[int, int]:
    """Counts [lo, hi] with P(K < lo) <= tail and P(K > hi) <= tail, K ~ Bin(n, p)."""
    log_pmf = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
        for k in range(n + 1)
    ]
    cdf = np.cumsum(np.exp(log_pmf))
    lo = int(np.searchsorted(cdf, tail, side="right"))
    hi = int(np.searchsorted(cdf, 1.0 - tail, side="left"))
    return lo, min(hi, n)


WORKLOADS = {w.name: w for w in (DensityEvolution(), SimulateWaterfall())}
