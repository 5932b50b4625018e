"""Kernel sweep: per-call times of the density-evolution kernels at 513, 2049
and 4097 bins on seeded random densities, plus one frame of the
simulate-waterfall decoder.

Metrics are named `kernel.<kernel>.ms.g<bins>`. They are per-layer evidence
for grids no workload can afford to run, and carry no end-to-end claim.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from layers import array_entries
from macsat import channel, densities, gexit, jointde
from macsat.channel import ChannelPoint
from macsat.densities import DensityGrid
from workloads import ALPHA_BP_REF, REG36, WORKLOADS, clear_channel_caches

SWEEP_BINS = (513, 2049, 4097)
LATTICE_BINS = 128
FRAMES = 5

KERNELS = (
    "conv_cn",
    "magnitude_op",
    "conv_vn",
    "fn_apply",
    "fn_build",
    "de_iterate",
    "lattice_build",
)


def per_call_ms(fn, min_calls: int = 3, budget_s: float = 0.2) -> float:
    """Median milliseconds per call over at least `min_calls` calls."""
    times = []
    stop = perf_counter() + budget_s
    while len(times) < min_calls or perf_counter() < stop:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1000.0 * median(times)


def random_density(grid: DensityGrid, rng: np.random.Generator):
    raw = rng.random(grid.n_bins)
    pos_inf, neg_inf = 0.05 * rng.random(2)
    mass = raw / raw.sum() * (1.0 - pos_inf - neg_inf)
    return densities.make_density(grid, mass, pos_inf, neg_inf)


def _grid_kernels(grid: DensityGrid, rng: np.random.Generator):
    """(kernel name, factory returning the zero-argument call, minimum calls).

    A factory builds what its call needs (and warms the caches it reads), so
    a kernel the package no longer has fails there alone.
    """
    a, b = random_density(grid, rng), random_density(grid, rng)
    p, q = rng.random(grid.k_max + 1), rng.random(grid.k_max + 1)
    ch = ChannelPoint(ALPHA_BP_REF, 1.0)

    def conv_cn():
        densities.conv_cn(a, b)  # builds the cached box-plus table
        return lambda: densities.conv_cn(a, b)

    def magnitude_op():
        table = densities.BoxPlusTable(grid)
        return lambda: table.magnitude_op(p, q)

    def fn_apply():
        fn = channel.FnOperator(grid, ch.h1, ch.h2)
        return lambda: fn.apply(a)

    def de_iterate():
        state = jointde.DeState(a, b)
        jointde.de_iterate(state, ch, REG36)  # builds the cached operators
        return lambda: jointde.de_iterate(state, ch, REG36)

    return [
        ("conv_cn", conv_cn, 3),
        ("magnitude_op", magnitude_op, 3),
        ("conv_vn", lambda: lambda: densities.conv_vn(a, b), 3),
        ("fn_apply", fn_apply, 3),
        ("fn_build", lambda: lambda: channel.FnOperator(grid, ch.h1, ch.h2), 2),
        ("de_iterate", de_iterate, 3),
        ("lattice_build", lambda: lambda: gexit.KernelLattice(ch, grid, bins=LATTICE_BINS), 2),
    ]


def kernel_sweep(seed: int) -> tuple[dict, list]:
    """(metric name -> (value, unit), names of kernels the package lacks)."""
    rng = np.random.default_rng(seed)
    out, absent = {}, []
    for bins in SWEEP_BINS:
        grid = DensityGrid(bin_width=60.0 / (bins - 1), half_range=30.0)
        for name, factory, min_calls in _grid_kernels(grid, rng):
            metric = f"kernel.{name}.ms.g{bins}"
            try:
                call = factory()
            except AttributeError:
                absent.append(metric)
                continue
            out[metric] = (per_call_ms(call, min_calls), "ms")
        try:
            entries = max(array_entries(densities.BoxPlusTable(grid)))
            out[f"kernel.boxplus_table.entries.g{bins}"] = (entries, "count")
        except AttributeError:
            absent.append(f"kernel.boxplus_table.entries.g{bins}")
        clear_channel_caches()

    sim = WORKLOADS["simulate-waterfall"]
    ctx = sim.setup(seed)
    frames = iter(range(FRAMES))
    frame_ms = per_call_ms(lambda: sim.unit(ctx, next(frames)), min_calls=FRAMES, budget_s=0.0)
    out["kernel.decode_frame.ms"] = (frame_ms, "ms")
    return out, absent
