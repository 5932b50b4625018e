import numpy as np
import pytest

from macsat.densities import DensityGrid, make_density


@pytest.fixture(scope="session")
def tiny_grid():
    """Small grid for algebra checks (fast box-plus tables)."""
    return DensityGrid(bin_width=0.25, half_range=8.0)


@pytest.fixture(scope="session")
def coarse_grid():
    """Coarse production-shaped grid for DE smoke tests."""
    return DensityGrid(bin_width=30.0 / 256.0, half_range=30.0)


@pytest.fixture(scope="session")
def work_grid():
    """Mid-resolution grid used by the slower validation tests."""
    return DensityGrid(bin_width=30.0 / 1024.0, half_range=30.0)


def random_density(grid, rng, inf_mass=0.1, symmetric=False):
    if symmetric:
        # N(m, 2m) shapes satisfy the LLR symmetry condition a(-z) = e^-z a(z)
        z = grid.centers()
        m = rng.uniform(0.5, 4.0)
        raw = np.exp(-0.25 * (z - m) ** 2 / m)
        return make_density(grid, raw / raw.sum())
    raw = rng.random(grid.n_bins)
    pinf = rng.random() * inf_mass
    return make_density(grid, raw / raw.sum() * (1.0 - pinf), pinf)
