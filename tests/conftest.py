import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from thinslab import Field, Grid
from thinslab.propagator import apply_slab
from thinslab.spectral import forward, inverse
from thinslab.symbols import eval_symbol


@pytest.fixture
def grid64():
    return Grid(64, 2.0 * np.pi)


@pytest.fixture
def grid128():
    return Grid(128, 2.0 * np.pi)


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Field(grid, vals)


def slab_samples(slab, field):
    """One slab on samples: apply_slab between one forward and one inverse transform."""
    return inverse(apply_slab(slab, forward(field)))


def rel_err(a, b):
    return np.linalg.norm(np.ravel(a) - np.ravel(b)) / max(np.linalg.norm(np.ravel(b)), 1e-300)


def node_mean(spec, z0, z1, x, xi, order):
    """Slab mean as one scaled eval_symbol table per Gauss node, summed in node order.

    The reference for every slab mean: it runs the quadrature for any spec,
    whatever its z-declarations.
    """
    nodes, weights = leggauss(order)
    mid, half = 0.5 * (z0 + z1), 0.5 * (z1 - z0)
    acc = None
    for t, w in zip(nodes, weights):
        val = eval_symbol(spec, mid + half * t, x, xi)
        val *= 0.5 * w
        acc = val if acc is None else acc + val
    return acc
