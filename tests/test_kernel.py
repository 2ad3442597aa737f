"""The fused slab kernel against a naive dense sum, in 1-d and 2-d."""

import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thinslab import oneway, propagator, symbols
from thinslab.propagator import Averaged, Frozen, SlabSpec, apply_slab, assemble_matrix
from thinslab.spectral import Field, Grid, SpectralField, forward, inverse
from thinslab.symbols import EvaluationError, SymbolSpec, get_symbol

from conftest import node_mean, random_field, rel_err, slab_samples

AP = oneway.ApertureConfig(theta1=np.pi / 12.0, theta2=np.pi * 50.0 / 180.0, tau=32.0)

SPECS = {
    "varspeed": get_symbol("varspeed"),
    "varspeed-z": get_symbol("varspeed-z"),
    "damped-varspeed": get_symbol("damped-varspeed"),
    "hoelder-z": get_symbol("hoelder-z"),
    "lens": oneway.oneway_symbol_spec(oneway.lens_medium(), AP),
}


def naive_slab(slab, field):
    """N^(-1/2) sum_k exp(i x_j . xi_k) exp(-Delta a(x_j, xi_k)) u_hat_k as one table.

    The averaged variant always runs the Gauss-Legendre quadrature here, also
    for z-independent symbols.
    """
    grid = field.grid
    xs = [m.ravel()[:, None] for m in grid.meshes()]
    xis = [m.ravel()[None, :] for m in grid.frequency_meshes()]
    x, xi = (xs[0], xis[0]) if grid.dim == 1 else (tuple(xs), tuple(xis))
    if isinstance(slab.variant, Averaged):
        order = symbols.recommended_quadrature_order(slab.spec, slab.thickness)
        a = node_mean(slab.spec, slab.z, slab.z_prime, x, xi, order)
    else:
        a = symbols.eval_symbol(slab.spec, slab.z, x, xi)
    phase = np.exp(1j * sum(xc * xic for xc, xic in zip(xs, xis)))
    table = phase * np.exp(-slab.thickness * a)
    coeffs = forward(field).coeffs.ravel()
    return (table @ coeffs / np.sqrt(grid.size)).reshape(grid.shape)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)),
       variant=st.sampled_from([Frozen(), Averaged()]),
       n=st.sampled_from([8, 16, 32, 64, 128]),
       z=st.floats(0.0, 1.0),
       delta=st.floats(1.0 / 256.0, 0.125),
       seed=st.integers(0, 2 ** 16))
def test_kernel_matches_naive_sum(name, variant, n, z, delta, seed):
    slab = SlabSpec(z, z + delta, SPECS[name], variant)
    u = random_field(Grid(n, 2 * np.pi), seed)
    assert rel_err(slab_samples(slab, u).values, naive_slab(slab, u)) < 1e-12


@pytest.mark.parametrize("name", sorted(SPECS))
def test_kernel_matches_naive_sum_over_two_row_blocks(name):
    # 512 points: a 128-point probe takes two blocks of rows, and the top
    # rung 8 blocks of input columns
    u = random_field(Grid(512, 2 * np.pi), 11)
    for variant in (Frozen(), Averaged()):
        slab = SlabSpec(0.3, 0.3 + 1.0 / 64.0, SPECS[name], variant)
        assert rel_err(slab_samples(slab, u).values, naive_slab(slab, u)) < 1e-12


def slab_symbol(slab):
    """The slab's symbol as a function of (x, xi), taken from thinslab.symbols alone:
    its table at the slab bottom (Frozen) or its slab mean (Averaged)."""
    if isinstance(slab.variant, Frozen):
        return partial(symbols.eval_symbol, slab.spec, slab.z)
    return lambda x, xi: symbols.averaged_symbol(slab.spec, slab.z, slab.z_prime, x, xi,
                                                 slab.variant.quadrature_order)


def kernel_rows(grid, symbol, delta, part):
    """Rows ``part`` of the slab kernel e^(i x . xi) * exp(-delta * a(x, xi)), a itself with
    delta None, over every frequency, with no code from propagator.

    The phase is the n-th root of unity of index (j . k) mod n, from the
    integer indices of x = j * period / n and xi = k * 2 pi / period, so the
    sum of the kernel is accurate to rounding at every n; the amplitude is
    sampled on the meshes.
    """
    n = grid.n_points
    j = np.indices(grid.shape).reshape(grid.dim, -1)
    xs = [m.ravel()[part, None] for m in grid.meshes()]
    xis = [m.ravel()[None, :] for m in grid.frequency_meshes()]
    a = symbol(xs[0], xis[0]) if grid.dim == 1 else symbol(tuple(xs), tuple(xis))
    amplitude = a if delta is None else np.exp(-delta * a)
    turns = (j[:, part].T @ (j - n // 2)) % n
    return np.exp((2j * np.pi / n) * np.arange(n))[turns] * amplitude


def direct_kernel_sum(field, symbol, delta):
    """N^(-1/2) sum_k kernel[j, k] u_hat_k over blocks of 256 output points: the direct O(N^2) sum."""
    grid = field.grid
    coeffs = forward(field).coeffs.ravel()
    out = np.empty(grid.size, dtype=np.complex128)
    for start in range(0, grid.size, 256):
        part = slice(start, start + 256)
        out[part] = kernel_rows(grid, symbol, delta, part) @ coeffs
    return (out / np.sqrt(grid.size)).reshape(grid.shape)


def operator_sum(c, spec, symbol, p):
    """The operator a(z, x, D_x) on coefficients, taken as propagator._operator decides."""
    return propagator._frequency_sum(c, propagator._operator(c.grid, spec, None, (p,), symbol))


def _planar(spec):
    """The 2-d spec whose components are the 1-d ones at (x_0, xi_0 + xi_1 / 2)."""
    unset = SymbolSpec().b1

    def planar(f):
        return lambda z, x, xi: f(z, x[0], xi[0] + 0.5 * xi[1])

    return replace(spec, **{name: planar(getattr(spec, name))
                            for name in ("b1", "b0", "c1", "c0")
                            if getattr(spec, name) is not unset})


@pytest.mark.parametrize("name", ["varspeed", "lens"])
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_table_entry_does_not_depend_on_its_block(name, dim):
    # the kernel's amplitude table comes from propagator._amplitude, which the
    # band probe calls on blocks of subgrid rows and the full band on blocks
    # of input columns: a scattered, unsorted set of rows or columns equals
    # the matching part of the full table bit for bit, and the table is the
    # amplitude exp(-Delta a) of the slab symbol, with no phase
    grid = Grid(512, 2 * np.pi) if dim == 1 else Grid(32, 2 * np.pi, dim=2)
    spec = SPECS[name] if dim == 1 else _planar(SPECS[name])
    rng = np.random.default_rng(23)
    everything = slice(None)
    for variant in (Frozen(), Averaged()):
        slab = SlabSpec(0.3, 0.3 + 1.0 / 64.0, spec, variant)
        symbol = partial(propagator._slab_symbol, slab)
        full = propagator._amplitude(grid, symbol, slab.thickness, everything, everything)
        assert full.shape == (grid.size, grid.size)
        oracle = slab_symbol(slab)
        xs = [m.ravel()[:, None] for m in grid.meshes()]
        xis = [m.ravel()[None, :] for m in grid.frequency_meshes()]
        a = oracle(xs[0], xis[0]) if dim == 1 else oracle(tuple(xs), tuple(xis))
        assert rel_err(full, np.exp(-slab.thickness * a)) < 1e-15
        for count in (37, propagator._BLOCK + 45, grid.size):
            picked = rng.permutation(grid.size)[:count]
            rows = propagator._amplitude(grid, symbol, slab.thickness, picked, everything)
            assert rows.tobytes() == full[picked].tobytes(), (variant, count)
            columns = propagator._amplitude(grid, symbol, slab.thickness, everything, picked)
            assert columns.tobytes() == full[:, picked].tobytes(), (variant, count)


def _path_taken(before):
    """The path of the one slab or operator sum since ``before``, from the kernel-sum counters.

    "cell" is a band sum that took A_b from a cell built for an earlier slab,
    "band" one that built amplitude rows: its own probe, or the nodes of a
    cell, and "full band" a sum on the top rung, every band kept.
    """
    after = propagator.counters
    sums = (after["band_sums"] + after["full_band_sums"]
            - before["band_sums"] - before["full_band_sums"])
    if sums == 0:
        return "multiplier"
    assert sums == 1
    if after["band_reuses"] > before["band_reuses"]:
        return "cell"
    return "band" if after["band_sums"] > before["band_sums"] else "full band"


# the paths the slabs of each spec take below on 1-d grids: every x-dependent
# registry spec's slabs depend on one argument p, so a later slab of a key
# takes A_b from its cell, and the lens amplitude's x-band is steep, not
# kinked, so it never resolves below n points: at n = 256, Delta = 1/64 its
# outer tail is 5.6e-4 to 1.1e-5 of the amplitude on 32 to 256 points, and a
# C-infinity damping collar leaves it unresolved too
PATHS = {
    "varspeed": {"band", "cell", "full band"}, "damped-varspeed": {"band", "cell", "full band"},
    "varspeed-z": {"band", "cell", "full band"}, "hoelder-z": {"band", "cell", "full band"},
    "lens": {"full band"}, "translation": {"multiplier"},
}

# the registry specs whose every slab resolves at n = 256, Delta <= 1/8
RESOLVED_AT_256 = {"varspeed", "varspeed-z", "damped-varspeed", "hoelder-z"}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_band_slab_matches_direct_kernel_sum(name):
    # every slab and operator sum matches the direct sum over all kernel rows
    # to 1e-13 relative, in coefficients, the first time and again from its
    # cell: on the x-band of its amplitude or on the full band
    spec = SPECS[name]
    paths = set()
    propagator._band_cell.clear()
    for n in (8, 16, 32, 64, 128, 256, 512):
        grid = Grid(n, 2 * np.pi)
        u = random_field(grid, n)
        c = forward(u)
        operator = partial(symbols.eval_symbol, spec, 0.3)
        cases = [(operator, None, partial(operator_sum, c, spec, operator,
                                          symbols.slab_argument(spec, 0.3)))]
        for k in range(3, 11):
            for variant in (Frozen(), Averaged()):
                slab = SlabSpec(0.3, 0.3 + 2.0 ** -k, spec, variant)
                cases.append((slab_symbol(slab), slab.thickness, partial(apply_slab, slab, c)))
        for symbol, delta, apply in cases:
            want = forward(Field(grid, direct_kernel_sum(u, symbol, delta))).coeffs
            for _ in range(2):
                before = dict(propagator.counters)
                got = apply().coeffs
                path = _path_taken(before)
                paths.add(path)
                assert rel_err(got, want) < 1e-13, (n, delta, path)
    assert paths == PATHS[name]


@pytest.mark.parametrize("name", sorted(PATHS))
@pytest.mark.parametrize("n, dim", [(64, 1), (256, 1), (16, 2)])
def test_slab_on_coefficients_equals_its_dense_matrix(name, n, dim):
    # apply_slab maps coefficients to coefficients, the map assemble_matrix
    # writes down: the two agree to the band test's 1e-13 relative on every
    # path, and the matrix, like the operator a(z, x, D_x), agrees with the
    # direct kernel sum to 1e-13
    spec = get_symbol("translation") if name == "translation" else SPECS[name]
    spec = spec if dim == 1 else _planar(spec)
    grid = Grid(n, 2 * np.pi, dim=dim)
    u = random_field(grid, 24)
    c = forward(u)
    operator = partial(symbols.eval_symbol, spec, 0.3)
    got = operator_sum(c, spec, operator, symbols.slab_argument(spec, 0.3)).coeffs
    assert rel_err(got, forward(Field(grid, direct_kernel_sum(u, operator, None))).coeffs) < 1e-13
    paths = set()
    propagator._band_cell.clear()
    for k in (3, 6, 10):
        for variant in (Frozen(), Averaged()):
            slab = SlabSpec(0.3, 0.3 + 2.0 ** -k, spec, variant)
            want = assemble_matrix(slab, grid) @ c.coeffs.ravel()
            direct = direct_kernel_sum(u, slab_symbol(slab), slab.thickness)
            assert rel_err(want, forward(Field(grid, direct)).coeffs) < 1e-13, (k, variant)
            propagator._band_cell.clear()   # else the slab takes the cell assembly built
            for _ in range(2):      # a band slab takes the cell the second time
                before = dict(propagator.counters)
                got = apply_slab(slab, c).coeffs.ravel()
                paths.add(_path_taken(before))
                assert rel_err(got, want) < 1e-13, (k, variant, paths)
    if dim == 2 and name != "translation":
        assert paths == {"full band"}   # 16^2 has no subgrid of 32 < n points per axis
    elif n == 256 and name in RESOLVED_AT_256:
        assert paths == {"band", "cell"}    # even Delta = 1/8 resolves on 128 points
    else:
        assert paths == PATHS[name]


def full_table_matrix(slab, grid):
    """A slab's 1-d Fourier-basis matrix without the band: the diagonal of
    exp(-Delta a) at x = 0 for an x-independent spec, else the full table of
    :func:`kernel_rows` transformed over its output points, in
    increasing-frequency order, over N."""
    symbol = slab_symbol(slab)
    if slab.spec.x_independent:
        return np.diag(np.exp(-slab.thickness * symbol(0.0, grid.frequency_meshes()[0])))
    table = kernel_rows(grid, symbol, slab.thickness, slice(None))
    return np.fft.fftshift(np.fft.fft(table, axis=0), axes=0) / grid.size


@pytest.mark.parametrize("name", symbols.available_symbols())
@pytest.mark.parametrize("n", [64, 256])
def test_dense_matrix_matches_the_full_kernel_table(name, n):
    # assemble_matrix writes down the slab the march takes: a band scattered
    # into the zero matrix, or the full band's column blocks, agrees with the
    # transformed full kernel table to 1e-13 relative, and a multiplier equals
    # its diagonal bit for bit
    spec, grid = get_symbol(name), Grid(n, 2 * np.pi)
    paths = set()
    propagator._band_cell.clear()
    for k in (3, 4, 6, 10):
        for variant in (Frozen(), Averaged()):
            slab = SlabSpec(0.3, 0.3 + 2.0 ** -k, spec, variant)
            got, want = assemble_matrix(slab, grid), full_table_matrix(slab, grid)
            operator = propagator._slab_operator(slab, grid)
            path = ("multiplier" if isinstance(operator, np.ndarray)
                    else "band" if isinstance(operator, tuple) else "full band")
            paths.add(path)
            if path == "multiplier":
                assert got.tobytes() == want.tobytes(), (k, variant)
            else:
                assert rel_err(got, want) < 1e-13, (k, variant, path)
    if spec.x_independent:
        assert paths == {"multiplier"}
    elif n == 256 and name in RESOLVED_AT_256:
        assert paths == {"band"}    # even Delta = 1/8 resolves on 128 points
    else:
        assert paths == {"band", "full band"}


def band_shift_index(shape, m):
    """(bands, size) flat index of (i - b_j) mod n per axis, b_j the inner band |b| < m/4 per
    axis in row-major order, with no code from propagator."""
    n, d = shape[0], len(shape)
    band = np.arange(1 - m // 4, m // 4)
    b = [g.ravel()[:, None] for g in np.meshgrid(*(band,) * d, indexing="ij")]
    i = np.indices(shape).reshape(d, -1)
    return np.ravel_multi_index(tuple((i[a] - b[a]) % n for a in range(d)), shape)


def gathered_band_sum(diagonals, coeffs, m):
    """The band sum as a gather: A_b by input column from the diagonals, A_(b_j)[i - b_j] =
    D[j, i], then np.take(A * c, source).sum(0), source[j, i] = j * size + (i - b_j)."""
    shifted = band_shift_index(coeffs.shape, m)
    rows = np.arange(len(diagonals))[:, None]
    inner = np.empty_like(diagonals)
    inner[rows, shifted] = diagonals
    source = rows * coeffs.size + shifted
    return np.take(inner * coeffs.ravel(), source).sum(0).reshape(coeffs.shape)


@pytest.mark.parametrize("n, dim, m", [(64, 1, 32), (128, 1, 32), (128, 1, 64)]
                         + [(256, 1, m) for m in (32, 64, 128)]
                         + [(512, 1, m) for m in (32, 64, 128, 256)]
                         + [(16, 2, 8), (64, 2, 32)])
def test_band_sum_is_bitwise_the_gather_of_its_diagonals(n, dim, m):
    # a band slab sums its diagonals D against a strided view of its
    # coefficients; the products and the order of the sum over the bands are
    # those of the gather through a (bands, size) index, bit for bit.  Every
    # subgrid the probe can take in 1-d, and at 16^2 (below the probe's first
    # subgrid, 32) the smallest band, m = 8
    grid = Grid(n, 2 * np.pi, dim=dim)
    rng = np.random.default_rng(n + m)
    shape = ((m // 2 - 1) ** dim, grid.size)
    diagonals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    got = propagator._frequency_sum(SpectralField(grid, coeffs), (m, diagonals)).coeffs
    assert got.tobytes() == gathered_band_sum(diagonals, coeffs, m).tobytes()


@pytest.mark.parametrize("n, k, m", [(64, 7, 32), (256, 10, 32), (256, 5, 64), (256, 3, 128)])
def test_dense_band_matrix_is_its_diagonals_scattered(n, k, m):
    # assemble_matrix writes the diagonals of a varspeed band slab at entry
    # [i, i - b_j] and nowhere else, and its product with coefficients is the
    # gathered band sum
    grid = Grid(n, 2 * np.pi)
    slab = SlabSpec(0.0, 2.0 ** -k, SPECS["varspeed"])
    got_m, diagonals = propagator._slab_operator(slab, grid)
    assert got_m == m
    want = np.zeros((n, n), dtype=np.complex128)
    want[np.arange(n), band_shift_index(grid.shape, m)] = diagonals
    matrix = assemble_matrix(slab, grid)
    assert matrix.tobytes() == want.tobytes()
    coeffs = forward(random_field(grid, k)).coeffs
    assert rel_err(matrix @ coeffs, gathered_band_sum(diagonals, coeffs, m)) < 1e-14


def test_two_dimensional_band_slab():
    # a 2-d x-dependent slab at 64^2 resolves on the 32^2 subgrid; its point
    # cell holds 225 x 4096 coefficients, 14.7 MB, and replaces a cell of
    # that size held for another key, so the store never holds more than one.
    # The probe transforms its 64 MB subgrid table in place, so the slab
    # peaks below 150 MB
    def b1(z, x, xi):
        return (1.0 + 0.2 * np.cos(x[0]) * np.sin(x[1])) * (xi[0] + 0.5 * xi[1])

    grid = Grid(64, 2 * np.pi, dim=2)
    spec = SymbolSpec(b1=b1, z_independent=True)
    slab = SlabSpec(0.0, 2.0 ** -10, spec)
    u = random_field(grid, 18)
    filler = propagator._Cell(0.0, 32, np.zeros((1, 225 * grid.size), dtype=np.complex128))
    propagator._band_cell.clear()
    propagator._band_cell[(spec, 2.0 ** -9, grid, -1)] = filler
    before = dict(propagator.counters)
    tracemalloc.start()
    try:
        got = slab_samples(slab, u).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150e6
    assert _path_taken(before) == "band"
    want = direct_kernel_sum(u, slab_symbol(slab), slab.thickness)
    assert rel_err(got, want) < 1e-13
    key = (spec, slab.thickness, grid, -1)
    assert list(propagator._band_cell) == [key]
    assert propagator._band_cell[key].coef.shape == filler.coef.shape
    # from its cell the slab holds one (bands, size) product, 14.7 MB, where
    # a gather of the products held two
    tracemalloc.start()
    try:
        again = slab_samples(slab, u).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert again.tobytes() == got.tobytes()


def test_two_dimensional_top_rung():
    # the planar lens at 64^2 and Delta = 1/64 does not resolve on the 32^2
    # subgrid, so its slab takes the full band, built and applied over 64
    # blocks of 64 input columns, where the 326 columns whose symbol does not
    # vary in x are exact diagonal entries: it matches the direct sum to 1e-13, keeps
    # no cell, and peaks below the 150 MB of the band slab above, though its
    # full band would be 268 MB
    grid = Grid(64, 2 * np.pi, dim=2)
    slab = SlabSpec(0.0, 1.0 / 64.0, _planar(SPECS["lens"]))
    u = random_field(grid, 31)
    propagator._band_cell.clear()
    before = dict(propagator.counters)
    tracemalloc.start()
    try:
        got = slab_samples(slab, u).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150e6
    assert _path_taken(before) == "full band"
    assert propagator.counters["kernel_rows"] - before["kernel_rows"] == 32 ** 2 + grid.size
    assert propagator.counters["multiplier_columns"] - before["multiplier_columns"] == 326
    assert propagator._band_cell[(slab.spec, slab.thickness, grid, -1)].coef is None
    assert rel_err(got, direct_kernel_sum(u, slab_symbol(slab), slab.thickness)) < 1e-13


@pytest.mark.parametrize("dim, n, delta, constant", [(1, 256, 1.0 / 64.0, 185),
                                                     (1, 256, None, 185), (2, 64, None, 326)])
def test_top_rung_multiplier_columns_match_direct_kernel_sum(dim, n, delta, constant):
    # the lens at n = 256 and the planar lens at 64^2 take the top rung with
    # x-independent columns, 185 of 256 and 326 of 4096, as exact diagonal
    # entries: a slab (Delta = 1/64) and the operator a(z, x, D_x) itself
    # (delta None) match the direct kernel sum to 1e-13.  The planar lens
    # slab is test_two_dimensional_top_rung's
    grid = Grid(n, 2 * np.pi, dim=dim)
    spec = SPECS["lens"] if dim == 1 else _planar(SPECS["lens"])
    u = random_field(grid, 59)
    propagator._band_cell.clear()
    before = dict(propagator.counters)
    if delta is None:
        got = propagator.apply_symbol_operator(spec, 0.0, u).values
        symbol = partial(symbols.eval_symbol, spec, 0.0)
    else:
        slab = SlabSpec(0.0, delta, spec)
        got = slab_samples(slab, u).values
        symbol = slab_symbol(slab)
    assert _path_taken(before) == "full band"
    assert propagator.counters["multiplier_columns"] - before["multiplier_columns"] == constant
    assert rel_err(got, direct_kernel_sum(u, symbol, delta)) < 1e-13


def test_warm_lens_top_rung_slab_builds_small_blocks():
    # a lens slab at n = 256 whose failed point cell is built takes the top
    # rung at once, in 4 blocks of 64 input columns: each block's 256 KB
    # kernel and its symbol temporaries stay in L2, and the slab sums the
    # blocks' products in x and transforms once.  It peaks at 1.07 MB by
    # tracemalloc, where a per-block FFT and skew gather peaked at 1.39 MB
    # and one block of 256 columns at 2.64 MB
    grid = Grid(256, 2 * np.pi)
    lens = oneway.oneway_symbol_spec(oneway.lens_medium(), AP)
    slab = SlabSpec(0.0, 1.0 / 64.0, lens)
    c = forward(random_field(grid, 37))
    propagator._band_cell.clear()
    first = apply_slab(slab, c)         # probes, fails and builds the point cell
    assert propagator._band_cell[(lens, slab.thickness, grid, -1)].coef is None
    before = dict(propagator.counters)
    tracemalloc.start()
    try:
        again = apply_slab(slab, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _path_taken(before) == "full band"
    assert propagator.counters["kernel_rows"] - before["kernel_rows"] == grid.size
    assert peak < 1.2e6
    assert again.coeffs.tobytes() == first.coeffs.tobytes()


def _counted_x_spectra(monkeypatch):
    """A list that grows by one entry per propagator._x_spectrum call from now on."""
    calls, transform = [], propagator._x_spectrum

    def counted(table, shape):
        calls.append(table.shape)
        return transform(table, shape)

    monkeypatch.setattr(propagator, "_x_spectrum", counted)
    return calls


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 64)])
def test_warm_top_rung_slab_takes_one_transform(dim, n, monkeypatch):
    # a top-rung slab sums the x-space kernel of each column block against
    # its coefficients and takes one FFT over x of the sum, with no
    # transform per block: 1 call where 4 blocks (1-d n = 256) or 64 blocks
    # (2-d 64^2) each took their own
    grid = Grid(n, 2 * np.pi, dim=dim)
    spec = SPECS["lens"] if dim == 1 else _planar(SPECS["lens"])
    slab = SlabSpec(0.0, 1.0 / 64.0, spec)
    c = forward(random_field(grid, 43))
    propagator._band_cell.clear()
    apply_slab(slab, c)                 # probes, fails and builds the point cell
    calls = _counted_x_spectra(monkeypatch)
    before = dict(propagator.counters)
    apply_slab(slab, c)
    assert _path_taken(before) == "full band"
    assert calls == [(grid.size,)]


def test_top_rung_matrix_transforms_each_block(monkeypatch):
    # dense assembly writes the top rung down block by block: one transform
    # of each 64-column block that holds x-varying columns, at its count of
    # them.  At n = 256 the lens varies in x in columns 93 to 163 only, 35 of
    # the second block and 36 of the third; the other two blocks are exact
    # diagonal entries and take no transform
    grid = Grid(256, 2 * np.pi)
    slab = SlabSpec(0.0, 1.0 / 64.0, SPECS["lens"])
    propagator._band_cell.clear()
    assemble_matrix(slab, grid)         # probes, fails and builds the point cell
    calls = _counted_x_spectra(monkeypatch)
    matrix = assemble_matrix(slab, grid)
    assert calls == [(grid.size, 35), (grid.size, 36)]
    c = forward(random_field(grid, 47))
    assert rel_err(matrix @ c.coeffs, apply_slab(slab, c).coeffs) < 1e-14


def test_x_independent_top_rung_columns_are_exact_diagonal_entries():
    # outside the aperture the one-way symbol is floored and its damping
    # saturated, so in 185 of the 256 columns of a lens slab (n = 256,
    # Delta = 1/64) the symbol takes the same value at every point, bit for
    # bit.  There the slab is an exact Fourier multiplier: its matrix column
    # is zero off the diagonal, its diagonal entry is bitwise np.exp(-Delta a)
    # of the symbol, and the slab maps coefficients on those columns to
    # exactly those products, with no roundoff of a transform
    grid = Grid(256, 2 * np.pi)
    slab = SlabSpec(0.0, 1.0 / 64.0, SPECS["lens"])
    x, xi = grid.meshes()[0][:, None], grid.frequency_meshes()[0][None, :]
    a = symbols.eval_symbol(slab.spec, slab.z, x, xi)
    bits = a.view(np.int64).reshape(grid.size, grid.size, 2)
    constant = np.flatnonzero((bits == bits[0]).all(axis=(0, 2)))
    assert constant.size == 185
    want = np.exp(-slab.thickness * a[0, constant])
    propagator._band_cell.clear()
    assemble_matrix(slab, grid)         # probes, fails and builds the point cell
    before = propagator.counters["multiplier_columns"]
    matrix = assemble_matrix(slab, grid)
    assert propagator.counters["multiplier_columns"] - before == 185
    columns = matrix[:, constant]
    assert columns[constant, np.arange(constant.size)].tobytes() == want.tobytes()
    columns[constant, np.arange(constant.size)] = 0.0
    assert not columns.any()
    coeffs = np.zeros(grid.size, dtype=np.complex128)
    coeffs[constant] = forward(random_field(grid, 53)).coeffs[constant]
    got = apply_slab(slab, SpectralField(grid, coeffs)).coeffs
    assert got[constant].tobytes() == (want * coeffs[constant]).tobytes()
    assert not np.delete(got, constant).any()


def _lattice_roots(shape, columns):
    """omega^((j . l) mod n) for every point j and flat column l of ``columns``, with
    no code from propagator: each phase the root of unity at its integer exponent."""
    n = shape[0]
    j = np.indices(shape).reshape(len(shape), -1)
    return np.exp(2j * np.pi * ((j.T @ j[:, columns]) % n) / n)


@pytest.mark.parametrize("shape", [(8,), (16,), (32,), (64,), (128,), (256,), (512,),
                                   (16, 16), (64, 64)])
def test_phases_are_exact_lattice_roots(shape):
    # every top-rung block is phased by the n-th roots of unity at their
    # integer exponents (j . l) mod n, each a single rounding of the exact
    # root, bitwise np.exp of 2 pi i r / n.  A unimodular symbol that varies
    # in x in every column, taken as itself (delta None), so each block is
    # the symbol times its phases, bit for bit in every block (a product of
    # row-major operands, as the block's is; numpy may round a product of
    # operands in other layouts differently)
    grid = Grid(shape[0], 2 * np.pi, dim=len(shape))
    width = min(grid.size, 64)

    def unimodular(x, xi):
        points, frequencies = (x, xi) if grid.dim > 1 else ((x,), (xi,))
        return np.exp(1j * (sum(points) + 0.5 * sum(frequencies)))

    xs = tuple(m.ravel()[:, None] for m in grid.meshes())
    xis = tuple(m.ravel()[None, :] for m in grid.frequency_meshes())
    symbol = unimodular(*((xs, xis) if grid.dim > 1 else (xs[0], xis[0])))
    starts = []
    for constant, entries, columns, kernel in propagator._full_band(grid, unimodular, None):
        assert constant.size == entries.size == 0 and columns.size == width
        want = symbol.take(columns, axis=1) * _lattice_roots(shape, columns)
        assert kernel.tobytes() == want.tobytes(), columns[0]
        starts.append(columns[0])
    assert starts == list(range(0, grid.size, width))


@pytest.mark.parametrize("points, columns", [((32,), 256), ((64,), 256), ((128,), 256),
                                             ((256,), 64), ((32, 32), 4096)])
def test_x_spectrum_is_the_transform_over_the_count(points, columns):
    # the tables _x_spectrum takes: 1-d probe tables of m subgrid rows, a
    # top-rung block of 64 input columns, and a 2-d 32^2 probe table.  Its
    # scaling inside the transform is bitwise the transform over x, axis by
    # axis in order, then divided by the number of rows
    shape = (math.prod(points), columns)
    rng = np.random.default_rng(41)
    table = np.exp(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    want = table.reshape(points + (columns,))
    for axis in range(len(points)):
        want = np.fft.fft(want, axis=axis)
    want = want.reshape(shape) / shape[0]
    got = propagator._x_spectrum(table.copy(), points)
    assert got.shape == shape
    assert got.tobytes() == want.tobytes()


def _built_rows(monkeypatch):
    """Record the flat output rows of every amplitude table that propagator builds."""
    built = []
    amplitude = propagator._amplitude

    def recording(grid, symbol, delta, rows, columns):
        built.append(np.arange(grid.size)[rows])
        return amplitude(grid, symbol, delta, rows, columns)

    monkeypatch.setattr(propagator, "_amplitude", recording)
    return built


def test_band_slab_builds_only_its_subgrid_rows(monkeypatch):
    propagator._band_cell.clear()
    built = _built_rows(monkeypatch)
    grid = Grid(256, 2 * np.pi)
    u = random_field(grid, 19)
    slab_samples(SlabSpec(0.3, 0.3 + 2.0 ** -10, get_symbol("varspeed")), u)
    assert sum(rows.size for rows in built) <= 32
    # the first lens slab probes its 32, 64 and 128 subgrid rows, in blocks
    # of at most 64 rows, and then builds all 256 on the top rung, the full
    # band in 4 blocks of 64 columns; every later one, sent there by its
    # failed cell, builds the 4 blocks of all 256 rows once.
    # The top rung is not kept in the store of band cells: the lens is
    # z-independent, so a kept full band would serve all 64 slabs of a lens
    # run, and its passes would then be shorter than the benchmark's probe
    # period (ROADMAP items 1 and 2)
    lens = oneway.oneway_symbol_spec(oneway.lens_medium(), AP)
    for k in range(3):
        built.clear()
        slab_samples(SlabSpec(k / 64.0, (k + 1) / 64.0, lens), u)
        assert [rows.size for rows in built] == ([32, 64, 64, 64] if k == 0 else []) + [256] * 4
        assert np.array_equal(built[0], propagator._band_layout(grid, 32)[0]) == (k == 0)
        assert np.array_equal(built[-1], np.arange(grid.size))
        assert propagator._band_cell[(lens, 1.0 / 64.0, grid, -1)].coef is None


def test_band_doubles_while_the_subgrid_fits():
    # varspeed at n = 256: the outer tail at Delta = 1/16 reads 9.1e-5, 8.1e-13
    # and 2.6e-16 of max|A| on 32, 64 and 128 points, and at 1/8 it reads
    # 1.4e-2, 4.1e-8 and 4.8e-16, so both resolve on 128.  Each thickness
    # keeps its own cell
    spec, grid = SPECS["varspeed"], Grid(256, 2 * np.pi)
    u = random_field(grid, 22)
    propagator._band_cell.clear()
    for k, m in ((3, 128), (4, 128), (5, 64), (10, 32)):
        slab_samples(SlabSpec(0.0, 2.0 ** -k, spec), u)
        assert list(propagator._band_cell)[-1] == (spec, 2.0 ** -k, grid, -1)
        assert propagator._band_cell[(spec, 2.0 ** -k, grid, -1)].m == m, k
    assert len(propagator._band_cell) == 4


def test_a_hoelder_slab_that_resolves_on_64_points_takes_its_band():
    # hoelder-z at n = 128, Delta = 1/16, z = 0 (p = 0.954): the outer tail
    # reads 2.8e-7 of max|A| on 32 points and 1.8e-16 on 64, so the probe
    # resolves on 64 points, though the 32-point tail squared, 7.6e-14, is
    # above 1e-15
    spec, grid = SPECS["hoelder-z"], Grid(128, 2 * np.pi)
    p = symbols.slab_argument(spec, 0.0)
    assert round(p, 3) == 0.954
    m, inner, _ = propagator._probe(grid, partial(symbols.argument_table, spec, p),
                                    1.0 / 16.0, 32)
    assert m == 64 and inner is not None


def test_a_march_that_returns_to_a_key_builds_no_cell(monkeypatch):
    # hoelder-z at n = 128: march Delta = 1/64, then 1/32, then 1/64 again.
    # Every p lies in the tile [-1, 1], so each key holds one cell, fitted
    # over the tile at its second slab.  The store keeps both keys' cells, so
    # the second 1/64 march takes every slab from its cell, with no kernel
    # row, no symbol table and no cell node, and matches the first to 1e-13
    spec, grid = SPECS["hoelder-z"], Grid(128, 2 * np.pi)
    c = forward(random_field(grid, 27))
    built = _built_rows(monkeypatch)
    propagator.reset_counts()

    def march(k):
        return [apply_slab(SlabSpec(j * 2.0 ** -k, (j + 1) * 2.0 ** -k, spec), c).coeffs
                for j in range(2 ** k)]

    first = march(6)
    march(5)
    assert list(propagator._band_cell) == [(spec, 2.0 ** -k, grid, -1) for k in (6, 5)]
    assert all(cell.coef is not None for cell in propagator._band_cell.values())
    built.clear()
    before = dict(propagator.counters)
    tables = symbols.counters["symbol_tables"]
    again = march(6)
    assert built == [] and symbols.counters["symbol_tables"] == tables
    assert propagator.counters["cell_nodes"] == before["cell_nodes"]
    assert propagator.counters["band_reuses"] - before["band_reuses"] == 64
    assert max(rel_err(a, b) for a, b in zip(again, first)) < 1e-13


def test_a_slab_from_its_cell_binds_no_table(monkeypatch):
    # a slab that takes its band coefficients from a cell reads no table, so
    # _operator binds neither the spec's table at p nor the slab's symbol: a
    # point cell (varspeed, p = 0) and a tile fit (hoelder-z, fitted at the
    # second slab) alike.  With functools.partial gone, the slabs still run
    grid = Grid(128, 2 * np.pi)
    c = forward(random_field(grid, 5))
    for name in ("varspeed", "hoelder-z"):
        slabs = [SlabSpec(j / 64, (j + 1) / 64, SPECS[name]) for j in range(4)]
        propagator.reset_counts()
        first = [apply_slab(slab, c).coeffs for slab in slabs]
        with monkeypatch.context() as patch:
            patch.setattr(propagator, "partial", None)
            again = [apply_slab(slab, c).coeffs for slab in slabs]
        assert propagator.counters["band_reuses"] == {"varspeed": 7, "hoelder-z": 6}[name]
        assert max(rel_err(a, b) for a, b in zip(again, first)) < 1e-13


def test_the_store_drops_its_oldest_cells_and_keeps_the_newest(monkeypatch):
    # three filler cells of 400000 coefficients each, then a varspeed point
    # cell of 15 x 256: the store exceeds 2^20 coefficients and drops the
    # oldest filler alone.  Below a budget that the newest cell alone
    # exceeds, the store keeps that cell and drops every other
    spec, grid = SPECS["varspeed"], Grid(256, 2 * np.pi)
    u = random_field(grid, 28)
    fillers = [(spec, 2.0 ** -k, grid, -1) for k in (3, 4, 5)]
    propagator.reset_counts()
    for key in fillers:
        propagator._band_cell[key] = propagator._Cell(
            0.0, 32, np.zeros((1, 400000), dtype=np.complex128))
    slab_samples(SlabSpec(0.0, 2.0 ** -10, spec), u)
    newest = (spec, 2.0 ** -10, grid, -1)
    assert list(propagator._band_cell) == fillers[1:] + [newest]
    assert propagator._band_cell[newest].coef.size == 15 * 256
    monkeypatch.setattr(propagator, "_CELL_COEFFICIENTS", 1000)
    slab_samples(SlabSpec(0.0, 2.0 ** -9, spec), u)
    assert list(propagator._band_cell) == [(spec, 2.0 ** -9, grid, -1)]


def _apply_against_direct_sum(slab, u, c):
    """Apply ``slab`` to c = forward(u), check it against the direct kernel sum, return its path."""
    before = dict(propagator.counters)
    got = apply_slab(slab, c).coeffs
    path = _path_taken(before)
    want = forward(Field(u.grid, direct_kernel_sum(u, slab_symbol(slab), slab.thickness))).coeffs
    assert rel_err(got, want) < 1e-13, (slab, path)
    return path


@pytest.mark.parametrize("name", ["hoelder-z", "varspeed-z"])
@pytest.mark.parametrize("n", [64, 128])
def test_parametric_cell_slabs_match_direct_kernel_sum(name, n):
    # z-profiled slabs of twelve depths per Delta, both variants in turn, as a
    # study marches them: a slab that takes A_b from a Chebyshev series in p
    # (degree > 0) matches the direct kernel sum to 1e-13 relative, and so does
    # every other path.  Every p lies in the tile [-1, 1]: its second distinct
    # p fits the tile once, and every later slab of the key takes that fit.
    # At Delta = 1/8 and 1/16 no x-band resolves on fewer than n points, so
    # those slabs take the full band
    spec, grid = SPECS[name], Grid(n, 2 * np.pi)
    u = random_field(grid, 25)
    c = forward(u)
    propagator.reset_counts()
    parametric, fits = {}, {}
    for k in (3, 4, 6, 10):
        delta = 2.0 ** -k
        for j in np.unique(np.linspace(0, 2 ** k - 1, 12).astype(int)):
            for variant in (Frozen(), Averaged()):
                slab = SlabSpec(j * delta, (j + 1) * delta, spec, variant)
                path = _apply_against_direct_sum(slab, u, c)
                cell = propagator._band_cell[(spec, delta, grid, -1)]
                if cell.point is None:
                    assert fits.setdefault(k, cell) is cell     # never refit
                if path in ("band", "cell") and cell.coef is not None and len(cell.coef) > 1:
                    parametric[k] = parametric.get(k, 0) + 1
    assert parametric[10] == 23         # every slab but the first, whose cell is its point
    if n == 128:
        assert parametric[6] > 0        # Delta = 1/64 resolves only on 64 points
    assert propagator.counters["cell_degree_max"] in (8, 16, 32)


# p = 10 z scales the x-variation of the speed: at n = 64 and Delta = 1/1024
# a slab's x-band resolves on 32 points up to p = 10.5, and not at 10.95 or 11
TENFOLD = SymbolSpec(b1=lambda p, x, xi: (1.0 + 0.3 * p * np.cos(x)) * xi,
                     z_bandwidth=1.0, z_profile=lambda z: 10.0 * z)


def test_a_cell_that_does_not_resolve_falls_back_to_the_slab_probe():
    # TENFOLD at n = 64 and Delta = 1/1024.  In the tile [-1, 1], z = 0
    # builds the point cell of p = 0, z = Delta fits the tile, and z = 2 Delta
    # takes that fit.  In the tile [9, 11], z = 1 builds the point cell of
    # p = 10 and z = 1.02 the tile fit, whose first node, p = 11, does not
    # resolve.  So that slab, z = 1 again and z = 1.095 take their own probe:
    # a band sum where it resolves, else the full band
    spec, grid, delta = TENFOLD, Grid(64, 2 * np.pi), 2.0 ** -10
    u = random_field(grid, 26)
    c = forward(u)
    propagator.reset_counts()
    paths = [_apply_against_direct_sum(SlabSpec(z, z + delta, spec), u, c)
             for z in (0.0, delta, 2 * delta, 1.0, 1.02, 1.0, 1.095)]
    assert paths == ["band", "band", "cell", "band", "band", "band", "full band"]
    failed = propagator._band_cell[(spec, delta, grid, 9)]
    assert failed.point is None and failed.coef is None
    assert len(propagator._band_cell[(spec, delta, grid, -1)].coef) > 1
    assert propagator.counters["band_sums"] == 6 and propagator.counters["band_reuses"] == 1


def test_a_tile_fit_whose_node_table_outgrows_the_cap_gives_up(monkeypatch):
    # hoelder-z at n = 128, Delta = 1/32: the tile fit's nodes resolve on 64
    # points.  Under a cap that holds the degree-8 node table on 32 points
    # (9 x 15 x 128 coefficients) but not on 64 (9 x 31 x 128), the fit
    # enters the ladder at m = 32, gives up when a node raises m to 64, and
    # marks its tile as not resolved.  So every later slab of the key takes
    # its own probe, and each matches the direct kernel sum to 1e-13
    spec, grid, delta = SPECS["hoelder-z"], Grid(128, 2 * np.pi), 2.0 ** -5
    u = random_field(grid, 31)
    c = forward(u)
    tables, node_table = [], propagator._node_table

    def recording(grid, degree, m):
        table = node_table(grid, degree, m)
        tables.append((degree, m, table is not None))
        return table

    monkeypatch.setattr(propagator, "_node_table", recording)
    monkeypatch.setattr(propagator, "_CELL_COEFFICIENTS", 9 * 15 * 128)
    propagator.reset_counts()
    paths = [_apply_against_direct_sum(SlabSpec(j * delta, (j + 1) * delta, spec), u, c)
             for j in range(4)]
    assert tables == [(8, 32, True), (8, 64, False)]
    failed = propagator._band_cell[(spec, delta, grid, -1)]
    assert failed.point is None and failed.coef is None
    assert paths == ["band"] * 4 and propagator.counters["band_reuses"] == 0
    assert propagator.counters["band_points_max"] == 64


def test_a_profile_that_crosses_tiles_fits_each_tile_once(monkeypatch):
    # TENFOLD at n = 64 and Delta = 1/1024, slabs every 5 Delta from z = 0 to
    # 0.35, both variants: p = 10 z, or its slab mean, crosses the tiles
    # [-1, 1], [1, 3] and [3, 5], and each is fitted once.  The march back
    # re-enters every tile, takes every slab from a fit and probes no node.
    # Every slab matches the direct kernel sum to 1e-13
    spec, grid, delta = TENFOLD, Grid(64, 2 * np.pi), 2.0 ** -10
    u = random_field(grid, 29)
    c = forward(u)
    built, build = [], propagator._build_cell

    def recording(grid, spec, delta, tile, point):
        built.append((tile, point))
        return build(grid, spec, delta, tile, point)

    monkeypatch.setattr(propagator, "_build_cell", recording)
    propagator.reset_counts()
    slabs = [SlabSpec(j * delta, (j + 1) * delta, spec, variant)
             for j in range(0, 360, 5) for variant in (Frozen(), Averaged())]
    for slab in slabs:
        _apply_against_direct_sum(slab, u, c)
    assert [tile for tile, point in built if point is None] == [-1, 1, 3]
    assert all(len(cell.coef) > 1 for cell in propagator._band_cell.values())
    built.clear()
    nodes = propagator.counters["cell_nodes"]
    assert {_apply_against_direct_sum(slab, u, c) for slab in reversed(slabs)} == {"cell"}
    assert built == [] and propagator.counters["cell_nodes"] == nodes


def test_a_dense_matrix_next_to_a_march_takes_the_march_cell():
    # hoelder-z at n = 128: the averaged march at Delta = 1/512 fits the tile
    # [-1, 1] from slab means of p below 0.92.  The norm sweep's frozen matrix
    # at z = 0, p = 0.954, lies in the same tile: it probes no cell node and
    # builds no kernel row, and it matches the full transformed kernel table
    # to 1e-13.  A cell fitted only over the march's p took 17 node probes here
    spec, grid, delta = SPECS["hoelder-z"], Grid(128, 2 * np.pi), 2.0 ** -9
    c = forward(random_field(grid, 30))
    propagator.reset_counts()
    for j in range(512):
        apply_slab(SlabSpec(j * delta, (j + 1) * delta, spec, Averaged()), c)
    before = dict(propagator.counters)
    slab = SlabSpec(0.0, delta, spec)
    got = assemble_matrix(slab, grid)
    for name in ("cell_nodes", "kernel_rows"):
        assert propagator.counters[name] == before[name], name
    assert propagator.counters["band_reuses"] == before["band_reuses"] + 1
    assert rel_err(got, full_table_matrix(slab, grid)) < 1e-13


def _counted_symbol(monkeypatch):
    """Record the argument p of every symbol table, symbols.argument_table."""
    calls = []
    original = symbols.argument_table

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(symbols, "argument_table", counting)
    return calls


@pytest.mark.parametrize("name", ["varspeed", "damped-varspeed"])
def test_band_memo_slab_equals_the_probed_slab(name, monkeypatch):
    # a depth-free slab whose band resolved leaves its coefficients in its
    # point cell: the next slab on that (spec, Delta, grid) equals it bytewise
    # and takes no symbol and no amplitude row; one that fell back takes the
    # full band again, bytewise equal too
    spec, grid = SPECS[name], Grid(256, 2 * np.pi)
    u = random_field(grid, 20)
    built, calls = _built_rows(monkeypatch), _counted_symbol(monkeypatch)
    for k in range(3, 11):
        for variant in (Frozen(), Averaged()):
            propagator._band_cell.clear()
            slab = SlabSpec(0.5, 0.5 + 2.0 ** -k, spec, variant)
            first = slab_samples(slab, u).values
            probed = propagator._band_cell[(spec, slab.thickness, grid, -1)].coef is not None
            built.clear()
            calls.clear()
            before = dict(propagator.counters)
            again = slab_samples(slab, u).values
            assert again.tobytes() == first.tobytes(), (k, variant)
            reused = propagator.counters["band_reuses"] - before["band_reuses"]
            assert reused == probed
            if probed:
                assert calls == [] and built == []
            else:
                assert sum(rows.size for rows in built) == grid.size


def test_invalid_quadrature_order_raises_on_a_filled_memo_cell():
    spec, grid = SPECS["varspeed"], Grid(256, 2 * np.pi)
    u = random_field(grid, 21)
    propagator._band_cell.clear()
    slab_samples(SlabSpec(0.0, 2.0 ** -6, spec, Frozen()), u)
    assert propagator._band_cell[(spec, 2.0 ** -6, grid, -1)].coef is not None
    for order in (0, symbols.MAX_QUADRATURE_ORDER + 1):
        with pytest.raises(ValueError, match="quadrature_order must be in 1..1024"):
            slab_samples(SlabSpec(0.0, 2.0 ** -6, spec, Averaged(order)), u)


def test_z_independent_averaged_equals_frozen(grid64):
    u = random_field(grid64, 12)
    for name in ("varspeed", "damped-varspeed", "lens"):
        spec = SPECS[name]
        assert spec.z_independent
        frozen = slab_samples(SlabSpec(0.2, 0.3, spec, Frozen()), u)
        averaged = slab_samples(SlabSpec(0.2, 0.3, spec, Averaged()), u)
        assert rel_err(averaged.values, frozen.values) < 1e-13


def test_z_independent_averaged_evaluates_once(grid64, monkeypatch):
    # the table is taken at the one argument p = 0 of a depth-free spec, never
    # at the Gauss nodes, on distinct rows per build: a slab that falls back
    # probes its 32 subgrid rows and then builds every row, one that resolves
    # only the probe
    calls = []
    original = symbols.argument_table

    def counting(*args, **kwargs):
        calls.append((args[1], np.ravel(args[2])))
        return original(*args, **kwargs)

    monkeypatch.setattr(symbols, "argument_table", counting)
    propagator._band_cell.clear()
    for thickness, sizes in ((0.1, [32, grid64.size]), (2.0 ** -10, [32])):
        calls.clear()
        slab = SlabSpec(0.2, 0.2 + thickness, get_symbol("varspeed"), Averaged())
        slab_samples(slab, random_field(grid64, 13))
        assert [p for p, _ in calls] == [0.0] * len(calls)
        assert [x.size for _, x in calls] == [np.unique(x).size for _, x in calls] == sizes


def _counted_components(spec):
    """The spec with each set component wrapped to count its calls, and the counts."""
    calls = {}

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    unset = SymbolSpec().b1
    parts = {name: counted(name, getattr(spec, name)) for name in ("b1", "b0", "c1", "c0")
             if getattr(spec, name) is not unset}
    calls.update(dict.fromkeys(parts, 0))
    return replace(spec, **parts), calls


@pytest.mark.parametrize("name", ["varspeed", "damped-varspeed", "translation", "halfwave",
                                  "damped", "lens"])
def test_z_independent_mean_is_the_table_at_the_slab_bottom(name):
    spec = SPECS["lens"] if name == "lens" else get_symbol(name)
    assert spec.z_independent
    counted, calls = _counted_components(spec)
    x, xi, z0, z1 = symbols.LATTICE_X, symbols.LATTICE_XI, 0.3, 0.3 + 1.0 / 16.0
    got = symbols.averaged_symbol(counted, z0, z1, x, xi)
    assert calls == dict.fromkeys(calls, 1)
    frozen = symbols.eval_symbol(spec, z0, x, xi)
    assert got.shape == frozen.shape and got.tobytes() == frozen.tobytes()
    want = node_mean(spec, z0, z1, x, xi, symbols.recommended_quadrature_order(spec, z1 - z0))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    for order in (0, symbols.MAX_QUADRATURE_ORDER + 1):
        with pytest.raises(ValueError):
            symbols.averaged_symbol(spec, z0, z1, x, xi, order)
    if spec.x_independent:
        # the exact reference takes the same shortcut: one table, not one per node
        calls.update(dict.fromkeys(calls, 0))
        u = random_field(Grid(64, 2 * np.pi), 17)
        propagator.exact_multiplier_evolution(counted, z0, z1, u)
        assert calls == dict.fromkeys(calls, 1)


@pytest.mark.parametrize("dim", [1, 2])
def test_profiled_averaged_slab_evaluates_each_component_once(dim):
    calls = dict.fromkeys(("b1", "b0", "c1", "c0", "z_profile"), 0)
    arguments, points = [], {}

    def first(c):
        return c[0] if dim == 2 else c

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            if name != "z_profile":
                arguments.append(float(args[0]))
                flat = np.ravel_multi_index(
                    tuple(np.rint(np.ravel(c) / grid.spacing).astype(int)
                          for c in (args[1] if dim == 2 else (args[1],))), grid.shape)
                points.setdefault(name, []).append(flat)
            return f(*args)
        return wrapped

    parts = {
        "b1": lambda p, x, xi: (1.0 + 0.3 * p * np.cos(first(x))) * first(xi),
        "b0": lambda p, x, xi: p * np.sin(first(x)) + 0.0 * first(xi),
        "c1": lambda p, x, xi: (1.0 + 0.1 * p) * symbols.smoothed_abs(first(xi))
                               + 0.0 * first(x),
        "c0": lambda p, x, xi: 0.1 * p + 0.0 * (first(x) + first(xi)),
    }

    def profile(z):
        return symbols.weierstrass(z, 0.5)

    def of_z(f):
        return lambda z, x, xi: f(profile(z), x, xi)

    spec = SymbolSpec(**{name: counted(name, f) for name, f in parts.items()},
                      z_bandwidth=symbols.weierstrass_bandwidth(),
                      z_profile=counted("z_profile", profile))
    # the same symbol as a plain function of z, whose mean takes the node loop
    plain = SymbolSpec(**{name: of_z(f) for name, f in parts.items()},
                       z_bandwidth=symbols.weierstrass_bandwidth())
    grid = Grid(64, 2 * np.pi) if dim == 1 else Grid(8, 2 * np.pi, dim=2)
    assert grid.size <= propagator._BLOCK          # one block of output points
    u = random_field(grid, 16)
    got = slab_samples(SlabSpec(0.3, 0.3 + 1.0 / 16.0, spec, Averaged()), u).values
    # the slab takes one profile call for the mean of p, and the components
    # take only that one mean, on the same rows: the band subgrid's if the
    # slab probes it, then every output row in one block
    assert calls.pop("z_profile") == 1
    builds = calls["b1"]
    assert builds <= 2
    assert len(set(arguments)) == 1
    assert sorted(points) == sorted(calls)
    built = [np.arange(grid.size)]
    if builds == 2:
        built.insert(0, propagator._band_layout(grid, 32)[0])
    for name, xs in points.items():
        assert len(xs) == builds
        assert all(np.array_equal(x, rows) for x, rows in zip(xs, built)), name
    want = naive_slab(SlabSpec(0.3, 0.3 + 1.0 / 16.0, plain, Averaged()), u)
    assert rel_err(got, want) < 1e-12


def test_nan_component_named_through_slab(grid64):
    # z-dependent, so the averaged variant runs the slab quadrature
    spec = SymbolSpec(b1=lambda z, x, xi: (1.0 + 0.5 * z) * np.cos(x) * xi,
                      c0=lambda z, x, xi: np.where(xi > 3.0, np.nan, 0.0) + 0.0 * x,
                      z_bandwidth=1.0)
    for variant in (Frozen(), Averaged()):
        with pytest.raises(EvaluationError) as err:
            slab_samples(SlabSpec(0.0, 0.1, spec, variant), random_field(grid64, 14))
        assert "'c0'" in str(err.value)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_two_dimensional_slab_with_unset_components(n):
    # only b1 is set: the table must take the 2-d coordinate shape
    def b1(z, x, xi):
        return (1.0 + 0.2 * np.cos(x[0]) * np.sin(x[1])) * (xi[0] + 0.5 * xi[1])

    grid = Grid(n, 2 * np.pi, dim=2)
    slab = SlabSpec(0.0, 1.0 / 16.0, SymbolSpec(b1=b1, z_independent=True))
    u = random_field(grid, 15)
    got = slab_samples(slab, u).values
    assert rel_err(got, naive_slab(slab, u)) < 1e-12
    coeffs = assemble_matrix(slab, grid) @ forward(u).coeffs.ravel()
    assert rel_err(got, inverse(SpectralField(grid, coeffs.reshape(grid.shape))).values) < 1e-12


@pytest.mark.parametrize("n", [8, 16])
def test_two_dimensional_multiplier_fast_path(n):
    # x-independent: apply_slab takes the Fourier-multiplier path, not the kernel sum
    def b1(z, x, xi):
        return xi[0] + 0.5 * xi[1]

    def c1(z, x, xi):
        return 0.1 * np.sqrt(xi[0] ** 2 + xi[1] ** 2)

    grid = Grid(n, 2 * np.pi, dim=2)
    spec = SymbolSpec(b1=b1, c1=c1, x_independent=True, z_independent=True)
    u = random_field(grid, 16)
    for variant in (Frozen(), Averaged()):
        slab = SlabSpec(0.2, 0.2 + 1.0 / 16.0, spec, variant)
        got = slab_samples(slab, u).values
        assert rel_err(got, naive_slab(slab, u)) < 1e-12
        exact = propagator.exact_multiplier_evolution(spec, slab.z, slab.z_prime, u)
        assert rel_err(got, exact.values) < 1e-12
