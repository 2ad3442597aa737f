"""Single thin-slab propagators: kernel application, matrices, operator norms.

One slab advances a field from depth z to z' = z + Delta through the
oscillatory kernel

    u'(x') = (1/sqrt(N)) * sum_k exp(i xi_k . x') * exp(-Delta * a(x', xi_k)) * u_hat_k,

a frequency sum with an output-point-dependent multiplier.  A slab maps
Fourier coefficients to Fourier coefficients: :func:`apply_slab` takes and
returns a :class:`thinslab.spectral.SpectralField`, so a composition of
slabs transforms once at its start and once at its end
(:func:`thinslab.ansatz.apply_ansatz`), not twice per slab.  The symbol is
either frozen at the slab bottom, a(slab.z, x', xi), or replaced by its slab
mean, which :func:`thinslab.symbols.averaged_symbol` takes; how the mean is
taken follows from the symbol's z-declarations, which only that function
reads.

How a slab is taken is decided in one place, :func:`_operator`: as the
Fourier multiplier of :func:`_multiplier` when the symbol does not depend
on x, as the banded map of its amplitude's x-band when that resolves to
1e-15, and otherwise as the direct O(N^2) sum.  :func:`_frequency_sum`
applies the result, for slabs, for the operator a(z, x, D_x) and for the
exact multiplier evolution (the last two keep samples in and out, one
transform on each side).  :func:`assemble_matrix` writes the same result
down as a dense Fourier-basis matrix, a plain complex ndarray: a diagonal
matrix, a scattered band, or a direct slab's kernel table transformed once
over its output points.  So the matrix an H^s norm is taken from is the
slab the march applies.

The kernel is built in one place, :func:`_kernel_blocks`, on blocks of
output rows (every row, or a given set of them): the direct sum takes its
blocks one by one, and :func:`_kernel_table` gathers them into the one
table of a band probe or of a direct slab's dense matrix.  It works on the
integer lattice of :func:`_lattice`, x = j * spacing and
xi = k * 2 pi / period, and each slab entry costs one complex exp of the
fused exponent  -Delta * a + i * 2 pi ((j . k) mod n) / n, with j . k an
exact integer product, so the kernel sum matches the FFT convention of
:mod:`thinslab.spectral` to machine precision.

A slab's amplitude exp(-Delta * a) is nearly constant in x on a thin slab,
and analytic in x for the registry's transport symbols, so its x-band is
found from the kernel rows of a 32-point-per-axis subgrid, doubled while
the band does not resolve and the subgrid fits: 32 of 256 rows at n = 256
for a thin slab, 128 for Delta = 1/8.  The band
coefficients depend on the depth only through one scalar p,
:func:`thinslab.symbols.slab_argument`.  One band cell per (spec, Delta,
grid) and tile [2k - 1, 2k + 1] of p holds them: the probe of the tile's
first p, then one Chebyshev series in p fitted once over the whole tile.
A store keeps the cells of a run's keys, so a later slab or dense matrix
whose p lies in a fitted tile builds no symbol table, no kernel row and no
FFT.

The H^s operator norm of a matrix with no nonzero off-diagonal entry is
its largest |diagonal entry|, since the weights <xi>^s commute with it; any
other matrix is weighted with the grid's <xi>^s on both sides and gets its
largest singular value from one LAPACK singular-value computation.  Dense
matrices are capped at MATRIX_SIZE_LIMIT points, so the norm is exact and
always affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import math

import numpy as np

from . import spectral, symbols
from .spectral import Field, Grid, SpectralField
from .symbols import SymbolSpec

DELTA_MAX_DEFAULT = 0.125
MATRIX_SIZE_LIMIT = 4096

_CHUNK_ROWS = 256


class SlabError(ValueError):
    """Invalid slab geometry (ordering or thickness)."""


class VariantError(ValueError):
    """A slab was given a variant other than Frozen or Averaged."""


class ContractViolation(ValueError):
    """An operation requiring an x-independent symbol got a general one."""


class MatrixSizeError(ValueError):
    """Dense assembly refused: grid has more points than the guard allows."""


@dataclass(frozen=True)
class Frozen:
    """Freeze the symbol at the slab bottom."""


@dataclass(frozen=True)
class Averaged:
    """Replace the symbol by its slab mean.

    ``quadrature_order`` of None picks an order resolving the symbol's
    declared z-bandwidth on this slab; any other order must be in
    1..``MAX_QUADRATURE_ORDER``.  It is checked here, because a slab of a
    z-independent symbol takes no slab mean: its table is the one at p = 0.
    """

    quadrature_order: int | None = None

    def __post_init__(self):
        if self.quadrature_order is not None:
            symbols.check_quadrature_order(self.quadrature_order)


@dataclass(frozen=True)
class SlabSpec:
    """One slab [z, z_prime] of a symbol evolution."""

    z: float
    z_prime: float
    spec: SymbolSpec
    variant: object = Frozen()
    delta_max: float = DELTA_MAX_DEFAULT

    def __post_init__(self):
        if not (0.0 <= self.z < self.z_prime):
            raise SlabError(f"need 0 <= z < z_prime, got [{self.z}, {self.z_prime}]")
        if self.thickness > self.delta_max * (1.0 + 1e-12):
            raise SlabError(
                f"slab too thick: {self.thickness:g} exceeds delta_max {self.delta_max:g}")
        if not isinstance(self.variant, (Frozen, Averaged)):
            raise VariantError(f"unknown variant {self.variant!r}")

    @property
    def thickness(self) -> float:
        return self.z_prime - self.z


def _slab_symbol(slab: SlabSpec, x, xi) -> np.ndarray:
    """The slab's effective symbol: its table at the slab bottom (Frozen) or
    its :func:`thinslab.symbols.averaged_symbol` slab mean (Averaged)."""
    if isinstance(slab.variant, Frozen):
        return symbols.eval_symbol(slab.spec, slab.z, x, xi)
    return symbols.averaged_symbol(slab.spec, slab.z, slab.z_prime, x, xi,
                                   slab.variant.quadrature_order)


# ---------------------------------------------------------------------------
# kernel application


def _lattice(grid: Grid):
    """Integer point indices j and frequency indices k = j - n/2, each (dim, size).

    Column r of either array is flat grid point r in row-major order, the
    order of :meth:`Grid.meshes` and :meth:`Grid.frequency_meshes` raveled.
    """
    j = np.indices(grid.shape).reshape(grid.dim, -1)
    return j, j - grid.n_points // 2


def _pack(coords, grid: Grid):
    return coords[0] if grid.dim == 1 else coords


# counts since the last reset, which the run manifest records: band and
# direct sums applied, the largest subgrid size per axis a band sum took, and,
# for slab application and dense assembly alike, the band coefficients taken
# from a cell built earlier, the kernel rows _kernel_blocks built, the band
# cells that resolved, the probes of cell nodes, and the largest Chebyshev
# degree of a resolved cell
counters = {"band_sums": 0, "band_reuses": 0, "direct_sums": 0, "band_points_max": 0,
            "kernel_rows": 0, "band_cells": 0, "cell_nodes": 0, "cell_degree_max": 0}


def _kernel_blocks(grid: Grid, symbol, delta: float | None, rows=None):
    """Yield (part, K) over blocks of output points; K[r, k] is a kernel entry.

    ``rows`` is an index array of flat output points, None every point, and
    ``part`` is the slice of ``rows`` that K's rows are.  The symbol is
    sampled at x = j * spacing and xi = k * 2 pi / period for the integer
    indices of :func:`_lattice`: ``symbol(x_packed, xi_packed)`` returns a
    fresh complex (rows, n_freq) table, which becomes K in place.  With a
    thickness ``delta`` the entry is exp(i theta - delta * a) with
    theta = 2 pi ((j . k) mod n) / n, the integer product taken exactly, one
    complex exp per entry; with ``delta`` None it is e^(i theta) * a.  An
    entry does not depend on the other rows of its block.  The 1/sqrt(N)
    normalisation is left to the caller.  Each block adds its rows to
    ``counters["kernel_rows"]``.
    """
    n = grid.n_points
    j, k = _lattice(grid)
    if rows is not None:
        j = j[:, rows]
    x = j * grid.spacing
    xif = _pack(tuple(c[None, :] for c in k * (2.0 * np.pi / grid.period)), grid)
    scale = 2.0 * np.pi / n
    for start in range(0, j.shape[1], _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        kernel = symbol(_pack(tuple(c[part, None] for c in x), grid), xif)
        turns = np.einsum("dr,dk->rk", j[:, part], k)
        turns &= n - 1                      # mod n: grid sizes are powers of two
        if delta is None:
            kernel *= np.exp(1j * scale * turns)
        else:
            # -delta * a + i * scale * turns, in place: no float table of angles
            kernel *= -delta / scale
            kernel.imag += turns
            del turns
            kernel *= scale
            np.exp(kernel, out=kernel)
        counters["kernel_rows"] += kernel.shape[0]
        yield part, kernel


def _kernel_table(grid: Grid, symbol, delta: float | None, rows=None) -> np.ndarray:
    """The (rows, size) kernel table of :func:`_kernel_blocks`, rows None every point.

    It holds a band probe's subgrid rows, or every row of a direct slab's
    dense matrix.  A table of at most ``_CHUNK_ROWS`` rows is its one block,
    not a copy.
    """
    blocks = _kernel_blocks(grid, symbol, delta, rows)
    count = grid.size if rows is None else len(rows)
    if count <= _CHUNK_ROWS:
        return next(blocks)[1]
    table = np.empty((count, grid.size), dtype=np.complex128)
    for part, kernel in blocks:
        table[part] = kernel
    return table


def _multiplier(grid: Grid, symbol, delta: float | None) -> np.ndarray:
    """Fourier multiplier of an x-independent symbol on the frequency lattice.

    The symbol is evaluated once, at x = 0; the multiplier is
    exp(-delta * a), or a itself when ``delta`` is None.
    """
    zero_x = 0.0 if grid.dim == 1 else (0.0,) * grid.dim
    a = symbol(zero_x, _pack(grid.frequency_meshes(), grid))
    return a if delta is None else np.exp(-delta * a)


# The band cells of the (spec, delta, grid, tile) keys that _operator took,
# in the order _band_coefficients inserted them.
_band_cell: dict = {}


def reset_counts() -> None:
    """Zero :data:`counters`, the symbol-table and transform counts of
    :mod:`thinslab.symbols` and :mod:`thinslab.spectral`, and empty the store
    of band cells, so that the counts of what follows do not depend on what
    ran before."""
    for counts in (counters, symbols.counters, spectral.counters):
        counts.update(dict.fromkeys(counts, 0))
    _band_cell.clear()


@lru_cache(maxsize=16)
def _band_layout(grid: Grid, m: int):
    """Read-only index arrays of the subgrid of the points whose indices are multiples of n/m.

    Returns (rows, coefficient, source): the subgrid's flat points in
    row-major order and two (bands, size) flat indices over the inner band
    |b| < m/4 per axis.  The kernel row at subgrid index s carries the phase
    e^(2 pi i s . k / m), so the FFT over s holds coefficient b of amplitude
    column k at index (b + k) mod m (``coefficient``): no phase is removed
    by arithmetic.  Multiplying by e^(i b . w0 x) shifts Fourier indices by
    b with wrap-around, so output coefficient i takes product b at index
    (i - b) mod n (``source``).
    """
    n, d, size = grid.n_points, grid.dim, grid.size
    j, k = _lattice(grid)
    rows = np.flatnonzero(np.all(j % (n // m) == 0, axis=0))
    band = np.arange(1 - m // 4, m // 4)
    b = [band[i.ravel(), None] for i in np.indices((band.size,) * d)]
    coefficient = np.ravel_multi_index(
        tuple((b[a] + k[a]) % m for a in range(d)) + (np.arange(size),), (m,) * d + (size,))
    source = np.arange(band.size ** d)[:, None] * size + np.ravel_multi_index(
        tuple((j[a] - b[a]) % n for a in range(d)), grid.shape)
    # int32 halves what the cache holds; every index is below m^dim * size
    layout = rows, coefficient.astype(np.int32), source.astype(np.int32)
    for array in layout:
        array.flags.writeable = False
    return layout


_TOL = 1e-15                # band tails and Chebyshev tails, relative to max |amplitude|
_CELL_COEFFICIENTS = 2 ** 20    # 16 MB: the cap of one series and of the cells held


def _fits(grid: Grid, m: int) -> bool:
    """Whether a subgrid of m < n points per axis has a table of at most 2^22 entries."""
    return m < grid.n_points and m ** grid.dim * grid.size <= 2 ** 22


def _probe(grid: Grid, symbol, delta: float | None, m: int):
    """The amplitude's x-band coefficients on subgrids of m points per axis and up.

    Returns (m, inner, amplitude): the subgrid size the band resolved at, its
    (bands, size) coefficients and max |amplitude|, or (0, None, amplitude)
    when it does not resolve.  Each try builds the subgrid's kernel rows and
    takes their FFT over x in place; the band resolves when every
    coefficient outside its inner half is at most 1e-15 of max |amplitude|.
    m doubles while the subgrid :func:`_fits`.
    """
    amplitude = 0.0
    while _fits(grid, m):
        rows, coefficient, _ = _band_layout(grid, m)
        spectrum = _kernel_table(grid, symbol, delta, rows)
        amplitude = np.abs(spectrum).max()
        cube = spectrum.reshape((m,) * grid.dim + (grid.size,))
        for axis in range(grid.dim):
            np.fft.fft(cube, axis=axis, out=cube)
        spectrum /= m ** grid.dim           # exact: m is a power of two
        magnitude = np.abs(spectrum).ravel()
        magnitude[coefficient] = 0.0
        outer = magnitude.max()
        del magnitude                       # freed before the band is taken
        if outer <= _TOL * amplitude:
            return m, np.take(spectrum, coefficient), amplitude
        m *= 2
    return 0, None, amplitude


@lru_cache(maxsize=8)
def _cosine_transform(degree: int) -> np.ndarray:
    """The (degree + 1)^2 matrix taking values at t_j = cos(pi j / degree) to Chebyshev coefficients.

    c_k = (2 / degree) sum_j'' f_j cos(pi j k / degree), where '' halves the
    terms j = 0 and j = degree, and c_0 and c_degree are halved as well; the
    interpolant sum_k c_k T_k(t) takes the value f_j at every t_j.
    """
    j = np.arange(degree + 1)
    transform = np.cos(np.pi * np.outer(j, j) / degree) * (2.0 / degree)
    transform[:, [0, -1]] *= 0.5
    transform[[0, -1]] *= 0.5
    transform.flags.writeable = False
    return transform


@dataclass(frozen=True)
class _Cell:
    """The band coefficients A_b of one (spec, delta, grid, tile) as a Chebyshev series in p.

    ``coef[k]`` is the (bands * size) coefficient of T_k(t), t = p - c the
    image on [-1, 1] of p in the tile [c - 1, c + 1], on the subgrid of
    ``m`` points per axis.  A point cell holds the one term A_b at its p,
    ``point``; a tile fit has ``point`` None.  ``coef`` None marks a cell
    that did not resolve, with m = 0.
    """

    point: float | None
    m: int
    coef: np.ndarray | None

    def band(self, t: float, grid: Grid) -> np.ndarray:
        """A_b at t in [-1, 1], shaped (bands, size): the one term of a point cell, else T(t) @ coef.

        T_k(t) = cos(k arccos t), one vectorized cos for the whole row.
        """
        if len(self.coef) == 1:
            return self.coef[0].reshape(-1, grid.size)
        chebyshev = np.cos(np.arange(len(self.coef)) * math.acos(t))
        return _real_matmul(chebyshev, self.coef).reshape(-1, grid.size)


def _real_matmul(real: np.ndarray, values: np.ndarray) -> np.ndarray:
    """real @ values for a real matrix or vector and complex rows, on their float view.

    A real factor scales the real and imaginary parts alike, so this is one
    real BLAS product over the interleaved pairs; numpy's mixed real-complex
    product first casts the real factor and costs several times the CPU time.
    """
    return (real @ values.view(np.float64)).view(np.complex128)


def _node_table(grid: Grid, degree: int, m: int) -> np.ndarray | None:
    """An empty table of the degree + 1 node rows on m points per axis, or None above 2^20 entries."""
    width = (m // 2 - 1) ** grid.dim * grid.size
    if (degree + 1) * width <= _CELL_COEFFICIENTS:
        return np.empty((degree + 1, width), dtype=np.complex128)
    return None


def _build_cell(grid: Grid, spec: SymbolSpec, delta: float | None, tile: int,
                point: float | None) -> _Cell:
    """The band cell of the tile [tile, tile + 2]: a point cell at ``point``, else a tile fit.

    A point cell is the slab's own :func:`_probe` of the spec's table at
    p = ``point``, a series of degree 0.  A tile fit probes the
    Chebyshev-Lobatto nodes p_j = tile + 1 + cos(pi j / degree) for degree
    8, 16 and 32 in turn, each at the spec's table at p_j.  The ladder is
    nested: the even nodes of degree 2d are the nodes of degree d, so a
    higher degree probes only its odd nodes.  A node whose band needs more
    points per axis than m raises m, and every other node of that degree is
    probed again at the new m.  The node values take the cosine transform of
    :func:`_cosine_transform`.  The fit resolves at the first degree whose
    last two coefficients are at most 1e-15 of max |amplitude|; it does not
    when a node's band does not resolve, when no degree's tail reaches that,
    or when the series would hold more than 2^20 coefficients (16 MB).
    """
    failed = _Cell(point, 0, None)
    if point is not None:
        m, inner, _ = _probe(grid, partial(symbols.argument_table, spec, point), delta, 32)
        counters["cell_nodes"] += 1
        if inner is None:
            return failed
        counters["band_cells"] += 1
        return _Cell(point, m, inner.reshape(1, -1))
    m, amplitude, values = 32, 0.0, None
    for degree in (8, 16, 32):
        coarse, values = values, _node_table(grid, degree, m)
        if values is None:
            return failed
        probed = np.zeros(degree + 1, dtype=bool)
        if coarse is not None:
            values[::2], probed[::2] = coarse, True
        del coarse          # the previous degree's table is freed
        while not probed.all():
            j = int(np.argmin(probed))
            p = tile + 1.0 + math.cos(math.pi * j / degree)
            node_m, inner, node_amplitude = _probe(
                grid, partial(symbols.argument_table, spec, p), delta, m)
            counters["cell_nodes"] += 1
            if inner is None:
                return failed
            amplitude = max(amplitude, node_amplitude)
            if node_m > m:      # every other node is probed again at this m
                m, values, probed[:] = node_m, _node_table(grid, degree, node_m), False
                if values is None:
                    return failed
            values[j], probed[j] = inner.ravel(), True
        transform = _cosine_transform(degree)
        if np.abs(_real_matmul(transform[-2:], values)).max() <= _TOL * amplitude:
            for start in range(0, values.shape[1], 1024):   # in place, one column block at a time
                block = values[:, start:start + 1024]
                block[:] = _real_matmul(transform, block)
            counters["band_cells"] += 1
            counters["cell_degree_max"] = max(counters["cell_degree_max"], degree)
            return _Cell(None, m, values)
    return failed


def _band_coefficients(grid: Grid, spec: SymbolSpec, symbol, delta: float | None, p):
    """(m, A_b) of the amplitude's x-band for a slab at argument p, or (0, None).

    A slab with no argument (p None) takes its own :func:`_probe`.  Any other
    takes A_b from the band cell of its (spec, delta, grid) and its tile
    [2k - 1, 2k + 1], k = round(p / 2).  The first p of a tile builds the
    point cell of that p, the slab's own probe; a second distinct p replaces
    it by the Chebyshev fit over the whole tile, which serves every later p
    of the tile and is never refit.  A slab whose cell did not resolve takes
    its own probe, or goes to the direct sum at once when the cell is the
    point cell of its own p (every slab of a z-independent spec takes p = 0).
    With a p, the probes take the spec's table at p, not ``symbol``.

    :data:`_band_cell` holds a cell per key, so a march that returns to a key
    finds its cell.  A new cell goes to the end of the store's order, and
    while the cells held exceed 2^20 coefficients (16 MB), the first in that
    order go first, all but the newest.
    """
    if p is None:
        return _probe(grid, symbol, delta, 32)[:2]
    tile = 2 * round(p / 2) - 1
    key = (spec, delta, grid, tile)
    cell = _band_cell.get(key)
    if cell is None or cell.point not in (p, None):
        cell = _build_cell(grid, spec, delta, tile, p if cell is None else None)
        _band_cell.pop(key, None)       # a tile fit goes last, not in its point cell's place
        _band_cell[key] = cell
        while len(_band_cell) > 1 and sum(kept.coef.size for kept in _band_cell.values()
                                          if kept.coef is not None) > _CELL_COEFFICIENTS:
            del _band_cell[next(iter(_band_cell))]      # the oldest-inserted cell
    elif cell.coef is not None:
        counters["band_reuses"] += 1
    if cell.coef is not None:
        return cell.m, cell.band(p - tile - 1.0, grid)
    if cell.point == p:
        return 0, None
    return _probe(grid, partial(symbols.argument_table, spec, p), delta, 32)[:2]


def _operator(grid: Grid, spec: SymbolSpec, symbol, delta: float | None, p):
    """How the kernel of ``symbol`` is taken on ``grid``: the one decision for a slab.

    Returns the :func:`_multiplier` array of an x-independent spec, the band
    ``(m, A_b)`` when the amplitude's x-band resolves, or else the symbol
    whose kernel the direct sum takes.  ``p`` is the slab's
    :func:`thinslab.symbols.slab_argument`, or None; with a p, the kernel's
    table is the spec's table at p, ``partial(symbols.argument_table, spec,
    p)``, and ``symbol`` serves only a multiplier.

    The band comes from :func:`_band_coefficients`: on the m^dim-point
    subgrid of :func:`_band_layout`, with m = 32 per axis doubled while the
    subgrid :func:`_fits`, every amplitude coefficient outside the inner
    half of the band is at most 1e-15 of the largest |amplitude|.  The
    amplitude is then band-limited to machine precision and the slab's
    samples are

        sum_b e^(i b . w0 x) * inverse(A_b * c),   |b| < m/4 per axis,

    with A_b the amplitude's x-Fourier coefficient b (w0 = 2 pi / period).
    On coefficients that is a banded map, since e^(i b . w0 x) shifts the
    index by b: output coefficient i sums A_b[i - b] * c[i - b] over the
    band, and no transform is taken.  When the band does not resolve, the
    direct O(N^2) sum takes every kernel row, the probe's rows built again.

    A slab's table depends on the depth only through p, so its A_b are an
    entire function of p for the affine-in-p profiled specs, and a constant
    for a z-independent one (p = 0).  The band cell of a (spec, delta, grid)
    and a tile of p holds them as a Chebyshev series in p
    (:func:`_build_cell`), so a later slab or matrix of that key whose p
    lies in a fitted tile costs at most one (degree + 1)-term matvec: no
    symbol, no kernel row, no FFT.  Every full slab of a subdivision has
    one thickness, so one cell per tile serves them all.
    """
    if spec.x_independent:
        return _multiplier(grid, symbol, delta)
    m, inner = _band_coefficients(grid, spec, symbol, delta, p)
    if inner is not None:
        return m, inner
    return symbol if p is None else partial(symbols.argument_table, spec, p)


def _frequency_sum(c: SpectralField, operator, delta: float | None) -> SpectralField:
    """Apply an :func:`_operator` result of thickness ``delta`` to coefficients ``c``.

    A multiplier scales them, a band sums A_b[i - b] * c[i - b] with no
    transform, and a direct sum's output samples take one forward transform.
    """
    grid = c.grid
    if isinstance(operator, np.ndarray):
        return SpectralField(grid, c.coeffs * operator)
    coeffs = c.coeffs.ravel()
    if isinstance(operator, tuple):
        m, inner = operator
        counters["band_sums"] += 1
        counters["band_points_max"] = max(counters["band_points_max"], m)
        shifted = np.take(inner * coeffs, _band_layout(grid, m)[2]).sum(axis=0)
        return SpectralField(grid, shifted.reshape(grid.shape))
    counters["direct_sums"] += 1
    out = np.empty(grid.size, dtype=np.complex128)
    for part, kernel in _kernel_blocks(grid, operator, delta):
        out[part] = kernel @ coeffs
    out /= np.sqrt(grid.size)
    return spectral.forward(Field(grid, out.reshape(grid.shape)))


def _slab_operator(slab: SlabSpec, grid: Grid):
    """The :func:`_operator` of one slab on ``grid``, at the slab argument p
    of its bottom (Frozen) or its mean (Averaged)."""
    bounds = (slab.z,) if isinstance(slab.variant, Frozen) else (
        slab.z, slab.z_prime, slab.variant.quadrature_order)
    p = symbols.slab_argument(slab.spec, *bounds)
    return _operator(grid, slab.spec, partial(_slab_symbol, slab), slab.thickness, p)


def apply_slab(slab: SlabSpec, c: SpectralField) -> SpectralField:
    """Apply one thin-slab propagator (either variant) to Fourier coefficients.

    ``c`` holds the coefficients of :func:`thinslab.spectral.forward`, and so
    does the result: :func:`assemble_matrix` writes the same slab down as a matrix.
    """
    return _frequency_sum(c, _slab_operator(slab, c.grid), slab.thickness)


def apply_symbol_operator(spec: SymbolSpec, z: float, field: Field) -> Field:
    """Apply the first-order operator a(z, x, D_x) itself (no exponential)."""
    operator = _operator(field.grid, spec, partial(symbols.eval_symbol, spec, z), None,
                         symbols.slab_argument(spec, z))
    return spectral.inverse(_frequency_sum(spectral.forward(field), operator, None))


def exact_multiplier_evolution(spec: SymbolSpec, z0: float, z1: float, field: Field) -> Field:
    """Exact evolution for x-independent symbols.

    Multiplies each coefficient with exp(-int_z0^z1 a(s, xi_k) ds); the
    z-integral is (z1 - z0) times the :func:`thinslab.symbols.averaged_symbol`
    mean at its default order: one table for a z-independent symbol, exact
    for polynomial z-dependence of degree < 2*order otherwise.
    """
    if not spec.x_independent:
        raise ContractViolation("exact_multiplier_evolution requires an x-independent symbol")
    if not (z1 > z0):
        raise SlabError(f"need z1 > z0, got [{z0}, {z1}]")
    operator = _operator(field.grid, spec, partial(symbols.averaged_symbol, spec, z0, z1),
                         z1 - z0, None)
    return spectral.inverse(_frequency_sum(spectral.forward(field), operator, z1 - z0))


# ---------------------------------------------------------------------------
# dense matrices


def assemble_matrix(slab: SlabSpec, grid: Grid) -> np.ndarray:
    """Dense Fourier-basis matrix of one slab, a complex (size, size) ndarray.

    Entry [k, l] maps coefficient l of :func:`spectral.forward` to
    coefficient k, both in the flattened increasing-frequency order, so
    column l holds the coefficients of the slab applied to the l-th Fourier
    mode.  It writes down the :func:`_slab_operator` that :func:`apply_slab`
    applies: a multiplier as its exact diagonal matrix; a band scattered
    into the zero matrix, entry [i, i - b] = A_b[i - b] (indices mod n per
    axis); and only a direct slab as its :func:`_kernel_table` B (output
    points x input coefficients) transformed once over its output points, F B.
    """
    if grid.size > MATRIX_SIZE_LIMIT:
        raise MatrixSizeError(
            f"grid size {grid.size} exceeds dense-assembly limit {MATRIX_SIZE_LIMIT}")
    operator = _slab_operator(slab, grid)
    size = grid.size
    if isinstance(operator, np.ndarray):
        return np.diag(operator.ravel())
    if isinstance(operator, tuple):
        m, inner = operator
        source = _band_layout(grid, m)[2]
        T = np.zeros((size, size), dtype=np.complex128)
        T[np.arange(size), source % size] = np.take(inner, source)
        return T
    B = _kernel_table(grid, operator, slab.thickness).reshape(grid.shape + (size,))
    FB = np.fft.fft(B, axis=0) if grid.dim == 1 else np.fft.fft2(B, axes=(0, 1))
    FB = FB[spectral._shift(grid.n_points, grid.dim)]    # forward's coefficient order
    FB /= size      # the kernel's 1/sqrt(N) times the unitary transform's; exact for N = 2^k
    return FB.reshape(size, size)


# ---------------------------------------------------------------------------
# H^s operator norms


def operator_norm_hs(T: np.ndarray, grid: Grid, s: float) -> float:
    """H^s -> H^s operator norm of a Fourier-basis matrix T on ``grid``.

    Equals the largest singular value of W T W^-1 with W = diag(<xi>^s),
    the grid's frequency weights.  A T with no nonzero off-diagonal entry
    commutes with W, so its norm is max |T_kk| for every s; any other T
    gets one exact LAPACK call (singular values only).
    """
    diagonal = np.diagonal(T)
    if np.count_nonzero(T) == np.count_nonzero(diagonal):
        return float(np.max(np.abs(diagonal)))
    if s != 0:
        w = spectral._bracket_lattice(grid).ravel() ** s
        T = (w[:, None] * T) / w[None, :]
    return float(np.linalg.norm(T, 2))


def semigroup_defect(spec: SymbolSpec, z: float, z_mid: float, z_top: float,
                     s: float, grid: Grid, variant: object = Frozen(),
                     seed: int = 0) -> float:
    """H^s norm of  G_(z_top,z) - G_(z_top,z_mid) o G_(z_mid,z).

    The three slabs are assembled as Fourier-basis matrices and the defect
    is the norm of  whole - upper @ lower  on ``grid``.  Thin-slab
    propagators are not a semigroup: for x-dependent symbols the defect is
    strictly positive (order Delta^2), while exact multipliers compose
    exactly and the defect sits at roundoff.  ``seed`` is unused:
    the norm is exact and needs no random start vector.  It is kept so that
    callers which still pass it, such as the benchmark worker, keep working.
    """
    if not (z < z_mid < z_top):
        raise SlabError(f"need z < z_mid < z_top, got {z}, {z_mid}, {z_top}")
    whole = assemble_matrix(SlabSpec(z, z_top, spec, variant), grid)
    lower = assemble_matrix(SlabSpec(z, z_mid, spec, variant), grid)
    upper = assemble_matrix(SlabSpec(z_mid, z_top, spec, variant), grid)
    return operator_norm_hs(whole - upper @ lower, grid, s)
