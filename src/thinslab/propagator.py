"""Single thin-slab propagators: kernel application, matrices, operator norms.

One slab advances a field from depth z to z' = z + Delta through the
oscillatory kernel

    u'(x') = (1/sqrt(N)) * sum_k exp(i xi_k . x') * exp(-Delta * a(x', xi_k)) * u_hat_k,

a frequency sum with an output-point-dependent multiplier.  A slab maps
Fourier coefficients to Fourier coefficients: :func:`apply_slab` takes and
returns a :class:`thinslab.spectral.SpectralField`, so a composition of
slabs transforms once at its start and once at its end
(:func:`thinslab.ansatz.apply_ansatz`), not twice per slab.  A slab's
variant takes the symbol, each through its own ``argument`` and ``table``:
:class:`Frozen` at the slab bottom, a(slab.z, x', xi), and :class:`Averaged`
as its slab mean.  The exact evolution of an x-independent symbol is one
Averaged slab.

How a slab is taken is decided in one place, :func:`_operator`: as the
Fourier multiplier of :func:`_multiplier` when the symbol does not depend
on x, and otherwise as a band sum.  Entry [i, l] of a slab's Fourier-basis
matrix is the x-Fourier coefficient i - l (mod n per axis) of its
amplitude column exp(-Delta * a(x, xi_l)), so the slab sums the inner band
of a subgrid where that resolves to 1e-15, and else every band on all n
points: the top rung, the direct O(N^2) kernel sum.  A top-rung column
whose symbol is bitwise the same at every point is an exact Fourier
multiplier, the diagonal entry exp(-Delta * a_l) and zeros elsewhere; the
one-way lens is one outside its aperture, in 185 of 256 columns.  The
x-varying columns are summed in x, a shift of column l's spectrum by l
being its product with the lattice roots of unity omega^((j . l) mod n),
each taken at its exact integer exponent, and transformed once per slab.
A band is held as
its diagonals D[j, i] = A_(b_j)[i - b_j], entry [i, i - b_j] (mod n per
axis).  :func:`_frequency_sum` applies the result on coefficients, for
slabs and the operator a(z, x, D_x): a band through one strided view of
the coefficients with no transform, the top rung with one, to which it
adds its diagonal entries times their coefficients.
:func:`assemble_matrix` writes it down as a dense complex ndarray: a
diagonal, scattered band diagonals, or the top rung's diagonal entries and
the transforms of its x-varying columns.  So the matrix an H^s norm is
taken from is the slab the march applies.

The amplitude is built in one place, :func:`_amplitude`, on the integer
lattice of :func:`_lattice`, x = j * spacing and xi = k * 2 pi / period,
one complex exp per entry and no phase: a subgrid probe takes blocks of
64 rows, the top rung blocks of 64 input columns, so that at n = 256 each
table and its symbol temporaries stay in a core's L2 cache.  The top rung
takes a block's table of a, screens it for x-independent columns and
exponentiates the entries of its x-varying columns and one entry of each
other column, through the one in-place helper :func:`_exponentiate`.

A slab's amplitude is nearly constant in x on a thin slab, and analytic in
x for the registry's transport symbols, so its x-band is found from the
amplitude rows of a 32-point-per-axis subgrid, doubled while the band does
not resolve and the subgrid fits: 32 of 256 rows at n = 256 for a thin
slab, 128 for Delta = 1/8.  The band coefficients depend on the depth only
through one scalar p, :func:`thinslab.symbols.slab_argument`, which a
slab holds first in its ``arguments``: a march takes those of its full
slabs from one profile call over all their nodes.  One band
cell per (spec, Delta, grid) and tile [2k - 1, 2k + 1] of p holds them:
the probe of the tile's first p, then one Chebyshev series in p fitted
once over the whole tile.  A store keeps the cells of a run's keys, so a
later slab or dense matrix whose p lies in a fitted tile builds no symbol
table, no amplitude row and no FFT.  A march takes the band coefficients of
its full slabs in blocks: every full slab holds the p of the later slabs
of its block after its own, so the first slab of a block that meets a tile
fit takes one Chebyshev product for the rest of the block; any other slab
takes a product of its own.  The top rung keeps no cell.

The H^s operator norm of a matrix with no nonzero off-diagonal entry is
its largest |diagonal entry|, since the weights <xi>^s commute with it; any
other matrix is weighted with the grid's <xi>^s on both sides and gets its
largest singular value from one LAPACK singular-value computation.  Dense
matrices are capped at MATRIX_SIZE_LIMIT points, so the norm is exact and
always affordable.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field as dataclass_field
from functools import lru_cache, partial

import math

import numpy as np

from . import spectral, symbols
from .spectral import Field, Grid, SpectralField
from .symbols import SymbolSpec

MATRIX_SIZE_LIMIT = 4096

# the rows of a probe's _amplitude call and the input columns of a top-rung
# block: at n = 256 one block is a 256 KB complex table, which stays in L2
_BLOCK = 64


class SlabError(ValueError):
    """Invalid slab geometry: a slab [z, z_prime] needs 0 <= z < z_prime, of any thickness."""


class VariantError(ValueError):
    """A slab was given a variant other than Frozen or Averaged."""


class ContractViolation(ValueError):
    """An operation requiring an x-independent symbol got a general one."""


class MatrixSizeError(ValueError):
    """Dense assembly refused: grid has more points than the guard allows."""


@dataclass(frozen=True)
class Frozen:
    """Freeze the symbol at the slab bottom z; the operator a(z, x, D_x) is this rule at z."""

    def argument(self, spec: SymbolSpec, z, z_prime):
        """The :func:`thinslab.symbols.slab_argument` p at z, which may be an array."""
        return symbols.slab_argument(spec, z)

    def table(self, spec: SymbolSpec, z, z_prime, x, xi) -> np.ndarray:
        """The symbol table a(z, x, xi) at the slab bottom."""
        return symbols.eval_symbol(spec, z, x, xi)


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

    def argument(self, spec: SymbolSpec, z, z_prime):
        """The slab mean of p; z and z_prime may be arrays of slab bottoms and tops."""
        return symbols.slab_argument(spec, z, z_prime, self.quadrature_order)

    def table(self, spec: SymbolSpec, z, z_prime, x, xi) -> np.ndarray:
        """The :func:`thinslab.symbols.averaged_symbol` slab mean over [z, z_prime]."""
        return symbols.averaged_symbol(spec, z, z_prime, x, xi, self.quadrature_order)


@dataclass(frozen=True)
class SlabSpec:
    """One slab [z, z_prime] of a symbol evolution.

    ``arguments`` holds the p of the ``variant``'s ``argument``, the one
    scalar its ``table`` depends on (None when there is none), then the p of
    the later slabs of its march block, whose band coefficients one
    Chebyshev product takes.  Every construction derives it, a
    ``dataclasses.replace`` included: from ``march`` where a march passes
    them from one call, else from the slab alone.  It does not take part in
    comparisons.
    """

    z: float
    z_prime: float
    spec: SymbolSpec
    variant: object = Frozen()
    march: InitVar[tuple] = ()
    arguments: tuple = dataclass_field(init=False, compare=False)

    def __post_init__(self, march):
        if not (0.0 <= self.z < self.z_prime):
            raise SlabError(f"need 0 <= z < z_prime, got [{self.z}, {self.z_prime}]")
        if not isinstance(self.variant, (Frozen, Averaged)):
            raise VariantError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "arguments", tuple(march) or (
            self.variant.argument(self.spec, self.z, self.z_prime),))

    @property
    def thickness(self) -> float:
        return self.z_prime - self.z


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


# counts since the last reset, which the run manifest records: band sums and
# full-band sums applied, the largest subgrid size per axis a band sum took,
# and, for slab application and dense assembly alike, the top-rung columns
# taken as exact diagonal entries, the symbol-table rows _amplitude sampled,
# the band coefficients taken from a cell built earlier, the band cells that
# resolved, the probes of cell nodes, the largest Chebyshev degree of a
# resolved cell, the Chebyshev products of tile fits taken, and the LAPACK
# singular-value computations of operator_norm_hs
counters = {"band_sums": 0, "band_reuses": 0, "full_band_sums": 0, "band_points_max": 0,
            "multiplier_columns": 0, "kernel_rows": 0, "band_cells": 0, "cell_nodes": 0,
            "cell_degree_max": 0, "band_products": 0, "norm_svds": 0}


def _exponentiate(table: np.ndarray, delta: float | None) -> np.ndarray:
    """``table`` becomes exp(-delta * table) in place; ``delta`` None leaves it as it is."""
    if delta is not None:
        table *= -delta
        np.exp(table, out=table)
    return table


def _amplitude(grid: Grid, symbol, delta: float | None, rows, columns) -> np.ndarray:
    """The amplitude exp(-delta * a), a itself for ``delta`` None, on ``rows`` x ``columns``.

    ``rows`` and ``columns`` index (array or slice) the flat points and
    frequencies of :func:`_lattice`; ``symbol(x_packed, xi_packed)`` returns
    a fresh complex table of a there, which becomes the amplitude in place.
    An entry does not depend on the other rows or columns of its table.  The
    table adds its entries over the grid size, its count of full rows, to
    ``counters["kernel_rows"]``.
    """
    j, k = _lattice(grid)
    points, frequencies = j[:, rows], k[:, columns]
    x = _pack(tuple(c[:, None] for c in points * grid.spacing), grid)
    xi = _pack(tuple(c[None, :] for c in frequencies * (2.0 * np.pi / grid.period)), grid)
    table = _exponentiate(symbol(x, xi), delta)
    counters["kernel_rows"] += points.shape[1] * frequencies.shape[1] // grid.size
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

    Returns (rows, band_rows, diagonal): the subgrid's flat points in
    row-major order, the rows b mod m per axis of their FFT that hold the
    inner band |b| < m/4 per axis, b_j in row-major order, and a (bands,
    size) flat index into that FFT.  Multiplying by e^(i b . w0 x) shifts
    Fourier indices by b with wrap-around, so ``diagonal[j, i]`` holds
    A_(b_j)[(i - b_j) mod n], and modulo the size its matrix column.
    """
    n, d, size = grid.n_points, grid.dim, grid.size
    j, _ = _lattice(grid)
    rows = np.flatnonzero(np.all(j % (n // m) == 0, axis=0))
    band = np.arange(1 - m // 4, m // 4)
    b = [band[i.ravel(), None] for i in np.indices((band.size,) * d)]
    band_rows = np.ravel_multi_index(tuple(b[a][:, 0] % m for a in range(d)), (m,) * d)
    diagonal = band_rows[:, None] * size + np.ravel_multi_index(
        tuple((j[a] - b[a]) % n for a in range(d)), grid.shape)
    # int32 halves what the cache holds; every index is below m^dim * size
    layout = rows, band_rows, diagonal.astype(np.int32)
    for array in layout:
        array.flags.writeable = False
    return layout


_TOL = 1e-15                # band tails and Chebyshev tails, relative to max |amplitude|
_CELL_COEFFICIENTS = 2 ** 20    # 16 MB: the cap of one series and of the cells held


def _fits(grid: Grid, m: int) -> bool:
    """Whether a subgrid of m < n points per axis has a table of at most 2^22 entries."""
    return m < grid.n_points and m ** grid.dim * grid.size <= 2 ** 22


def _x_spectrum(table: np.ndarray, shape: tuple) -> np.ndarray:
    """The FFT over x of ``table``, its rows the points of ``shape``, in place and over their count.

    A probe takes it of its subgrid rows, the top rung of its summed kernel
    products (a slab) or of each kernel block (a dense matrix).  Each axis's
    transform scales by 1 / its length inside the transform
    (``norm="forward"``), with no further pass over the table: exact, since
    every length is a power of two, so bitwise a division by the count.
    """
    cube = table.reshape(shape + (-1,))
    for axis in range(len(shape)):
        np.fft.fft(cube, axis=axis, out=cube, norm="forward")
    return table


def _probe(grid: Grid, symbol, delta: float | None, m: int):
    """The amplitude's x-band coefficients on subgrids of m points per axis and up.

    Returns (m, inner, amplitude): the subgrid size the band resolved at, its
    (bands, size) diagonals (:func:`_band_layout`) and max |amplitude|, or
    (0, None, amplitude) when it does not resolve.  Each try builds the
    subgrid's amplitude rows, in blocks of at most ``_BLOCK``, and takes
    their FFT over x in place; the band resolves when every coefficient
    outside its inner half is at most 1e-15 of max |amplitude|.  m doubles
    while the subgrid :func:`_fits`.
    """
    amplitude = 0.0
    while _fits(grid, m):
        rows, band_rows, diagonal = _band_layout(grid, m)
        spectrum = np.empty((rows.size, grid.size), dtype=np.complex128)
        for start in range(0, rows.size, _BLOCK):
            part = slice(start, start + _BLOCK)
            spectrum[part] = _amplitude(grid, symbol, delta, rows[part], slice(None))
        amplitude = np.abs(spectrum).max()
        _x_spectrum(spectrum, (m,) * grid.dim)
        magnitude = np.abs(spectrum)
        magnitude[band_rows] = 0.0
        outer = magnitude.max()
        del magnitude                       # freed before the band is taken
        if outer <= _TOL * amplitude:
            return m, np.take(spectrum, diagonal), amplitude
        m *= 2
    return 0, None, amplitude


def _full_band(grid: Grid, symbol, delta: float | None):
    """Yield (constant, entries, columns, K) for each block of input columns: the top rung.

    Every band is kept, with no tail test.  A block takes its table of a
    from :func:`_amplitude`.  A column is x-independent when every row of it
    is bitwise its first row: an exact test on the int64 view of the real
    and imaginary parts, with no tolerance.  Such a column is an exact
    Fourier multiplier: its one entry A_l = exp(-delta * a_l), a_l itself
    with ``delta`` None, is the diagonal entry [l, l] of the slab's
    Fourier-basis matrix, and the rest of the column is zero.  ``constant``
    holds the flat indices of those columns in the block and ``entries``
    their A_l, one ``exp`` each.

    The other columns vary in x.  Entry [i, l] of the matrix is the
    x-Fourier coefficient i - l (mod n per axis) of amplitude column l, and
    by the shift theorem that is coefficient i of the column times
    omega^(j . l), omega = e^(2 pi i / n), j the point and l the column's
    position in coefficient order.  So ``K`` is the amplitude of the
    ``columns`` times omega^((j . l) mod n), the n-th root of unity at its
    exact integer exponent, and its matrix columns are :func:`_x_spectrum`
    of K: a slab sums K @ c over the blocks and takes one transform of the
    sum.  A block with no x-varying column has K None.  At n = 256 a block
    of 64 columns is a 256 KB symbol table, which stays in L2 with its
    temporaries; the one-way lens varies in x in 71 of its 256 columns.
    """
    roots = np.exp(2j * np.pi * np.arange(grid.n_points) / grid.n_points)
    for start in range(0, grid.size, _BLOCK):
        table = _amplitude(grid, symbol, None, slice(None), slice(start, start + _BLOCK))
        bits = table.view(np.int64)
        varying = (bits != bits[0]).any(axis=0).reshape(-1, 2).any(axis=1)
        constant, columns = start + np.flatnonzero(~varying), start + np.flatnonzero(varying)
        counters["multiplier_columns"] += constant.size
        entries = _exponentiate(table[0, ~varying], delta)
        # row-major, as its phase is: numpy may round a product of operands in
        # other layouts differently
        kernel = (None if columns.size == 0 else table if constant.size == 0
                  else table.compress(varying, axis=1))
        del table, bits                 # freed before the phase and the next block's table
        if kernel is not None:
            _exponentiate(kernel, delta)
            kernel *= roots.take(_exponents(grid, columns))
        yield constant, entries, columns, kernel


def _exponents(grid: Grid, columns: np.ndarray) -> np.ndarray:
    """(j . l) mod n for every point j and flat column l of ``columns``, a (size, columns) table.

    Exact integer arithmetic: the products of the n indices of an axis with
    the columns' indices on that axis, an n x columns table per axis, summed
    over the axes by broadcasting and reduced mod n in place by a bit mask,
    n being a power of two.  The table is freed once its roots are gathered.
    """
    n = grid.n_points
    products = [np.multiply.outer(np.arange(n), l) for l in np.unravel_index(columns, grid.shape)]
    exponents = products[0] if grid.dim == 1 else products[0][:, None] + products[1]
    exponents &= n - 1
    return exponents.reshape(grid.size, -1)


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
    ``m`` points per axis, as diagonals: a column permutation, which the
    fit and the product do not see.  A point cell holds the one term A_b at
    its p, ``point``; a tile fit has ``point`` None.  ``coef`` None marks a cell
    that did not resolve, with m = 0.  ``rows`` holds the A_b that a block
    product took for later slabs of a march, keyed by their p, until those
    slabs take them.
    """

    point: float | None
    m: int
    coef: np.ndarray | None
    rows: dict = dataclass_field(default_factory=dict, compare=False, repr=False)

    def bands(self, t: np.ndarray, grid: Grid) -> np.ndarray:
        """A_b at each t in [-1, 1] of a tile fit, shaped (len(t), bands, size): one T(t) @ coef.

        T_k(t) = cos(k arccos t), one vectorized cos for every row.  A row
        does not depend on the other rows of its product when there are at
        least two (numpy hands a one-row product to gemv, whose rows differ
        in their last bits), so a lone slab takes the row of ``[t, t]``.
        """
        chebyshev = np.cos(np.arange(len(self.coef)) * np.arccos(t)[:, None])
        counters["band_products"] += 1
        return _real_matmul(chebyshev, self.coef).reshape(len(t), -1, grid.size)


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


def _band_coefficients(grid: Grid, spec: SymbolSpec, delta: float | None, arguments: tuple):
    """(m, A_b) of the amplitude's x-band for a slab at argument p, from its band cell.

    ``arguments`` is p and then the p of the later slabs of its march block
    (:class:`SlabSpec`).  Returns (0, None) when the slab goes to the full
    band at once, and None when it takes its own probe: when it has no
    argument (p None), or when its cell did not resolve and is not the
    point cell of its own p (every slab of a z-independent spec takes
    p = 0).  A slab takes A_b from the band cell of its (spec, delta, grid)
    and its tile [2k - 1, 2k + 1], k = round(p / 2).  The first p of a tile
    builds the point cell of that p, the slab's own probe; a second distinct
    p replaces it by the Chebyshev fit over the whole tile, which serves
    every later p of the tile and is never refit.

    A tile fit takes A_b from the row a block product left in the cell for
    p, else from one product over the ``arguments`` in its tile, keeping the
    other rows for their slabs, or over [p, p] when p is the only one.

    :data:`_band_cell` holds a cell per key, so a march that returns to a key
    finds its cell.  A new cell goes to the end of the store's order, and
    while the cells held exceed 2^20 coefficients (16 MB), the first in that
    order go first, all but the newest.
    """
    p = arguments[0]
    if p is None:
        return None
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
    if cell.coef is None:
        return (0, None) if cell.point == p else None
    if cell.point is not None:
        return cell.m, cell.coef[0].reshape(-1, grid.size)
    band = cell.rows.pop(p, None)
    if band is None:
        block = [q for q in arguments if 2 * round(q / 2) - 1 == tile]
        t = np.array(block if len(block) > 1 else [p, p]) - (tile + 1.0)
        rows = cell.bands(t, grid)
        cell.rows.update(zip(block[1:], rows[1:]))
        band = rows[0]
    return cell.m, band


def _operator(grid: Grid, spec: SymbolSpec, delta: float | None, arguments: tuple, symbol, *args):
    """How the kernel of ``symbol(*args, x, xi)`` is taken on ``grid``: the one decision for a slab.

    Returns the :func:`_multiplier` array of an x-independent spec, the band
    ``(m, D)`` when the amplitude's x-band resolves on a subgrid, or else
    the column blocks of the :func:`_full_band`, every band kept.
    ``arguments`` starts with the slab's
    :func:`thinslab.symbols.slab_argument` p, or None, and goes on with the
    p of the later slabs of its march block (:class:`SlabSpec`); with a p,
    the amplitude's table is the spec's table at p,
    ``partial(symbols.argument_table, spec, p)``, and ``symbol`` serves only
    a multiplier.  A table is bound only on the paths that read it: a
    multiplier, a probe or the full band.

    The band comes from :func:`_band_coefficients` or from a :func:`_probe`:
    on the m^dim-point subgrid of :func:`_band_layout`, with m = 32 per axis
    doubled while the subgrid :func:`_fits`, every amplitude coefficient
    outside the inner half of the band is at most 1e-15 of the largest
    |amplitude|.  The amplitude is then band-limited to machine precision
    and the slab's samples are

        sum_b e^(i b . w0 x) * inverse(A_b * c),   |b| < m/4 per axis,

    with A_b the amplitude's x-Fourier coefficient b (w0 = 2 pi / period).
    On coefficients that is a banded map, since e^(i b . w0 x) shifts the
    index by b: output coefficient i sums A_b[i - b] * c[i - b] over the
    band, and no transform is taken.  When the band does not resolve below
    n points per axis, the top rung keeps every band on all n points.

    A slab's table depends on the depth only through p, so its A_b are an
    entire function of p for the affine-in-p profiled specs, and a constant
    for a z-independent one (p = 0).  The band cell of a (spec, delta, grid)
    and a tile of p holds them as a Chebyshev series in p
    (:func:`_build_cell`), so a later slab or matrix of that key whose p
    lies in a fitted tile takes no symbol, no amplitude row and no FFT: a
    march takes the A_b of a block of its slabs from one (degree + 1)-term
    product, and any other slab from a product of its own.  Every full slab
    of a subdivision has one thickness, so one cell per tile serves them all.
    """
    if spec.x_independent:
        return _multiplier(grid, partial(symbol, *args), delta)
    band = _band_coefficients(grid, spec, delta, arguments)
    if band is not None and band[1] is not None:
        return band
    p = arguments[0]
    table = partial(symbol, *args) if p is None else partial(symbols.argument_table, spec, p)
    m, inner = band or _probe(grid, table, delta, 32)[:2]
    return (m, inner) if inner is not None else _full_band(grid, table, delta)


def _shifts(coeffs: np.ndarray, h: int) -> np.ndarray:
    """W[j, i] = coeffs[(i - b_j) mod n per axis], b_j = j - h, j = 0 .. 2h per axis.

    A strided view, negative along the shift axes, of one copy of
    ``coeffs`` wrap-padded by h on both sides of every axis.
    """
    padded = np.concatenate((coeffs[-h:], coeffs, coeffs[:h]))
    if coeffs.ndim == 2:
        padded = np.concatenate((padded[:, -h:], padded, padded[:, :h]), axis=1)
    # a list, not a generator: tuple() shrinks a guessed tuple for one, and
    # each such 1-tuple freed stays on CPython's free list, up to 2000 of them
    strides = padded.strides
    return np.ndarray((2 * h + 1,) * coeffs.ndim + coeffs.shape, padded.dtype, padded,
                      2 * h * sum(strides), tuple([-s for s in strides]) + strides)


def _frequency_sum(c: SpectralField, operator) -> SpectralField:
    """Apply an :func:`_operator` result to coefficients ``c``, with at most one transform.

    A multiplier scales them, a band sums D[j, i] * c[i - b_j] over j in
    order, one (bands, size) product with :func:`_shifts`, and the top rung
    sums the products of its x-space column blocks with their coefficients
    and takes one :func:`_x_spectrum` of the sum, its only transform.
    """
    grid = c.grid
    if isinstance(operator, np.ndarray):
        return SpectralField(grid, c.coeffs * operator)
    if isinstance(operator, tuple):
        m, diagonals = operator
        counters["band_sums"] += 1
        counters["band_points_max"] = max(counters["band_points_max"], m)
        shifts = _shifts(c.coeffs, m // 4 - 1)
        products = (diagonals.reshape(shifts.shape) * shifts).reshape(diagonals.shape)
        return SpectralField(grid, products.sum(axis=0).reshape(grid.shape))
    coeffs = c.coeffs.ravel()
    counters["full_band_sums"] += 1
    out, diagonal = np.zeros((2, grid.size), dtype=np.complex128)
    for constant, entries, columns, kernel in operator:
        diagonal[constant] = entries
        if kernel is not None:
            out += kernel @ coeffs[columns]
    out = _x_spectrum(out, grid.shape)
    out += diagonal * coeffs
    return SpectralField(grid, out.reshape(grid.shape))


def _slab_operator(slab: SlabSpec, grid: Grid):
    """The :func:`_operator` of one slab on ``grid``, at its ``arguments``."""
    return _operator(grid, slab.spec, slab.thickness, slab.arguments, slab.variant.table,
                     slab.spec, slab.z, slab.z_prime)


def apply_slab(slab: SlabSpec, c: SpectralField) -> SpectralField:
    """Apply one thin-slab propagator (either variant) to Fourier coefficients.

    ``c`` holds the coefficients of :func:`thinslab.spectral.forward`, and so
    does the result: :func:`assemble_matrix` writes the same slab down as a matrix.
    """
    return _frequency_sum(c, _slab_operator(slab, c.grid))


def apply_symbol_operator(spec: SymbolSpec, z: float, field: Field) -> Field:
    """Apply the first-order operator a(z, x, D_x) itself: the Frozen rule at z, no exponential."""
    rule = Frozen()
    operator = _operator(field.grid, spec, None, (rule.argument(spec, z, None),), rule.table,
                         spec, z, None)
    return spectral.inverse(_frequency_sum(spectral.forward(field), operator))


def exact_multiplier_evolution(spec: SymbolSpec, z0: float, z1: float, field: Field) -> Field:
    """Exact evolution for x-independent symbols: the one Averaged slab [z0, z1].

    Multiplies each coefficient with exp(-int_z0^z1 a(s, xi_k) ds); the
    z-integral is (z1 - z0) times the :func:`thinslab.symbols.averaged_symbol`
    mean at its default order: one table for a z-independent symbol, exact
    for polynomial z-dependence of degree < 2*order otherwise.  That is
    :func:`apply_slab` of ``SlabSpec(z0, z1, spec, Averaged())``, so the
    interval is checked as a slab's: unless 0 <= z0 < z1, SlabError.
    """
    if not spec.x_independent:
        raise ContractViolation("exact_multiplier_evolution requires an x-independent symbol")
    slab = SlabSpec(z0, z1, spec, Averaged())
    return spectral.inverse(apply_slab(slab, spectral.forward(field)))


# ---------------------------------------------------------------------------
# dense matrices


def assemble_matrix(slab: SlabSpec, grid: Grid) -> np.ndarray:
    """Dense Fourier-basis matrix of one slab, a complex (size, size) ndarray.

    Entry [k, l] maps coefficient l of :func:`spectral.forward` to
    coefficient k, both in the flattened increasing-frequency order, so
    column l holds the coefficients of the slab applied to the l-th Fourier
    mode.  It writes down the :func:`_slab_operator` that :func:`apply_slab`
    applies: a multiplier as its exact diagonal matrix, a band scattered
    into the zero matrix, entry [i, i - b] = A_b[i - b] (indices mod n per
    axis), and the top rung as the :func:`_x_spectrum` of each of its
    column blocks, side by side.
    """
    if grid.size > MATRIX_SIZE_LIMIT:
        raise MatrixSizeError(
            f"grid size {grid.size} exceeds dense-assembly limit {MATRIX_SIZE_LIMIT}")
    operator = _slab_operator(slab, grid)
    size = grid.size
    if isinstance(operator, np.ndarray):
        return np.diag(operator.ravel())
    T = np.zeros((size, size), dtype=np.complex128)
    if isinstance(operator, tuple):
        m, diagonals = operator
        T[np.arange(size), _band_layout(grid, m)[2] % size] = diagonals
    else:
        for constant, entries, columns, kernel in operator:
            T[constant, constant] = entries
            if kernel is not None:
                T[:, columns] = _x_spectrum(kernel, grid.shape)
    return T


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
    counters["norm_svds"] += 1
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
    The three slabs are built first: unless 0 <= z < z_mid < z_top, one
    raises SlabError before any matrix is assembled.
    """
    slabs = (SlabSpec(z, z_top, spec, variant), SlabSpec(z, z_mid, spec, variant),
             SlabSpec(z_mid, z_top, spec, variant))
    whole, lower, upper = (assemble_matrix(slab, grid) for slab in slabs)
    return operator_norm_hs(whole - upper @ lower, grid, s)
