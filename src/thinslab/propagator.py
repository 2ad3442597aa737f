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
reads.  When the symbol does not depend on x the sum collapses exactly to a
Fourier multiplier, built in one place, :func:`_multiplier`;
:func:`_frequency_sum` scales the coefficients with it for slabs, for the
operator a(z, x, D_x) and for the exact multiplier evolution.  The last two
keep samples in and out, one transform on each side.

The kernel is built in one place, :func:`_kernel_blocks`, on blocks of
output rows (every row, or a given set of them), and serves slab
application, the operator a(z, x, D_x) itself and dense assembly: the
direct sum takes its blocks one by one, and :func:`_kernel_table` gathers
them into the one table of the band probe or of a dense matrix.  It works
on the integer lattice of :func:`_lattice`, x = j * spacing and
xi = k * 2 pi / period, and each slab entry costs one complex exp of the
fused exponent  -Delta * a + i * 2 pi ((j . k) mod n) / n, with j . k an
exact integer product, so the kernel sum matches the FFT convention of
:mod:`thinslab.spectral` to machine precision.

A slab's amplitude exp(-Delta * a) is nearly constant in x on a thin slab,
and analytic in x for the registry's transport symbols.  So
:func:`_frequency_sum` first builds the kernel rows of a 32-point-per-axis
subgrid (doubled while the tail can still resolve) and takes their FFT over
x.  When the amplitude's x-Fourier band resolves there to 1e-15, the slab is
the banded map  c'_i = sum_b A_b[i - b] * c[i - b]  on coefficients (indices
mod n per axis), with no transform at all, at the cost of the subgrid rows:
32 of 256 at n = 256.  Otherwise the direct O(N^2) sum is taken over every
row, the probe's rows included, and its output samples take one forward
transform.  A depth-free
symbol has one kernel per thickness, so the band coefficients A_b of the
last such thickness are kept in a one-cell memo: later slabs of that
thickness cost the band products alone, with no symbol, no kernel row and
no FFT.  Dense assembly always builds the full kernel table.

Dense slab matrices are plain complex ndarrays in the Fourier basis.  An
x-independent slab is the diagonal matrix of its multiplier, with no kernel
table and no FFT; any other slab's kernel table is transformed once over its
output points.  The H^s operator norm of a matrix with no nonzero
off-diagonal entry is its largest |diagonal entry|, since the weights
<xi>^s commute with it; any other matrix is weighted with the grid's
<xi>^s on both sides and gets its largest singular value from one LAPACK
singular-value computation.  Dense matrices are capped at
MATRIX_SIZE_LIMIT points, so the norm is exact and always affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

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
    1..``MAX_QUADRATURE_ORDER``.  It is checked here, because a slab that
    takes its band coefficients from the memo of :func:`_frequency_sum`
    takes no slab mean.
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


# counts of the kernel sums since the last reset, which the run manifest
# records: sums on the x-band of the amplitude, those of them that took the
# band coefficients from the memo, direct sums, the largest subgrid size
# per axis that a band resolved at, and the kernel rows _kernel_blocks built
counters = {"band_sums": 0, "band_reuses": 0, "direct_sums": 0, "band_points_max": 0,
            "kernel_rows": 0}


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

    A table of at most ``_CHUNK_ROWS`` rows is its one block, not a copy.
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


# The cell of the last (spec, delta, grid) of a symbols.depth_free spec that
# :func:`_frequency_sum` took, which a new key replaces: (m, inner), the
# subgrid size its band resolved at and the band coefficients it sums with,
# or (0, None) when the band did not resolve and its slabs take the direct sum.
_band_memo: dict = {}


def reset_counts() -> None:
    """Zero :data:`counters`, the symbol-table and transform counts of
    :mod:`thinslab.symbols` and :mod:`thinslab.spectral`, and empty the band
    memo, so that the counts of what follows do not depend on what ran before."""
    for counts in (counters, symbols.counters, spectral.counters):
        counts.update(dict.fromkeys(counts, 0))
    _band_memo.clear()


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


def _frequency_sum(c: SpectralField, spec: SymbolSpec, symbol,
                   delta: float | None) -> SpectralField:
    """Sum the Fourier coefficients ``c`` against the kernel of ``symbol``.

    Coefficients in, coefficients out.  An x-independent spec takes the O(N)
    path: its :func:`_multiplier` scales the coefficients.  Any other kernel
    is first built on the m^dim-point subgrid of :func:`_band_layout`, m = 32
    per axis, and transformed over x there.  When every amplitude coefficient
    outside the inner half of that band is at most 1e-15 of the largest
    |amplitude|, the amplitude is band-limited to machine precision and the
    slab's samples are

        sum_b e^(i b . w0 x) * inverse(A_b * c),   |b| < m/4 per axis,

    with A_b the amplitude's x-Fourier coefficient b (w0 = 2 pi / period).
    On coefficients that is a banded map, since e^(i b . w0 x) shifts the
    index by b: output coefficient i sums A_b[i - b] * c[i - b] over the
    band, and no transform is taken.  Otherwise m doubles
    below n, each doubling building its whole subgrid, while a tail that
    squares with each doubling could still reach the tolerance:
    outer^(2^r) <= 1e-15 |amplitude|^(2^r), with r the doublings left.  A
    subgrid table holds at most 2^22 entries (64 MB, m = 32 on a 64^2 grid).
    When the band does not resolve, the direct O(N^2) sum is taken block by
    block over every row of :func:`_kernel_blocks`, the probe's rows included,
    and its output samples take one forward transform.

    Slabs of a :func:`thinslab.symbols.depth_free` spec share one kernel per
    (spec, delta, grid), so its first slab leaves the one cell of
    ``_band_memo``: the resolved m with its band coefficients, which later
    slabs sum with directly (no symbol, no kernel row, no FFT), or 0,
    which sends them to the direct sum at once.  A slab on another key
    replaces the cell; the studies and the one-way march apply each
    thickness of a dyadic subdivision in one contiguous run, so one cell
    serves every reuse there.  The 2^22-entry table cap bounds the cell
    below 2^21 coefficients (32 MB): a 2-D 64^2 cell takes 14.7 MB, and a
    1-D n = 256 cell at m = 128 takes 258 KB.
    """
    grid = c.grid
    if spec.x_independent:
        return SpectralField(grid, c.coeffs * _multiplier(grid, symbol, delta))
    coeffs = c.coeffs.ravel()
    tol = 1e-15
    key = (spec, delta, grid) if symbols.depth_free(spec) else None
    m, inner = _band_memo.get(key, (32, None))
    if inner is not None:
        counters["band_reuses"] += 1

    def fits(size):     # a subgrid below n whose table holds at most 2^22 entries
        return 0 < size < grid.n_points and size ** grid.dim * grid.size <= 2 ** 22

    while inner is None and fits(m):
        rows, coefficient, _ = _band_layout(grid, m)
        table = _kernel_table(grid, symbol, delta, rows)
        amplitude = np.abs(table).max()
        spectrum = np.fft.fft(table.reshape((m,) * grid.dim + (grid.size,)), axis=0)
        for axis in range(1, grid.dim):     # in place: one subgrid-sized copy
            np.fft.fft(spectrum, axis=axis, out=spectrum)
        spectrum /= m ** grid.dim           # exact: m is a power of two
        magnitude = np.abs(spectrum).ravel()
        magnitude[coefficient] = 0.0
        outer = magnitude.max()
        if outer <= tol * amplitude:
            inner = np.take(spectrum, coefficient)
            break
        left = sum(fits(m << r) for r in range(1, 23))      # doublings left
        if not (outer / amplitude) ** (2 ** left) <= tol:    # NaN fails too
            break
        m *= 2
    table = spectrum = magnitude = None     # freed before either sum allocates
    if key is not None and key not in _band_memo:
        _band_memo.clear()
        _band_memo[key] = (m, inner) if inner is not None else (0, None)
    if inner is not None:
        counters["band_sums"] += 1
        counters["band_points_max"] = max(counters["band_points_max"], m)
        shifted = np.take(inner * coeffs, _band_layout(grid, m)[2]).sum(axis=0)
        return SpectralField(grid, shifted.reshape(grid.shape))
    counters["direct_sums"] += 1
    out = np.empty(grid.size, dtype=np.complex128)
    for part, kernel in _kernel_blocks(grid, symbol, delta):
        out[part] = kernel @ coeffs
    out /= np.sqrt(grid.size)
    return spectral.forward(Field(grid, out.reshape(grid.shape)))


def apply_slab(slab: SlabSpec, c: SpectralField) -> SpectralField:
    """Apply one thin-slab propagator (either variant) to Fourier coefficients.

    ``c`` holds the coefficients of :func:`thinslab.spectral.forward`, and so
    does the result: a slab's Fourier-basis matrix is :func:`assemble_matrix`.
    """
    return _frequency_sum(c, slab.spec, partial(_slab_symbol, slab), slab.thickness)


def apply_symbol_operator(spec: SymbolSpec, z: float, field: Field) -> Field:
    """Apply the first-order operator a(z, x, D_x) itself (no exponential)."""
    return spectral.inverse(_frequency_sum(spectral.forward(field), spec,
                                           partial(symbols.eval_symbol, spec, z), None))


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
    return spectral.inverse(_frequency_sum(spectral.forward(field), spec,
                                           partial(symbols.averaged_symbol, spec, z0, z1),
                                           z1 - z0))


# ---------------------------------------------------------------------------
# dense matrices


def assemble_matrix(slab: SlabSpec, grid: Grid) -> np.ndarray:
    """Dense Fourier-basis matrix of one slab, a complex (size, size) ndarray.

    Entry [k, l] maps coefficient l of :func:`spectral.forward` to
    coefficient k, both in the flattened increasing-frequency order, so
    column l holds the coefficients of the slab applied to the l-th Fourier
    mode.  An x-independent slab is the exact diagonal matrix of its
    :func:`_multiplier`, with every off-diagonal entry zero, built without a
    kernel table or an FFT.  Otherwise the kernel table B (output points x
    input coefficients) is built by :func:`_kernel_table` and transformed
    once over its output points, so the matrix is F B.
    """
    if grid.size > MATRIX_SIZE_LIMIT:
        raise MatrixSizeError(
            f"grid size {grid.size} exceeds dense-assembly limit {MATRIX_SIZE_LIMIT}")
    symbol = partial(_slab_symbol, slab)
    if slab.spec.x_independent:
        return np.diag(_multiplier(grid, symbol, slab.thickness).ravel())
    size = grid.size
    B = _kernel_table(grid, symbol, slab.thickness).reshape(grid.shape + (size,))
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
