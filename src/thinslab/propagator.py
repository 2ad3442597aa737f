"""Single thin-slab propagators: kernel application, matrices, operator norms.

One slab advances a field from depth z to z' = z + Delta through the
oscillatory kernel

    u'(x') = (1/sqrt(N)) * sum_k exp(i xi_k . x') * exp(-Delta * a(x', xi_k)) * u_hat_k,

i.e. one FFT of the input followed by a direct O(N^2) frequency sum with an
output-point-dependent multiplier.  The symbol is either frozen at the slab
bottom, a(slab.z, x', xi), or replaced by its slab mean (Gauss-Legendre); a
z-independent symbol is its own mean and is evaluated once for either
variant.  When the symbol does not depend on x the sum collapses exactly to
a Fourier multiplier, built in one place, :func:`_multiplier`;
:func:`_frequency_sum` applies it in O(N log N) for slabs, for the operator
a(z, x, D_x) and for the exact multiplier evolution.

The kernel is built in one place, :func:`_kernel_blocks`, on blocks of
output rows, and serves slab application, the operator a(z, x, D_x) itself
and dense assembly.  Each slab entry costs one complex exp of the fused
exponent  -Delta * a + i * 2 pi ((j . k) mod n) / n,  with the phase taken
from integer index products reduced mod n, so the kernel sum matches the
FFT convention of :mod:`thinslab.spectral` to machine precision.

Dense slab matrices live in the Fourier basis.  An x-independent slab is
the diagonal matrix of its multiplier, with no kernel table and no FFT;
any other slab's kernel table is transformed once over its output points.
The H^s operator norm of a matrix with no nonzero off-diagonal entry is its
largest |diagonal entry|, since the weights <xi>^s commute with it; any
other matrix is weighted with <xi>^s on both sides and gets its largest
singular value from one LAPACK singular-value computation.  Dense matrices
are capped at MATRIX_SIZE_LIMIT points, so the norm is exact and always
affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
    declared z-bandwidth on this slab.
    """

    quadrature_order: int | None = None


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
    """Evaluate the slab's effective symbol (frozen or slab-averaged).

    A z-independent symbol is its own slab mean, so both variants evaluate
    it once, at the slab bottom.
    """
    if isinstance(slab.variant, Frozen) or slab.spec.z_independent:
        return symbols.eval_symbol(slab.spec, slab.z, x, xi)
    order = slab.variant.quadrature_order
    if order is None:
        order = symbols.recommended_quadrature_order(slab.spec, slab.thickness)
    return symbols.averaged_symbol(slab.spec, slab.z, slab.z_prime, x, xi, order)


# ---------------------------------------------------------------------------
# kernel application


def _index_meshes(grid: Grid):
    idx = np.arange(grid.n_points)
    if grid.dim == 1:
        return (idx,)
    return tuple(m.ravel() for m in np.meshgrid(idx, idx, indexing="ij"))


def _freq_index_axes(grid: Grid):
    k = np.arange(grid.n_points) - grid.n_points // 2
    if grid.dim == 1:
        return (k,)
    return tuple(m.ravel() for m in np.meshgrid(k, k, indexing="ij"))


def _flat_coords(grid: Grid):
    xs = tuple(m.ravel() for m in grid.meshes())
    xis = tuple(m.ravel() for m in grid.frequency_meshes())
    return xs, xis


def _pack(coords, grid: Grid):
    return coords[0] if grid.dim == 1 else coords


def _kernel_blocks(grid: Grid, symbol, delta: float | None):
    """Yield (rows, K) over blocks of output points; K[r, k] is a kernel entry.

    ``symbol(x_packed, xi_packed)`` returns a fresh complex (rows, n_freq)
    table, which becomes K in place.  With a thickness ``delta`` the entry is
    exp(i theta - delta * a) with theta = 2 pi ((j . k) mod n) / n, one
    complex exp per entry; with ``delta`` None it is e^(i theta) * a.  The
    1/sqrt(N) normalisation is left to the caller.
    """
    n = grid.n_points
    jesh = _index_meshes(grid)
    kesh = _freq_index_axes(grid)
    xs, xis = _flat_coords(grid)
    xif = _pack(tuple(c[None, :] for c in xis), grid)
    scale = 2.0 * np.pi / n
    for start in range(0, grid.size, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, grid.size))
        kernel = symbol(_pack(tuple(c[rows][:, None] for c in xs), grid), xif)
        turns = np.multiply.outer(jesh[0][rows], kesh[0])
        for d in range(1, grid.dim):
            turns += np.multiply.outer(jesh[d][rows], kesh[d])
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
        yield rows, kernel


def _multiplier(grid: Grid, symbol, delta: float | None) -> np.ndarray:
    """Fourier multiplier of an x-independent symbol on the frequency lattice.

    The symbol is evaluated once, at x = 0; the multiplier is
    exp(-delta * a), or a itself when ``delta`` is None.
    """
    zero_x = 0.0 if grid.dim == 1 else (0.0,) * grid.dim
    a = symbol(zero_x, _pack(grid.frequency_meshes(), grid))
    return a if delta is None else np.exp(-delta * a)


def _frequency_sum(field: Field, symbol, delta: float | None, x_independent: bool) -> Field:
    """Sum the field's Fourier coefficients against the kernel of ``symbol``.

    The general path is the direct O(N^2) sum over :func:`_kernel_blocks`.
    An x-independent symbol takes the O(N log N) path instead: its
    :func:`_multiplier` scales the field's Fourier coefficients.
    """
    grid = field.grid
    if x_independent:
        return spectral.apply_multiplier(field, _multiplier(grid, symbol, delta))
    coeffs = spectral.forward(field).coeffs.ravel()
    out = np.empty(grid.size, dtype=np.complex128)
    for rows, kernel in _kernel_blocks(grid, symbol, delta):
        out[rows] = kernel @ coeffs
    out /= np.sqrt(grid.size)
    return Field(grid, out.reshape(grid.shape))


def apply_slab(slab: SlabSpec, field: Field) -> Field:
    """Apply one thin-slab propagator (either variant) to a field."""
    return _frequency_sum(field, lambda xb, xif: _slab_symbol(slab, xb, xif),
                          slab.thickness, slab.spec.x_independent)


def apply_symbol_operator(spec: SymbolSpec, z: float, field: Field) -> Field:
    """Apply the first-order operator a(z, x, D_x) itself (no exponential)."""
    return _frequency_sum(field, lambda xb, xif: symbols.eval_symbol(spec, z, xb, xif),
                          None, spec.x_independent)


def exact_multiplier_evolution(spec: SymbolSpec, z0: float, z1: float, field: Field) -> Field:
    """Exact evolution for x-independent symbols.

    Multiplies each coefficient with exp(-int_z0^z1 a(s, xi_k) ds); the
    z-integral uses Gauss-Legendre at the recommended order for the symbol's
    z-bandwidth (exact for z-independent symbols and for polynomial
    z-dependence of degree < 2*order).
    """
    if not spec.x_independent:
        raise ContractViolation("exact_multiplier_evolution requires an x-independent symbol")
    if not (z1 > z0):
        raise SlabError(f"need z1 > z0, got [{z0}, {z1}]")
    order = symbols.recommended_quadrature_order(spec, z1 - z0)
    return _frequency_sum(
        field, lambda xb, xif: symbols.averaged_symbol(spec, z0, z1, xb, xif, order),
        z1 - z0, True)


# ---------------------------------------------------------------------------
# dense matrices


@dataclass
class PropagatorMatrix:
    """Dense matrix of a slab propagator (or any grid operator) in the Fourier basis.

    ``entries[k, l]`` maps coefficient l of :func:`spectral.forward` to
    coefficient k, both indexed in the flattened increasing-frequency order.
    """

    grid: Grid
    entries: np.ndarray

    def __post_init__(self):
        n = self.grid.size
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        if self.entries.shape != (n, n):
            raise MatrixSizeError(
                f"entries shape {self.entries.shape} does not match grid size {n}")

    def apply(self, field: Field) -> Field:
        if field.grid != self.grid:
            raise ValueError("field grid does not match matrix grid")
        coeffs = self.entries @ spectral.forward(field).coeffs.ravel()
        return spectral.inverse(SpectralField(self.grid, coeffs.reshape(self.grid.shape)))


def assemble_matrix(slab: SlabSpec, grid: Grid) -> PropagatorMatrix:
    """Dense Fourier-basis matrix of one slab.

    Column l holds the coefficients of the slab applied to the l-th Fourier
    mode.  An x-independent slab is the exact diagonal matrix of its
    :func:`_multiplier`, with every off-diagonal entry zero, built without a
    kernel table or an FFT.  Otherwise the kernel table B (output points x
    input coefficients) is built by :func:`_kernel_blocks` and transformed
    once over its output points, so the stored matrix is F B.
    """
    if grid.size > MATRIX_SIZE_LIMIT:
        raise MatrixSizeError(
            f"grid size {grid.size} exceeds dense-assembly limit {MATRIX_SIZE_LIMIT}")
    symbol = partial(_slab_symbol, slab)
    if slab.spec.x_independent:
        return PropagatorMatrix(grid, np.diag(_multiplier(grid, symbol, slab.thickness).ravel()))
    size = grid.size
    B = np.empty((size, size), dtype=np.complex128)
    for rows, kernel in _kernel_blocks(grid, symbol, slab.thickness):
        B[rows] = kernel
    axes = tuple(range(grid.dim))
    FB = np.fft.fftshift(np.fft.fftn(B.reshape(grid.shape + (size,)), axes=axes), axes=axes)
    FB /= size      # the kernel's 1/sqrt(N) times the unitary transform's; exact for N = 2^k
    return PropagatorMatrix(grid, FB.reshape(size, size))


# ---------------------------------------------------------------------------
# H^s operator norms


def operator_norm_hs(matrix: PropagatorMatrix, s: float) -> float:
    """H^s -> H^s operator norm of a dense grid operator.

    Equals the largest singular value of W T W^-1, with T the Fourier-basis
    matrix and W = diag(<xi>^s).  A T with no nonzero off-diagonal entry
    commutes with W, so its norm is max |T_kk| for every s; any other T
    gets one exact LAPACK call (singular values only).
    """
    T = matrix.entries
    diagonal = np.diagonal(T)
    if np.count_nonzero(T) == np.count_nonzero(diagonal):
        return float(np.max(np.abs(diagonal)))
    if s != 0:
        w = spectral._bracket_lattice(matrix.grid).ravel() ** s
        T = (w[:, None] * T) / w[None, :]
    return float(np.linalg.norm(T, 2))


def semigroup_defect(spec: SymbolSpec, z: float, z_mid: float, z_top: float,
                     s: float, grid: Grid, variant: object = Frozen(),
                     seed: int = 0) -> float:
    """H^s norm of  G_(z_top,z) - G_(z_top,z_mid) o G_(z_mid,z).

    Thin-slab propagators are not a semigroup: for x-dependent symbols the
    defect is strictly positive (order Delta^2), while exact multipliers
    compose exactly and the defect sits at roundoff.  ``seed`` is unused:
    the norm is exact and needs no random start vector.  It is kept so that
    callers which still pass it, such as the benchmark worker, keep working.
    """
    if not (z < z_mid < z_top):
        raise SlabError(f"need z < z_mid < z_top, got {z}, {z_mid}, {z_top}")
    whole = assemble_matrix(SlabSpec(z, z_top, spec, variant), grid)
    lower = assemble_matrix(SlabSpec(z, z_mid, spec, variant), grid)
    upper = assemble_matrix(SlabSpec(z_mid, z_top, spec, variant), grid)
    defect = whole.entries - upper.entries @ lower.entries
    return operator_norm_hs(PropagatorMatrix(grid, defect), s)
