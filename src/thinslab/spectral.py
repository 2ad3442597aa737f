"""Periodic grids, unitary DFTs, Sobolev norms and frequency-weight operators.

Conventions
-----------
The spatial domain is the torus [0, period) sampled at ``n`` equispaced
points per axis, ``x_j = j * period / n``.  The matching frequency lattice is

    xi_k = 2*pi*k / period,   k = -n/2, ..., n/2 - 1,

stored in increasing-k order (fftshift layout), with the Nyquist mode
``k = -n/2`` kept like any other frequency.  Both transforms carry a
``1/sqrt(N)`` factor so the pair is unitary and discrete Parseval holds
without extra weights:

    sum_j |u_j|^2 = sum_k |c_k|^2 .

Each transform is one plain ``np.fft.fft``/``ifft`` (``fft2``/``ifft2`` in
2-d) and one gather through a cached index, :func:`_shift`: the fftshift
roll by n/2, ``np.fft.fftshift(np.arange(n))`` per axis.  n is even, so the
same index is the ifftshift.  The gather moves values without arithmetic,
and ``fft2`` runs the same per-axis passes as ``fftn``, so the coefficients
are bitwise ``fftshift(fftn(u)) / sqrt(N)`` and the samples bitwise
``ifftn(ifftshift(c)) * sqrt(N)``, without ``fftn``'s axis handling or
``fftshift``'s ``np.roll``.  Every call of :func:`forward` and
:func:`inverse` adds one to ``counters["transforms"]``, which the run
manifest records.

The H^s norm weights each coefficient with ``<xi>^s = (1+|xi|^2)^(s/2)``;
at ``s = 0`` it reduces to the plain l2 norm of the samples.  The weight
operator of order ``r`` multiplies coefficients with ``<xi>^r``; it maps
H^s isometrically onto H^(s-r), which the tests pin to 1e-12.

Fields can be serialized to a small little-endian binary format: a 16-byte
header (magic ``TSLB``, version u16, dim u16, points-per-axis u32, 4
reserved bytes), then the period as one f64, then the samples as
interleaved re/im f64 pairs in row-major order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_MAGIC = b"TSLB"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHI4x")


class GridError(ValueError):
    """Raised for invalid grid parameters."""


class FormatError(ValueError):
    """Raised when a serialized field cannot be parsed."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, period)^dim.

    ``n_points`` is the number of samples per axis and must be a power of
    two (>= 8) so the frequency lattice is symmetric around zero.
    """

    n_points: int
    period: float
    dim: int = 1

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        n = self.n_points
        if n < 8 or (n & (n - 1)) != 0:
            raise GridError(f"n_points must be a power of two >= 8, got {n}")
        if not (self.period > 0.0 and np.isfinite(self.period)):
            raise GridError(f"period must be positive and finite, got {self.period}")

    @property
    def shape(self) -> tuple:
        return (self.n_points,) * self.dim

    @property
    def size(self) -> int:
        return self.n_points ** self.dim

    @property
    def spacing(self) -> float:
        return self.period / self.n_points

    def axis_points(self) -> np.ndarray:
        """Sample positions along one axis."""
        return np.arange(self.n_points) * self.spacing

    def axis_frequencies(self) -> np.ndarray:
        """Frequency lattice along one axis, increasing (fftshift order)."""
        n = self.n_points
        return (2.0 * np.pi / self.period) * (np.arange(n) - n // 2)

    def meshes(self):
        """Tuple of dim point-coordinate arrays of shape ``self.shape``."""
        ax = self.axis_points()
        if self.dim == 1:
            return (ax,)
        return tuple(np.meshgrid(ax, ax, indexing="ij"))

    def frequency_meshes(self):
        """Tuple of dim frequency-coordinate arrays of shape ``self.shape``."""
        ax = self.axis_frequencies()
        if self.dim == 1:
            return (ax,)
        return tuple(np.meshgrid(ax, ax, indexing="ij"))


def _as_samples(grid: Grid, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != grid.shape:
        raise GridError(f"values shape {arr.shape} does not match grid shape {grid.shape}")
    # the squared sum is finite only when every entry is; a finite field whose
    # sum overflows takes the elementwise test
    if (not np.isfinite(np.vdot(arr, arr).real)
            and not np.all(np.isfinite(arr.view(np.float64)))):
        raise GridError("field contains non-finite entries")
    return arr


@dataclass
class Field:
    """Complex samples on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_samples(self.grid, self.values)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


@dataclass
class SpectralField:
    """Fourier coefficients on the shifted frequency lattice of a grid."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = _as_samples(self.grid, self.coeffs)


# calls of forward and inverse since the last propagator.reset_counts
counters = {"transforms": 0}


@lru_cache(maxsize=16)
def _shift(n_points: int, dim: int):
    """Index that takes a DFT over ``dim`` axes of n_points to increasing-frequency order.

    It indexes the leading ``dim`` axes of an array: the read-only
    permutation ``np.fft.fftshift(np.arange(n_points))`` in 1-d, its
    ``np.ix_`` pair in 2-d.  n_points is even, so it is also the ifftshift.
    """
    perm = np.fft.fftshift(np.arange(n_points))
    perm.flags.writeable = False
    return perm if dim == 1 else np.ix_(perm, perm)


def forward(field: Field) -> SpectralField:
    """Unitary DFT, coefficients in increasing-frequency order."""
    counters["transforms"] += 1
    grid = field.grid
    c = np.fft.fft(field.values) if grid.dim == 1 else np.fft.fft2(field.values)
    c = c[_shift(grid.n_points, grid.dim)]
    c /= np.sqrt(grid.size)
    return SpectralField(grid, c)


def inverse(spectral: SpectralField) -> Field:
    """Inverse of :func:`forward`; round trips to ~1e-15."""
    counters["transforms"] += 1
    grid = spectral.grid
    c = spectral.coeffs[_shift(grid.n_points, grid.dim)]
    v = np.fft.ifft(c) if grid.dim == 1 else np.fft.ifft2(c)
    v *= np.sqrt(grid.size)
    return Field(grid, v)


@lru_cache(maxsize=64)
def xi_squared(grid: Grid) -> np.ndarray:
    """|xi|^2 on the shifted frequency lattice (cached, read-only)."""
    sq = np.zeros(grid.shape)
    for ax in grid.frequency_meshes():
        sq = sq + ax ** 2
    sq.flags.writeable = False
    return sq


@lru_cache(maxsize=64)
def _bracket_lattice(grid: Grid) -> np.ndarray:
    """<xi> = (1+|xi|^2)^(1/2) on the shifted frequency lattice (cached, read-only)."""
    bracket = np.sqrt(1.0 + xi_squared(grid))
    bracket.flags.writeable = False
    return bracket


def coefficient_norm(c: SpectralField, s: float) -> float:
    """H^s norm from the Fourier coefficients: l2 norm of the <xi>^s-weighted ``c.coeffs``."""
    if s == 0:
        return float(np.linalg.norm(c.coeffs))
    return float(np.linalg.norm(_bracket_lattice(c.grid) ** s * c.coeffs))


def sobolev_norm(field: Field, s: float) -> float:
    """H^s norm of samples: the :func:`coefficient_norm` of their :func:`forward` transform."""
    return coefficient_norm(forward(field), s)


def apply_weight(field: Field, r: float) -> Field:
    """Apply the order-r weight operator (multiplier <xi>^r).

    Isometric from H^s onto H^(s-r) for every s; order 0 is the identity.
    """
    if r == 0:
        return field.copy()
    c = forward(field).coeffs * _bracket_lattice(field.grid) ** r
    return inverse(SpectralField(field.grid, c))


def wave_packet(grid: Grid) -> Field:
    """Gaussian-modulated plane wave, the localized test datum.

    Centered at period/2, width sigma = period/40, carrier
    k0 = 8 * (2*pi/period).  The envelope decays below 1e-30 at the domain
    edges, so periodic wraparound is negligible for moderate transport.
    """
    if grid.dim != 1:
        raise GridError("wave_packet is defined for 1-d grids")
    p = grid.period
    x0 = p / 2.0
    sigma = p / 40.0
    k0 = 8.0 * (2.0 * np.pi / p)
    x = grid.axis_points()
    try:
        width = 2.0 * sigma ** 2
    except OverflowError:
        raise GridError(f"period {p:g} is too large for the wave packet width") from None
    env = np.exp(-((x - x0) ** 2) / width)
    return Field(grid, env * np.exp(1j * k0 * x))


# ---------------------------------------------------------------------------
# serialization


def write_field(path, field: Field) -> None:
    """Write a field in the TSLB binary format (see module docstring)."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, field.grid.dim, field.grid.n_points))
        fh.write(struct.pack("<d", field.grid.period))
        fh.write(np.ascontiguousarray(field.values, dtype="<c16").tobytes())


def read_field(path) -> Field:
    """Read a field written by :func:`write_field`.

    Every malformed file raises :class:`FormatError`, including a header
    that names an invalid grid and a payload with non-finite samples.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size + 8:
        raise FormatError("truncated field file")
    magic, version, dim, n_points = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    (period,) = struct.unpack_from("<d", raw, _HEADER.size)
    try:
        grid = Grid(n_points=n_points, period=period, dim=dim)
    except GridError as exc:
        raise FormatError(f"bad header: {exc}") from exc
    expected = 2 * grid.size * 8
    payload = raw[_HEADER.size + 8:]
    if len(payload) != expected:
        raise FormatError(f"payload has {len(payload)} bytes, expected {expected}")
    # a copy, so that the samples are writable, bit for bit the ones written
    values = np.frombuffer(payload, "<c16").reshape(grid.shape).copy()
    try:
        return Field(grid, values)
    except GridError as exc:
        raise FormatError(f"bad payload: {exc}") from exc
