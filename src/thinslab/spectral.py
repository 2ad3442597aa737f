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
    if not np.all(np.isfinite(arr.view(np.float64))):
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


def forward(field: Field) -> SpectralField:
    """Unitary DFT, coefficients in increasing-frequency order."""
    axes = tuple(range(field.grid.dim))
    c = np.fft.fftshift(np.fft.fftn(field.values, axes=axes), axes=axes)
    return SpectralField(field.grid, c / np.sqrt(field.grid.size))


def inverse(spectral: SpectralField) -> Field:
    """Inverse of :func:`forward`; round trips to ~1e-15."""
    axes = tuple(range(spectral.grid.dim))
    v = np.fft.ifftn(np.fft.ifftshift(spectral.coeffs, axes=axes), axes=axes)
    return Field(spectral.grid, v * np.sqrt(spectral.grid.size))


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
    """<xi> = (1+|xi|^2)^(1/2) on the shifted frequency lattice."""
    return np.sqrt(1.0 + xi_squared(grid))


def sobolev_norm(field: Field, s: float) -> float:
    """H^s norm: l2 norm of <xi>^s-weighted Fourier coefficients."""
    c = forward(field).coeffs
    if s == 0:
        return float(np.linalg.norm(c))
    return float(np.linalg.norm(_bracket_lattice(field.grid) ** s * c))


def apply_multiplier(field: Field, multiplier: np.ndarray) -> Field:
    """Fourier multiplier: forward transform, scale each coefficient, invert."""
    c = forward(field).coeffs * multiplier
    return inverse(SpectralField(field.grid, c))


def apply_weight(field: Field, r: float) -> Field:
    """Apply the order-r weight operator (multiplier <xi>^r).

    Isometric from H^s onto H^(s-r) for every s; order 0 is the identity.
    """
    if r == 0:
        return field.copy()
    return apply_multiplier(field, _bracket_lattice(field.grid) ** r)


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
    env = np.exp(-((x - x0) ** 2) / (2.0 * sigma ** 2))
    return Field(grid, env * np.exp(1j * k0 * x))


# ---------------------------------------------------------------------------
# serialization


def write_field(path, field: Field) -> None:
    """Write a field in the TSLB binary format (see module docstring)."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, field.grid.dim, field.grid.n_points))
        fh.write(struct.pack("<d", field.grid.period))
        flat = np.ravel(field.values)
        inter = np.empty(2 * flat.size, dtype="<f8")
        inter[0::2] = flat.real
        inter[1::2] = flat.imag
        fh.write(inter.tobytes())


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
    inter = np.frombuffer(payload, dtype="<f8")
    values = (inter[0::2] + 1j * inter[1::2]).reshape(grid.shape)
    try:
        return Field(grid, values)
    except GridError as exc:
        raise FormatError(f"bad payload: {exc}") from exc
