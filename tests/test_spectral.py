"""Transform conventions, norms, and the field binary format."""

import struct

import numpy as np
import pytest

from thinslab import spectral
from thinslab.spectral import (
    Field, FormatError, Grid, GridError, SpectralField, apply_weight,
    forward, inverse, read_field, sobolev_norm,
    wave_packet, write_field,
)

from conftest import random_field, rel_err


def test_grid_validation():
    with pytest.raises(GridError):
        Grid(48, 2 * np.pi)          # not a power of two
    with pytest.raises(GridError):
        Grid(4, 2 * np.pi)           # below minimum
    with pytest.raises(GridError):
        Grid(64, 0.0)
    with pytest.raises(GridError):
        Grid(64, np.inf)
    with pytest.raises(GridError):
        Grid(64, 2 * np.pi, dim=3)


def test_grid_geometry(grid64):
    x = grid64.axis_points()
    assert x.shape == (64,)
    assert x[0] == 0.0
    assert np.allclose(np.diff(x), grid64.spacing)
    xi = grid64.axis_frequencies()
    # fftshift order: first entry is the most negative frequency
    assert xi[0] == -32.0
    assert xi[-1] == 31.0
    assert np.allclose(np.diff(xi), 2 * np.pi / grid64.period)


def test_grid_2d_meshes():
    g = Grid(16, 1.0, dim=2)
    assert g.shape == (16, 16)
    assert g.size == 256
    X1, X2 = g.meshes()
    assert X1.shape == (16, 16)
    assert X1[3, 0] == X1[3, 7]      # first axis varies along rows
    K1, K2 = g.frequency_meshes()
    assert K1[0, 0] == -8 * 2 * np.pi


def test_parseval_many_seeds(grid64):
    # transform is unitary; checked over a large seeded batch
    worst = 0.0
    for seed in range(500):
        u = random_field(grid64, seed)
        c = forward(u)
        worst = max(worst, abs(np.linalg.norm(c.coeffs) - np.linalg.norm(u.values)))
    assert worst < 1e-12


def test_parseval_2d():
    g = Grid(32, 5.0, dim=2)
    worst = 0.0
    for seed in range(500):
        u = random_field(g, seed)
        worst = max(worst, abs(np.linalg.norm(forward(u).coeffs) - np.linalg.norm(u.values)))
    assert worst < 1e-12


def test_round_trip(grid64):
    for seed in range(50):
        u = random_field(grid64, seed)
        assert rel_err(inverse(forward(u)).values, u.values) < 1e-13
        c = forward(u)
        assert rel_err(forward(inverse(c)).coeffs, c.coeffs) < 1e-13


@pytest.mark.parametrize("n, dim", [(n, 1) for n in (8, 16, 32, 64, 128, 256, 512)]
                         + [(8, 2), (16, 2), (64, 2)])
def test_transforms_are_bitwise_the_shifted_fftn(n, dim):
    grid = Grid(n, 3.0, dim=dim)
    axes = tuple(range(dim))
    for seed in range(3):
        u = random_field(grid, seed)
        c = random_field(grid, 100 + seed).values
        expected = np.fft.fftshift(np.fft.fftn(u.values, axes=axes), axes=axes)
        assert np.array_equal(forward(u).coeffs, expected / np.sqrt(grid.size))
        expected = np.fft.ifftn(np.fft.ifftshift(c, axes=axes), axes=axes)
        assert np.array_equal(inverse(SpectralField(grid, c)).values,
                              expected * np.sqrt(grid.size))


@pytest.mark.parametrize("dim", [1, 2])
def test_transforms_keep_their_validation(dim):
    grid = Grid(16, 3.0, dim=dim)
    u = random_field(grid, 0)
    u.values[(3,) * dim] = np.inf       # past the Field check: forward's output rejects it
    with pytest.raises(GridError), np.errstate(invalid="ignore"):
        forward(u)
    with pytest.raises(GridError):
        inverse(SpectralField(grid, np.zeros((32,) * dim)))
    with pytest.raises(GridError):
        inverse(SpectralField(grid, np.zeros(grid.shape + (2,))))


def test_single_mode_is_delta(grid64):
    x = grid64.axis_points()
    u = Field(grid64, np.exp(1j * 5 * x))
    c = forward(u).coeffs
    k = np.arange(64) - 32
    expected = np.where(k == 5, np.sqrt(64.0), 0.0)
    assert np.max(np.abs(c - expected)) < 1e-12


def test_sobolev_norm_single_modes(grid64):
    # one Fourier mode: H^s norm is <k>^s times the L2 norm
    x = grid64.axis_points()
    for k in (0, 1, 7, -13):
        u = Field(grid64, np.exp(1j * k * x))
        got = sobolev_norm(u, 1.5)
        expected = (1.0 + k * k) ** 0.75 * np.sqrt(64.0)
        assert abs(got - expected) < 1e-10 * expected


def test_sobolev_norm_zero_is_l2(grid64):
    for seed in range(20):
        u = random_field(grid64, seed)
        l2 = np.linalg.norm(u.values)
        assert abs(sobolev_norm(u, 0.0) - l2) < 1e-12 * l2


def test_weight_shifts_sobolev_index(grid64):
    # <D>^r maps H^s isometrically onto H^(s-r)
    for seed, r, s in ((0, 1.0, 2.0), (1, -0.5, 0.0), (2, 2.5, 1.0)):
        u = random_field(grid64, seed)
        w = apply_weight(u, r)
        a = sobolev_norm(w, s - r)
        b = sobolev_norm(u, s)
        assert abs(a - b) < 1e-12 * b


def test_weight_zero_is_identity(grid64):
    u = random_field(grid64, 3)
    assert np.array_equal(apply_weight(u, 0.0).values, u.values)


def test_wave_packet_profile(grid64):
    u = wave_packet(grid64)
    assert u.values.shape == (64,)
    x = grid64.axis_points()
    peak = np.argmax(np.abs(u.values))
    assert abs(x[peak] - grid64.period / 2) < grid64.spacing
    # dominant frequency content sits at the carrier mode
    c = np.abs(forward(u).coeffs)
    k = np.arange(64) - 32
    assert k[np.argmax(c)] == 8


def test_wave_packet_2d_rejected():
    with pytest.raises(GridError):
        wave_packet(Grid(16, 1.0, dim=2))


def test_field_validation(grid64):
    with pytest.raises(GridError):
        Field(grid64, np.zeros(32))
    with pytest.raises(GridError):
        Field(grid64, np.full(64, np.nan))


@pytest.mark.parametrize("kind", [Field, SpectralField])
@pytest.mark.parametrize("dim", [1, 2])
def test_one_non_finite_entry_is_rejected_and_huge_finite_ones_are_not(kind, dim):
    # the check takes the squared sum first and the elementwise test only
    # when that sum is not finite, which a field of 1e200 entries overflows
    grid = Grid(16, 3.0, dim=dim)
    bad = (complex(np.nan, 0.0), complex(0.0, np.nan), np.inf, -np.inf, 1j * np.inf,
           -1j * np.inf, complex(np.inf, np.inf), complex(-np.inf, np.inf))
    with np.errstate(all="raise"):
        for value in bad:
            values = random_field(grid, 0).values
            values[(5,) * dim] = value
            with pytest.raises(GridError, match="non-finite"):
                kind(grid, values)
        for value in (1e200, -1e200j, complex(1e200, -1e200), 1e308):
            values = np.full(grid.shape, value, dtype=np.complex128)
            held = kind(grid, values)
            assert np.array_equal(held.values if kind is Field else held.coeffs, values)


def test_binary_round_trip(tmp_path, grid64):
    u = random_field(grid64, 11)
    path = tmp_path / "u.tslb"
    write_field(path, u)
    v = read_field(path)
    assert v.grid == u.grid
    assert np.array_equal(v.values, u.values)


def test_binary_round_trip_2d(tmp_path):
    g = Grid(16, 3.5, dim=2)
    u = random_field(g, 12)
    path = tmp_path / "u2.tslb"
    write_field(path, u)
    v = read_field(path)
    assert v.grid == g
    assert np.array_equal(v.values, u.values)


def test_binary_header_layout(tmp_path, grid64):
    u = random_field(grid64, 13)
    path = tmp_path / "u.tslb"
    write_field(path, u)
    raw = path.read_bytes()
    magic, version, dim, n_points = struct.unpack_from("<4sHHI", raw, 0)
    assert magic == b"TSLB"
    assert version == 1
    assert dim == 1
    assert n_points == 64
    (period,) = struct.unpack_from("<d", raw, 16)
    assert period == grid64.period
    # header(16) + period(8) + interleaved complex payload
    assert len(raw) == 24 + 64 * 16


def test_binary_rejects_corruption(tmp_path, grid64):
    u = random_field(grid64, 14)
    path = tmp_path / "u.tslb"
    write_field(path, u)
    raw = bytearray(path.read_bytes())
    raw[0:4] = b"XXXX"
    bad = tmp_path / "bad.tslb"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_field(bad)
    trunc = tmp_path / "short.tslb"
    trunc.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_field(trunc)


@pytest.mark.parametrize("offset,fmt,value", [
    (6, "<H", 3),                  # dim
    (8, "<I", 100),                # n_points not a power of two
    (8, "<I", 0),
    (16, "<d", float("nan")),      # period
    (24, "<d", float("inf")),      # first sample's real part
], ids=["dim-3", "n-points-100", "n-points-0", "nan-period", "non-finite-sample"])
def test_binary_rejects_invalid_grid_or_sample(tmp_path, grid64, offset, fmt, value):
    path = tmp_path / "u.tslb"
    write_field(path, random_field(grid64, 15))
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_field(path)
