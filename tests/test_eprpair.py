"""Unit tests for the regularized continuous-variable pair.

Conditional means and widths are checked against the product-of-
Gaussians oracle worked out by hand: slicing the joint density at
x_I = x multiplies a Gaussian at x + x0 (precision 1/sigma^2) with the
center-of-mass envelope seen from x (precision 1/(4 Lambda^2)); in
momentum space the same algebra gives a conditional mean
-p (4 Lambda^2 - sigma^2) / (4 Lambda^2 + sigma^2) and width
1 / sqrt(sigma^2 + 4 Lambda^2).
"""

import math
import tracemalloc

import numpy as np
import pytest

from eprlab import cli, eprpair
from eprlab.eprpair import (
    Distribution1D,
    EprConfig,
    GridFunction,
    build_epr_state,
    condition_on_momentum,
    condition_on_position,
    momentum_representation,
    relative_coordinate_marginal,
)
from eprlab.grids import UniformGrid1D, UniformGrid2D

CFG = EprConfig()
PSI = build_epr_state(CFG)
# A small grid for the GridFunction checks: 16 x 16 cells of area
# (10/16)^2, so a constant 0.1 has unit norm.
SMALL = UniformGrid2D(10.0, 16)


def conditional_position_oracle(x, cfg):
    a = 1.0 / cfg.sigma**2
    b = 1.0 / (4.0 * cfg.envelope_width**2)
    mean = (a * (x + cfg.x0) + b * (-x)) / (a + b)
    return mean, np.sqrt(1.0 / (a + b))


def conditional_momentum_oracle(p, cfg):
    lam2 = 4.0 * cfg.envelope_width**2
    mean = -p * (lam2 - cfg.sigma**2) / (lam2 + cfg.sigma**2)
    return mean, np.sqrt(1.0 / (cfg.sigma**2 + lam2))


def mirror_symmetric(probs):
    # Coordinate j maps to (j - n//2) h, so -x lives at index n - j; the
    # j = 0 point has no mirror partner on an even grid.
    return np.allclose(probs[1:], probs[:0:-1], atol=1e-12)


def test_config_validates_geometry():
    with pytest.raises(ValueError, match="grid too small"):
        EprConfig(x0=8.0, sigma=1.0, grid=UniformGrid2D(20.0, 512))
    with pytest.raises(ValueError, match="sigma"):
        EprConfig(sigma=-1.0)
    with pytest.raises(ValueError, match="unresolvable"):
        EprConfig(sigma=0.05, grid=UniformGrid2D(20.0, 128))
    with pytest.raises(ValueError, match="64"):
        EprConfig(grid=UniformGrid2D(20.0, 32))
    with pytest.raises(ValueError, match="underflows"):
        EprConfig(x0=0.0, sigma=1e-160, grid=UniformGrid2D(1e-159, 64))


def test_grid_function_validates_norm():
    with pytest.raises(ValueError, match="norm"):
        GridFunction(np.ones((16, 16)), SMALL)
    f = GridFunction.normalized(np.ones((16, 16)), SMALL)
    assert f.norm == pytest.approx(1.0, abs=1e-12)


def test_grid_function_rejects_a_1d_grid():
    grid = UniformGrid1D(10.0, 100)
    with pytest.raises(ValueError, match="UniformGrid2D"):
        GridFunction(np.full(100, 1.0 / np.sqrt(10.0)), grid)
    with pytest.raises(ValueError, match="UniformGrid2D"):
        GridFunction.normalized(np.ones(100), grid)


def test_state_is_normalized():
    assert abs(PSI.norm - 1.0) <= 1e-10


def test_state_swap_symmetric_without_offset():
    psi = build_epr_state(EprConfig(x0=0.0))
    np.testing.assert_allclose(psi.values, psi.values.T, atol=1e-14)


def test_relative_marginal_centered_with_width_sigma():
    marginal = relative_coordinate_marginal(PSI, offset=CFG.x0)
    assert abs(marginal.mean()) <= 1e-3
    assert marginal.std() == pytest.approx(CFG.sigma, rel=0.01)


def dense_relative_marginal_oracle(psi, offset):
    """The marginal from the n x n density and an n^2 diagonal index."""
    n = psi.grid.points
    density = np.abs(psi.values) ** 2
    i = np.arange(n)
    diag_index = (i[:, None] - i[None, :] + n - 1).ravel()
    sums = np.bincount(diag_index, weights=density.ravel(), minlength=2 * n - 1)
    differences = np.arange(-(n - 1), n) * psi.grid.spacing + offset
    return Distribution1D(coordinates=differences, probabilities=sums)


@pytest.mark.parametrize("points", [64, 65, 100, 1000])
@pytest.mark.parametrize("x0", [0.0, 1.0])
def test_relative_marginal_matches_the_dense_sum(points, x0):
    psi = build_epr_state(EprConfig(x0=x0, grid=UniformGrid2D(10.0, points)))
    complex_samples = GridFunction.normalized(
        np.exp(1j * np.arange(256.0)).reshape(16, 16) * np.arange(1.0, 17.0), SMALL
    )
    for state in (psi, complex_samples):
        got = relative_coordinate_marginal(state, offset=x0)
        expected = dense_relative_marginal_oracle(state, x0)
        assert np.array_equal(got.coordinates, expected.coordinates)
        np.testing.assert_allclose(
            got.probabilities, expected.probabilities, rtol=0, atol=1e-15
        )


def test_relative_marginal_holds_no_grid_sized_temporary():
    # A block of rows, its density and the block's diagonal index: no
    # term grows as n^2, and the state's values are never built.
    n = 1024
    psi = build_epr_state(EprConfig(grid=UniformGrid2D(10.0, n)))
    relative_coordinate_marginal(build_epr_state(EprConfig(grid=UniformGrid2D(10.0, 64))))
    tracemalloc.start()
    try:
        relative_coordinate_marginal(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * eprpair.ROW_BLOCK * n * 8 + 2**17
    assert "values" not in vars(psi)


def test_conditional_position_tracks_offset():
    for x in (0.0, 0.5, -0.5, 1.0):
        dist = condition_on_position(PSI, x)
        assert abs(dist.mean() - (dist.sliced_at + CFG.x0)) <= CFG.sigma / 10.0


def test_conditional_position_matches_gaussian_oracle():
    for x in (0.0, 0.5, -0.5, 1.0):
        dist = condition_on_position(PSI, x)
        mean, std = conditional_position_oracle(dist.sliced_at, CFG)
        assert dist.mean() == pytest.approx(mean, abs=1e-4)
        assert dist.std() == pytest.approx(std, rel=0.10)


def test_conditional_position_symmetric_at_origin():
    psi = build_epr_state(EprConfig(x0=0.0))
    dist = condition_on_position(psi, 0.0)
    assert dist.sliced_at == 0.0
    assert mirror_symmetric(dist.probabilities)


def test_conditional_position_rejects_exterior():
    with pytest.raises(ValueError, match="outside"):
        condition_on_position(PSI, 11.0)


def test_parseval_exact():
    g = momentum_representation(PSI)
    assert abs(g.norm - PSI.norm) <= 1e-10
    assert abs(g.norm - 1.0) <= 1e-10


def test_momentum_grid_geometry():
    g = momentum_representation(PSI)
    n, h = CFG.grid.points, CFG.grid.spacing
    assert g.grid.points == n
    assert g.grid.spacing == pytest.approx(2.0 * np.pi / (n * h), rel=1e-12)


def full_grid_transform_oracle(psi):
    """The transform as a full complex fft2: the h^2 / 2 pi scale, the
    phase outer product that re-anchors the FFT's index origin to the
    centered coordinates, then fftshift."""
    n, h = psi.grid.points, psi.grid.spacing
    phase = np.exp(1j * psi.grid.momenta * (n // 2) * h)
    transformed = np.fft.fft2(psi.values.astype(complex))
    transformed *= h**2 / (2.0 * np.pi)
    transformed *= phase[:, None] * phase[None, :]
    return np.fft.fftshift(transformed)


def direct_state_oracle(cfg):
    """The pair state evaluated point by point on the n x n grid."""
    x = cfg.grid.coordinates
    rel = x[:, None] - x[None, :] + cfg.x0
    com = (x[:, None] + x[None, :]) / 2.0
    raw = np.exp(
        -(rel**2) / (4.0 * cfg.sigma**2) - com**2 / (4.0 * cfg.envelope_width**2)
    )
    return raw / np.sqrt(np.sum(raw**2) * cfg.grid.spacing**2)


@pytest.mark.parametrize("points", [64, 65, 128])
@pytest.mark.parametrize("x0", [0.0, 1.0])
def test_state_matches_direct_evaluation(points, x0):
    cfg = EprConfig(x0=x0, grid=UniformGrid2D(10.0, points))
    psi = build_epr_state(cfg)
    assert psi.values.dtype == np.float64
    np.testing.assert_allclose(psi.values, direct_state_oracle(cfg), rtol=0, atol=1e-14)


# momentum_representation, momentum_norm and the rows the momentum
# conditional reads, each against the full complex fft2 oracle. An odd
# point count has no Nyquist column in a row's rfft.
@pytest.mark.parametrize("points", [64, 65, 128])
@pytest.mark.parametrize("x0", [0.0, 1.0])
def test_half_spectrum_matches_full_grid_transform(points, x0):
    psi = build_epr_state(EprConfig(x0=x0, grid=UniformGrid2D(10.0, points)))
    expected = full_grid_transform_oracle(psi)
    g = momentum_representation(psi)
    np.testing.assert_allclose(g.values, expected, rtol=0, atol=1e-14)

    full_norm = np.sqrt(np.sum(np.abs(expected) ** 2) * g.grid.spacing**2)
    assert abs(psi.momentum_norm - full_norm) <= 1e-14

    coords = g.grid.coordinates
    for p in (0.0, 1.0, -2.0):
        i = int(np.argmin(np.abs(coords - p)))
        dist = condition_on_momentum(psi, p)
        oracle = Distribution1D(coords, np.abs(expected[i]) ** 2)
        assert dist.sliced_at == coords[i]
        np.testing.assert_allclose(
            dist.probabilities, oracle.probabilities, rtol=0, atol=1e-14
        )


def test_real_samples_stay_real():
    f = GridFunction(np.full((16, 16), 0.1), SMALL)
    assert f.values.dtype == np.float64
    assert GridFunction.normalized(np.ones((16, 16)), SMALL).values.dtype == np.float64


def test_transform_rejects_complex_samples():
    f = GridFunction(np.full((16, 16), 0.1 + 0.0j), SMALL)
    assert f.values.dtype == np.complex128
    with pytest.raises(ValueError, match="real"):
        momentum_representation(f)
    with pytest.raises(ValueError, match="real"):
        condition_on_momentum(f, 0.0)
    with pytest.raises(ValueError, match="real"):
        f.momentum_norm


def test_conditional_momentum_anti_correlated():
    lam = CFG.envelope_width
    for p in (0.0, 1.0, -1.0):
        dist = condition_on_momentum(PSI, p)
        assert abs(dist.mean() - (-dist.sliced_at)) <= 1.0 / (10.0 * lam)


def test_conditional_momentum_matches_gaussian_oracle():
    for p in (0.0, 1.0, -1.0, 2.0):
        dist = condition_on_momentum(PSI, p)
        mean, std = conditional_momentum_oracle(dist.sliced_at, CFG)
        assert dist.mean() == pytest.approx(mean, abs=2e-3)
        assert dist.std() == pytest.approx(std, rel=0.10)


def test_conditional_momentum_symmetric_at_zero():
    psi = build_epr_state(EprConfig(x0=0.0))
    dist = condition_on_momentum(psi, 0.0)
    assert mirror_symmetric(dist.probabilities)


def test_conditional_momentum_rejects_beyond_nyquist():
    nyquist = np.pi / CFG.grid.spacing
    with pytest.raises(ValueError, match="Nyquist"):
        condition_on_momentum(PSI, 1.01 * nyquist)


def test_both_conditionals_on_same_state():
    # The pair's defining feature: one state supports both predictions.
    pos = condition_on_position(PSI, 0.0)
    mom = condition_on_momentum(PSI, 1.0)
    assert abs(pos.mean() - (pos.sliced_at + CFG.x0)) <= CFG.sigma / 10.0
    assert abs(mom.mean() - (-mom.sliced_at)) <= 1.0 / (10.0 * CFG.envelope_width)


def test_narrower_sigma_sharpens_position_not_momentum():
    cfg_half = EprConfig(sigma=0.25)
    psi_half = build_epr_state(cfg_half)
    var_full = condition_on_position(PSI, 0.0).std() ** 2
    var_half = condition_on_position(psi_half, 0.0).std() ** 2
    assert 3.5 <= var_full / var_half <= 4.5
    mom_full = condition_on_momentum(PSI, 0.0).std()
    mom_half = condition_on_momentum(psi_half, 0.0).std()
    scale = 1.0 / np.sqrt(cfg_half.sigma**2 + 4.0 * cfg_half.envelope_width**2)
    assert mom_half == pytest.approx(scale, rel=0.10)
    assert abs(mom_half - mom_full) <= 0.15 * mom_full


def test_distribution_moments():
    coords = np.array([-1.0, 0.0, 1.0])
    dist = Distribution1D(coords, np.array([0.25, 0.5, 0.25]))
    assert dist.mean() == pytest.approx(0.0)
    assert dist.std() == pytest.approx(np.sqrt(0.5))
    with pytest.raises(ValueError):
        Distribution1D(coords, np.array([0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Distribution1D(coords, np.array([0.5, 0.5, -0.1]))


@pytest.fixture
def fft_route(monkeypatch):
    """Records each np.fft.rfft, fft, rfft2 and fft2 call for this test,
    in order: (name, positional arguments, keyword arguments)."""
    calls = []
    for name in ("rfft", "fft", "rfft2", "fft2"):

        def recording(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
            calls.append((_name, args, kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, recording)
    return calls


def assert_one_streamed_pass(calls, points):
    """One rfft along the rows per block of ROW_BLOCK rows, each written
    into a leading slice of one (ROW_BLOCK, points//2 + 1) buffer; no
    column fft and no 2D transform."""
    names = [name for name, _args, _kwargs in calls]
    assert names == ["rfft"] * -(-points // eprpair.ROW_BLOCK)
    buf = calls[0][2]["out"].base
    assert buf.shape == (eprpair.ROW_BLOCK, points // 2 + 1)
    covered = 0
    for _, (block,), kwargs in calls:
        assert kwargs.keys() == {"axis", "out"}
        assert kwargs["axis"] == 1
        out = kwargs["out"]
        assert out.base is buf
        assert out.ctypes.data == buf.ctypes.data
        assert out.shape == (len(block), buf.shape[1])
        covered += len(block)
    assert covered == points


def test_epr_document_runs_one_streamed_pass_of_row_transforms(fft_route):
    settings = cli.resolve_settings(cli.build_parser().parse_args(["epr"]))
    cli.run_epr(settings)
    assert_one_streamed_pass(fft_route, settings["points"])


def blocked_row_transforms(psi):
    """np.fft.rfft of psi.values along its rows, ROW_BLOCK rows at a
    time, with the slice of rows each block covers."""
    n, size = psi.grid.points, eprpair.ROW_BLOCK
    return [
        (slice(start, start + size), np.fft.rfft(psi.values[start : start + size], axis=1))
        for start in range(0, n, size)
    ]


@pytest.mark.parametrize("points", [64, 100, 513, 1024])
def test_half_spectrum_is_bitwise_rfft2(points):
    # The pass's C and S are, bit for bit, each block's row rfft projected
    # on the column DFT's cos and sin twiddles by two separate einsums,
    # added block by block; C + iS and C - iS agree with rows k and -k of
    # rfft2 to rounding.
    psi = build_epr_state(EprConfig(grid=UniformGrid2D(10.0, points)))
    half = np.fft.rfft2(psi.values)
    blocks = blocked_row_transforms(psi)
    for k in (0, 1, 7, points // 2, points - 3):
        angles = (-2.0 * np.pi / points) * (k * np.arange(points) % points)
        cos_k, sin_k = np.cos(angles), np.sin(angles)
        c = np.zeros(2 * (points // 2 + 1))
        s = np.zeros_like(c)
        for rows, block in blocks:
            c += np.einsum("i,ij->j", cos_k[rows], block.view(float))
            s += np.einsum("i,ij->j", sin_k[rows], block.view(float))
        pass_c, pass_s, _norm = psi._momentum_pass(k)
        assert np.array_equal(pass_c.view(float), c)
        assert np.array_equal(pass_s.view(float), s)
        c, s = c.view(complex), s.view(complex)
        atol = 1e-14 * np.abs(half).max()
        np.testing.assert_allclose(c + 1j * s, half[k], rtol=0, atol=atol)
        np.testing.assert_allclose(c - 1j * s, half[-k], rtol=0, atol=atol)


@pytest.mark.parametrize("points", [64, 100, 513, 1024])
def test_state_is_bitwise_out_of_place_normalization(points):
    # The relative factor divided, out of place, by the blocked norm of
    # the raw product, times the center factor; that norm is checked
    # against an exactly rounded sum.
    cfg = EprConfig(grid=UniformGrid2D(10.0, points))
    n, h = points, cfg.grid.spacing
    steps = np.arange(2 * n - 1)
    relative = np.exp(-(((steps - (n - 1)) * h + cfg.x0) ** 2) / (4.0 * cfg.sigma**2))
    center = np.exp(
        -(((steps - 2 * (n // 2)) * h / 2.0) ** 2) / (4.0 * cfg.envelope_width**2)
    )
    windows = np.lib.stride_tricks.sliding_window_view
    raw = windows(relative, n)[:, ::-1] * windows(center, n)
    s = eprpair._l2_norm(raw.__getitem__, cfg.grid)
    expected = windows(relative / s, n)[:, ::-1] * windows(center, n)
    psi = build_epr_state(cfg)
    assert np.array_equal(psi.values.view(float), expected.view(float))
    exact = math.sqrt(math.fsum((raw.ravel() ** 2).tolist()) * h**2)
    assert s == pytest.approx(exact, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("points", [64, 100, 1000])
def test_position_rows_are_bitwise_state_rows_without_the_grid(points):
    psi = build_epr_state(EprConfig(grid=UniformGrid2D(10.0, points)))
    coords = psi.grid.coordinates
    dists = [condition_on_position(psi, x) for x in (-3.0, 0.0, 0.5, 4.8)]
    assert "values" not in vars(psi)
    for dist in dists:
        i = int(np.flatnonzero(coords == dist.sliced_at)[0])
        oracle = Distribution1D(coords, np.abs(psi.values[i]) ** 2)
        assert np.array_equal(dist.probabilities, oracle.probabilities)


def squared_sum(values):
    f = values.view(float)
    return np.einsum("ij,ij->", f, f)


@pytest.mark.parametrize("points", [64, 100, 513, 1024])
def test_momentum_norm_is_bitwise_squared_magnitude_formula(points):
    # Each block's row transform once, plus its weight-2 columns once
    # more, added block by block; the column DFT multiplies the squared
    # sum by points. A conditional's pass finds the same bits at any row.
    cfg = EprConfig(grid=UniformGrid2D(10.0, points))
    psi = build_epr_state(cfg)
    total = 0.0
    for _rows, block in blocked_row_transforms(psi):
        total += squared_sum(block) + squared_sum(block[:, 1 : (points + 1) // 2])
    scale = psi.grid.spacing**2 / (2.0 * np.pi)
    dp = psi._momentum_grid.spacing
    expected = float(np.sqrt(points * total * scale**2 * dp**2))
    assert psi.momentum_norm == expected
    conditioned = build_epr_state(cfg)
    condition_on_momentum(conditioned, -2.0)
    assert conditioned.momentum_norm == expected


@pytest.mark.parametrize("points", [64, 65, 100, 1024])
def test_both_norms_match_an_exactly_rounded_sum(points):
    psi = build_epr_state(EprConfig(grid=UniformGrid2D(10.0, points)))
    position = math.fsum((psi.values.ravel() ** 2).tolist())
    assert psi.norm == pytest.approx(
        math.sqrt(position * psi.grid.spacing**2), rel=1e-14, abs=0.0
    )
    rows = np.concatenate([block for _rows, block in blocked_row_transforms(psi)])
    squares = rows.view(float) ** 2
    squares[:, 2 : 2 * ((points + 1) // 2)] *= 2.0
    momentum = math.fsum(squares.ravel().tolist())
    scale = psi.grid.spacing**2 / (2.0 * np.pi)
    assert psi.momentum_norm == pytest.approx(
        math.sqrt(points * momentum * scale**2 * psi._momentum_grid.spacing**2),
        rel=1e-14,
        abs=0.0,
    )


def test_building_the_state_holds_no_grid_sized_temporary():
    # The state is its factors' 2n - 1 samples each and one block of
    # rows at a time, plus numpy's fixed-size buffers: no term grows
    # as n^2. A real n x n grid would be half of n^2 * 16 B.
    n = 1024
    cfg = EprConfig(grid=UniformGrid2D(10.0, n))
    build_epr_state(EprConfig(grid=UniformGrid2D(10.0, 64)))
    tracemalloc.start()
    try:
        build_epr_state(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * n * 8 + 2**17


@pytest.mark.parametrize("n", [512, 2048])
def test_epr_document_peak_memory_has_no_grid_sized_term(n):
    # A block of real rows, its row transform in the reused buffer and
    # the factors at the peak: no term grows as n^2. The real n x n
    # state, or the half spectrum, would add half of n^2 * 16 B. A small
    # document runs first, so that numpy's lazy import of numpy.fft is
    # not counted.
    small, settings = (
        cli.resolve_settings(cli.build_parser().parse_args(["epr", "--points", points]))
        for points in ("128", str(n))
    )
    cli.run_epr(small)
    tracemalloc.start()
    try:
        cli.run_epr(settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * eprpair.ROW_BLOCK * n * 8 + 2**17


def test_momentum_representation_is_computed_once_and_read_only(fft_route):
    psi = build_epr_state(EprConfig(grid=UniformGrid2D(20.0, 128)))
    first = momentum_representation(psi)
    kept = first.values.copy()
    second = momentum_representation(psi)
    condition_on_momentum(psi, 1.0)
    assert psi.momentum_norm == pytest.approx(1.0, abs=1e-12)
    first_call, second_call, *pass_calls = fft_route
    assert [first_call[0], second_call[0]] == ["fft2", "fft2"]
    assert_one_streamed_pass(pass_calls, psi.grid.points)
    for g in (first, second):
        assert not g.values.flags.writeable
        with pytest.raises(ValueError):
            g.values[0, 0] = 0.0
    assert np.array_equal(second.values.view(float), kept.view(float))
    fresh = GridFunction(psi.values, psi.grid)
    recomputed = momentum_representation(fresh).values
    assert np.array_equal(recomputed.view(float), kept.view(float))


def test_momentum_representation_leaves_no_grid_sized_array_on_the_state():
    # Each call forms its complex grid and returns it; once the result is
    # dropped, the state holds its real values and nothing grid-sized
    # more (a complex n x n grid is n^2 * 16 B). A first call on another
    # state of the same size keeps numpy's lazy imports out of the count.
    n = 128
    cfg = EprConfig(grid=UniformGrid2D(20.0, n))
    momentum_representation(build_epr_state(cfg))
    psi = build_epr_state(cfg)
    psi.values
    tracemalloc.start()
    try:
        momentum_representation(psi)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 2**14
    assert not any(
        isinstance(value, GridFunction)
        or (isinstance(value, np.ndarray) and np.iscomplexobj(value))
        for value in vars(psi).values()
    )


def test_momentum_representation_leaves_the_pair_values_unbuilt():
    # The transform reads the pair's rows as one block: a fresh pair's
    # real n x n values are neither built nor kept by the call.
    psi = build_epr_state(EprConfig(grid=UniformGrid2D(20.0, 128)))
    g = momentum_representation(psi)
    assert "values" not in vars(psi)
    # Bit for bit the transform of the same samples held as values.
    from_values = momentum_representation(GridFunction(psi.values, psi.grid))
    assert np.array_equal(g.values.view(float), from_values.values.view(float))


def test_normalized_takes_one_norm_pass(count_calls):
    raw = np.linspace(1.0, 2.0, 256).reshape(16, 16)
    kept = raw.copy()
    norm_calls = count_calls(eprpair, "_l2_norm")
    f = GridFunction.normalized(raw, SMALL)
    assert len(norm_calls) == 1
    assert np.array_equal(raw, kept)
    assert not f.values.flags.writeable
    assert f.norm == pytest.approx(1.0, abs=1e-12)
    raw[:] = 0.0
    assert f.values[0, 0] != 0.0


def test_constructor_copies_and_validates():
    values = np.full((16, 16), 0.1, dtype=complex)
    f = GridFunction(values, SMALL)
    values[:] = 0.0
    assert f.values[0, 0] != 0.0
    assert not f.values.flags.writeable
    with pytest.raises(ValueError, match="shape"):
        GridFunction(values[:8], SMALL)
    with pytest.raises(ValueError, match="norm"):
        GridFunction(np.full((16, 16), np.nan), SMALL)


def test_column_major_complex_samples_are_accepted():
    # The norm reads complex samples as (re, im) pairs along the last
    # axis, so the owned copy must be row-major whatever the input is.
    values = np.asfortranarray(np.full((16, 16), 0.06 + 0.08j))
    assert GridFunction(values, SMALL).norm == pytest.approx(1.0, abs=1e-12)
    assert GridFunction.normalized(2.0 * values, SMALL).values.flags.c_contiguous


@pytest.mark.parametrize("fill", [np.nan, np.inf, 1e200])
def test_normalized_rejects_non_finite_norm(fill):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="normalize"):
        GridFunction.normalized(np.full((16, 16), fill), SMALL)
