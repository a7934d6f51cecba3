"""Unit tests for the regularized continuous-variable pair.

Conditional means and widths are checked against the product-of-
Gaussians oracle worked out by hand: slicing the joint density at
x_I = x multiplies a Gaussian at x + x0 (precision 1/sigma^2) with the
center-of-mass envelope seen from x (precision 1/(4 Lambda^2)); in
momentum space the same algebra gives a conditional mean
-p (4 Lambda^2 - sigma^2) / (4 Lambda^2 + sigma^2) and width
1 / sqrt(sigma^2 + 4 Lambda^2).
"""

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


def test_epr_document_runs_one_fft(count_calls):
    fft_calls = count_calls(np.fft, "fft2")
    settings = cli.resolve_settings(cli.build_parser().parse_args(["epr"]))
    cli.run_epr(settings)
    assert len(fft_calls) == 1


def test_momentum_representation_is_computed_once_and_read_only(count_calls):
    psi = build_epr_state(EprConfig(grid=UniformGrid2D(20.0, 128)))
    fft_calls = count_calls(np.fft, "fft2")
    first = momentum_representation(psi)
    kept = first.values.copy()
    second = momentum_representation(psi)
    assert len(fft_calls) == 1
    assert second is first
    assert not second.values.flags.writeable
    with pytest.raises(ValueError):
        second.values[0, 0] = 0.0
    assert np.array_equal(second.values.view(float), kept.view(float))
    fresh = GridFunction(psi.values, psi.grid)
    recomputed = momentum_representation(fresh).values
    assert np.array_equal(recomputed.view(float), kept.view(float))


def test_normalized_takes_one_norm_pass(count_calls):
    raw = np.linspace(1.0, 2.0, 256).reshape(16, 16)
    norm_calls = count_calls(eprpair, "_l2_norm")
    f = GridFunction.normalized(raw, SMALL)
    assert len(norm_calls) == 1
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


@pytest.mark.parametrize("fill", [np.nan, np.inf, 1e200])
def test_normalized_rejects_non_finite_norm(fill):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="normalize"):
        GridFunction.normalized(np.full((16, 16), fill), SMALL)
