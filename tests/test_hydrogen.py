"""Unit tests for hydrogenic orbitals and quadrature expectation values.

Special-function values and the Simpson rule are cross-checked against
scipy, which is used only here, never by the implementation; expectation
values are checked against closed forms computed independently of the
quadrature.
"""

import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import eval_genlaguerre, lpmv, sph_harm_y

from eprlab.constants import BOHR_RADIUS, HBAR
from eprlab import hydrogen
from eprlab.grids import UniformGrid1D
from eprlab.hydrogen import (
    Orbital,
    RadialGrid,
    assoc_legendre,
    central_difference_momentum,
    eval_orbital,
    expect_r,
    expect_radial_p_ground,
    grid_commutator_check,
    laguerre,
    orbital_overlap,
    orthonormality_table,
    radial_wavefunction,
    spherical_harmonic,
    _simpson,
)


def closed_form_mean_r(n, l):
    # Independent oracle: <r> = (a_B / 2) (3 n^2 - l (l + 1)).
    return 0.5 * BOHR_RADIUS * (3 * n * n - l * (l + 1))


def test_orbital_rejects_bad_quantum_numbers():
    with pytest.raises(ValueError):
        Orbital(0, 0, 0)
    with pytest.raises(ValueError):
        Orbital(2, 2, 0)
    with pytest.raises(ValueError):
        Orbital(2, 1, 2)


def test_laguerre_matches_scipy():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 30.0, 50)
    for k in range(6):
        for alpha in (1, 3, 5):
            np.testing.assert_allclose(
                laguerre(k, alpha, x),
                eval_genlaguerre(k, alpha, x),
                rtol=1e-10,
                atol=1e-10,
            )


def test_assoc_legendre_matches_scipy():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, 50)
    for l in range(4):
        for m in range(l + 1):
            np.testing.assert_allclose(
                assoc_legendre(l, m, x), lpmv(m, l, x), atol=1e-12
            )


def test_spherical_harmonic_matches_scipy():
    rng = np.random.default_rng(2)
    theta = rng.uniform(0.0, np.pi, 20)
    phi = rng.uniform(0.0, 2.0 * np.pi, 20)
    for l in range(4):
        for m in range(-l, l + 1):
            np.testing.assert_allclose(
                spherical_harmonic(l, m, theta, phi),
                sph_harm_y(l, m, theta, phi),
                atol=1e-12,
            )


@pytest.mark.parametrize("points", [17, 18, 101, 4096, 4097])
def test_simpson_matches_scipy(points):
    # Odd counts take the plain composite rule; even counts (the default
    # radial grid has 4096 points) also take the last-interval correction.
    x = np.linspace(0.0, 7.0, points)
    spacing = 7.0 / (points - 1)
    for y in (np.exp(-x) * np.cos(3.0 * x), x**2 * np.exp(-x), np.sin(x) + 2.0):
        assert _simpson(y, spacing) == pytest.approx(simpson(y, x=x), rel=1e-12)


def test_import_does_not_load_scipy():
    # scipy is a test oracle only; importing it at runtime costs most of
    # the cold CLI start-up that acceptance criterion 1 bounds.
    code = (
        "import sys, eprlab; "
        "print(','.join(m for m in sys.modules if m.startswith('scipy')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == ""


def test_ground_state_value_at_origin():
    value = eval_orbital(Orbital(1, 0, 0), 0.0, 0.3, 1.1)
    assert value == pytest.approx(1.0 / math.sqrt(np.pi * BOHR_RADIUS**3), rel=1e-12)


def test_ground_state_value_at_one_bohr():
    value = eval_orbital(Orbital(1, 0, 0), BOHR_RADIUS, 1.0, 2.0)
    expected = math.exp(-1.0) / math.sqrt(np.pi * BOHR_RADIUS**3)
    assert value == pytest.approx(expected, rel=1e-12)


def test_ground_state_norm_quadrature():
    o = Orbital(1, 0, 0)
    assert orbital_overlap(o, o) == pytest.approx(1.0, abs=1e-8)


def test_radial_wavefunctions_match_textbook_forms():
    r = np.linspace(0.0, 12.0, 200)
    np.testing.assert_allclose(
        radial_wavefunction(1, 0, r), 2.0 * np.exp(-r), rtol=1e-12
    )
    np.testing.assert_allclose(
        radial_wavefunction(2, 0, r),
        (2.0 - r) * np.exp(-r / 2.0) / (2.0 * math.sqrt(2.0)),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        radial_wavefunction(2, 1, r),
        r * np.exp(-r / 2.0) / math.sqrt(24.0),
        atol=1e-12,
    )


def test_expect_r_ground_state():
    assert expect_r(1, 0) == pytest.approx(1.5 * BOHR_RADIUS, rel=1e-6)


def test_expect_r_named_excited_states():
    assert expect_r(2, 1) == pytest.approx(5.0 * BOHR_RADIUS, rel=1e-6)
    assert expect_r(2, 0) == pytest.approx(6.0 * BOHR_RADIUS, rel=1e-6)


def test_expect_r_closed_form_through_n4():
    for n in range(1, 5):
        for l in range(n):
            assert expect_r(n, l) == pytest.approx(
                closed_form_mean_r(n, l), rel=1e-6
            )


def test_expect_r_rejects_small_grid():
    with pytest.raises(ValueError, match="grid too small"):
        expect_r(2, 0, RadialGrid(30.0, 4096))


def test_expect_r_doubling_reduces_error_at_fourth_order():
    errors = []
    for pts in (513, 1025, 2049):
        errors.append(abs(expect_r(1, 0, RadialGrid(40.0, pts)) - 1.5))
    for coarse, fine in zip(errors[:-1], errors[1:]):
        order = math.log2(coarse / fine)
        assert 3.5 <= order <= 4.5


def test_radial_momentum_bare_is_imaginary():
    value = expect_radial_p_ground()
    assert abs(value.imag - HBAR / BOHR_RADIUS) <= 1e-6 * HBAR / BOHR_RADIUS
    assert value.imag > 0.0
    assert abs(value.real) <= 1e-8


def test_radial_momentum_hermitized_vanishes():
    # Integration-by-parts oracle: the boundary-free Hermitized form
    # -i hbar (d/dr + 1/r) has expectation exactly 0 on the ground state.
    value = expect_radial_p_ground(hermitized=True)
    assert abs(value) <= 1e-8


def test_orthonormality_through_n3():
    for o1, o2, value in orthonormality_table(3):
        target = 1.0 if o1 == o2 else 0.0
        assert abs(value - target) <= 1e-6


def test_commutator_check_gaussian_order_two():
    report = grid_commutator_check()
    assert 1.8 <= report.convergence_order <= 2.2
    # Residual constant: hbar max|f''| / 2 = 0.5 for the unit Gaussian.
    assert report.residual_constant == pytest.approx(0.5, rel=0.05)
    assert report.max_interior_residual <= report.residual_constant * (
        report.spacing**2 * 1.0001
    )


def test_commutator_check_rejects_non_decaying():
    with pytest.raises(ValueError, match="decay"):
        grid_commutator_check(UniformGrid1D(length=12.0, points=513))


def test_commutator_check_custom_grid():
    grid = UniformGrid1D(length=24.0, points=257)
    report = grid_commutator_check(grid=grid)
    assert 1.8 <= report.convergence_order <= 2.2
    assert report.spacing == pytest.approx(24.0 / 257)


def test_orthonormality_table_is_per_pair_overlap_bit_for_bit():
    table = orthonormality_table(3)
    assert len(table) == 14 * 15 // 2
    for o1, o2, value in table:
        assert value == orbital_overlap(o1, o2)


def test_orthonormality_table_samples_each_orbital_once(count_calls):
    radial_calls = count_calls(hydrogen, "radial_wavefunction")
    harmonic_calls = count_calls(hydrogen, "spherical_harmonic")
    orthonormality_table(3)
    # One radial grid per pair's larger n: (n, l) with n <= that n.
    radial = Counter((n, l, len(r), float(r[-1])) for n, l, r in radial_calls)
    assert set(radial.values()) == {1}
    assert len(radial) == 1 + 3 + 6
    harmonic = Counter((l, m) for l, m, _theta, _phi in harmonic_calls)
    assert set(harmonic.values()) == {1}
    assert len(harmonic) == 1 + 3 + 5


def dense_commutator_residual(grid):
    """The residual computed with the dense operator, as an oracle."""
    x = grid.coordinates
    f = np.exp(-(x**2) / 2.0).astype(complex)
    p = central_difference_momentum(grid).entries
    residual = np.abs(x * (p @ f) - p @ (x * f) - 1j * HBAR * f)
    return float(np.max(residual[1:-1]))


@pytest.mark.parametrize("points", [5, 6, 7, 8, 9, 16, 17, 33, 100])
def test_slice_stencil_matches_dense_operator(points):
    # BLAS may fuse the second multiply-add of a row, so agreement is to
    # one rounding of each of the row's two products.
    grid = UniformGrid1D(length=3.0, points=points)
    rng = np.random.default_rng(points)
    f = rng.normal(size=points) + 1j * rng.normal(size=points)
    p = central_difference_momentum(grid).entries
    dense = p @ f
    sliced = hydrogen._apply_momentum(grid, f)
    terms = np.abs(p) @ np.abs(f)
    assert np.all(np.abs(sliced - dense) <= 2.0 * np.finfo(float).eps * terms)
    assert sliced[0] == p[0, 1] * f[1]
    assert sliced[-1] == p[-1, -2] * f[-2]


@pytest.mark.parametrize(
    "length, points", [(16.0, 513), (16.0, 1025), (14.0, 64), (13.5, 777), (20.0, 101)]
)
def test_commutator_residuals_match_dense_operator_bit_for_bit(length, points):
    # The largest residual sits at x = 0, where the row's two products
    # are equal, so a fused or an unfused sum rounds alike.
    grid = UniformGrid1D(length=length, points=points)
    report = grid_commutator_check(grid)
    assert report.max_interior_residual == dense_commutator_residual(grid)
    assert report.refined_residual == dense_commutator_residual(grid.refined())


def test_commutator_check_builds_no_dense_matrix(monkeypatch):
    def refuse(grid):
        raise AssertionError("dense momentum matrix built")

    monkeypatch.setattr(hydrogen, "central_difference_momentum", refuse)
    report = grid_commutator_check(UniformGrid1D(length=16.0, points=1025))
    assert 1.8 <= report.convergence_order <= 2.2
