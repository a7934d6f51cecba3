"""Unit tests for the finite-dimensional linear algebra core.

Oracle values are computed inline with raw numpy, independent of the
module under test.
"""

import numpy as np
import pytest

from eprlab.constants import HBAR
from eprlab.qcore import (
    BipartiteState,
    LinearOperator,
    StateVector,
    apply,
    commutator,
    eigengroups,
    evolve,
    expectation,
    identity,
    is_eigenstate,
    measure_observable,
    sigma_x,
    sigma_y,
    sigma_z,
    states_equal_up_to_phase,
    tensor_product,
)

UP = StateVector(np.array([1.0, 0.0]))
PLUS = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))


def random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(amps)


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return LinearOperator((raw + raw.conj().T) / 2.0, hermitian=True)


def central_difference_momentum(x):
    """Banded central-difference p = -i hbar D on a uniform grid.

    Exactly Hermitian: D is antisymmetric, including the one-sided rows.
    """
    n = x.size
    h = x[1] - x[0]
    d = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    d[idx, idx + 1] = 1.0 / (2.0 * h)
    d[idx + 1, idx] = -1.0 / (2.0 * h)
    return LinearOperator(-1j * HBAR * d, hermitian=True)


def test_state_vector_normalizes():
    s = StateVector(np.array([3.0, 4.0]))
    assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1.0) <= 1e-12
    assert s.basis_labels == ("0", "1")


def test_state_vector_rejects_zero():
    with pytest.raises(ValueError):
        StateVector(np.zeros(3))


def test_hermitian_flag_validated():
    with pytest.raises(ValueError):
        LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)


def test_apply_identity():
    s = random_state(np.random.default_rng(0), 5)
    out = apply(identity(5), s)
    np.testing.assert_allclose(out, s.amplitudes, atol=1e-15)


def test_apply_sigma_x_flips():
    out = apply(sigma_x(), UP)
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(identity(3), UP)


def test_apply_momentum_on_plane_wave():
    # Sampled e^{ipx} is mapped to about p times itself away from the
    # one-sided boundary rows; central-difference error is O(h^2).
    n, p = 801, 1.3
    x = np.linspace(0.0, 8.0, n)
    h = x[1] - x[0]
    wave = StateVector(np.exp(1j * p * x / HBAR))
    out = apply(central_difference_momentum(x), wave)
    interior = slice(1, n - 1)
    residual = np.max(np.abs(out[interior] - p * wave.amplitudes[interior]))
    amp = np.max(np.abs(wave.amplitudes))
    assert residual <= 0.5 * p**3 * h**2 * amp


def test_expectation_trivial_eigenstate():
    assert expectation(sigma_z(), UP) == pytest.approx(1.0, abs=1e-12)


def test_expectation_sigma_x_symmetry():
    assert abs(expectation(sigma_x(), UP)) <= 1e-12


def test_expectation_zz_on_singlet():
    # Oracle: raw 4x4 kron evaluation.
    sz = np.diag([1.0, -1.0]).astype(complex)
    zz = np.kron(sz, sz)
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    oracle = np.vdot(singlet, zz @ singlet)
    got = expectation(
        LinearOperator(zz, hermitian=True), StateVector(singlet)
    )
    assert oracle == pytest.approx(-1.0, abs=1e-15)
    assert got == pytest.approx(oracle, abs=1e-12)


def test_expectation_hermitian_is_real():
    rng = np.random.default_rng(7)
    for _ in range(20):
        op = random_hermitian(rng, 6)
        s = random_state(rng, 6)
        assert abs(expectation(op, s).imag) <= 1e-12


def test_commutator_self_vanishes():
    op = random_hermitian(np.random.default_rng(1), 4)
    np.testing.assert_allclose(
        commutator(op, op).entries, np.zeros((4, 4)), atol=1e-12
    )


def test_commutator_pauli_xy():
    # Oracle: direct 2x2 multiplication of the Pauli matrices.
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    oracle = sx @ sy - sy @ sx
    got = commutator(sigma_x(), sigma_y())
    np.testing.assert_allclose(oracle, 2j * np.diag([1.0, -1.0]), atol=1e-15)
    np.testing.assert_allclose(got.entries, oracle, atol=1e-12)
    assert not got.hermitian


def test_commutator_antisymmetry_and_anti_hermiticity():
    rng = np.random.default_rng(2)
    a = random_hermitian(rng, 5)
    b = random_hermitian(rng, 5)
    c = commutator(a, b).entries
    np.testing.assert_allclose(c, -commutator(b, a).entries, atol=1e-12)
    np.testing.assert_allclose(c.conj().T, -c, atol=1e-12)


def test_commutator_position_momentum_on_grid():
    # ([x, p] f)_i = i hbar (f_{i+1} + f_{i-1}) / 2 for the banded
    # stencil, so the deviation from i hbar f is hbar h^2 |f''| / 2.
    n = 513
    x = np.linspace(-8.0, 8.0, n)
    h = x[1] - x[0]
    xhat = LinearOperator(np.diag(x).astype(complex), hermitian=True)
    phat = central_difference_momentum(x)
    f = np.exp(-(x**2) / 2.0)
    comm = commutator(xhat, phat).entries @ f
    interior = slice(1, n - 1)
    residual = np.max(np.abs(comm[interior] - 1j * HBAR * f[interior]))
    fpp_max = 1.0  # max |f''| for the unit Gaussian, attained at x = 0
    assert residual <= 1.5 * HBAR * h**2 * fpp_max / 2.0


def test_is_eigenstate_trivial():
    assert is_eigenstate(sigma_z(), UP, 1e-9) == pytest.approx(1.0)
    assert is_eigenstate(sigma_x(), UP, 1e-9) is None


def test_is_eigenstate_periodic_plane_wave():
    # On a periodic grid a commensurate plane wave is an exact
    # eigenvector of the circulant stencil; the eigenvalue differs from
    # p by the O(h^2) truncation of sin(ph)/h.
    n, length = 256, 16.0
    h = length / n
    x = np.arange(n) * h
    p = 2.0 * np.pi * 5 / length
    d = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    d[idx, (idx + 1) % n] = 1.0 / (2.0 * h)
    d[idx, (idx - 1) % n] = -1.0 / (2.0 * h)
    phat = LinearOperator(-1j * HBAR * d, hermitian=True)
    wave = StateVector(np.exp(1j * p * x / HBAR))
    lam = is_eigenstate(phat, wave, tol=1e-9)
    assert lam is not None
    assert abs(lam.imag) <= 1e-12
    assert lam.real == pytest.approx(HBAR * np.sin(p * h / HBAR) / h, abs=1e-12)
    assert abs(lam.real - p) <= 0.2 * p**3 * h**2


def test_eigengroups_cluster_degenerate_spectrum():
    op = LinearOperator(np.diag([1.0, 1.0, 3.0]).astype(complex), hermitian=True)
    groups = eigengroups(op)
    assert [g.basis.shape[1] for g in groups] == [2, 1]
    assert groups[0].value == pytest.approx(1.0)
    assert groups[1].value == pytest.approx(3.0)


def test_measure_certain_outcome():
    rec = measure_observable(sigma_z(), UP, np.random.default_rng(0))
    assert rec.eigenvalue == pytest.approx(1.0)
    assert rec.probability == pytest.approx(1.0)
    assert states_equal_up_to_phase(rec.post_state, UP)


def test_measure_born_frequencies():
    # Oracle: explicit projections give P(+1) = P(-1) = 1/2.
    rng = np.random.default_rng(42)
    n = 100_000
    ups = 0
    for _ in range(n):
        rec = measure_observable(sigma_z(), PLUS, rng)
        assert rec.probability == pytest.approx(0.5, abs=1e-12)
        ups += rec.eigenvalue > 0
    assert abs(ups / n - 0.5) <= 4.0 / np.sqrt(n)


def test_measure_post_state_is_eigenstate():
    rng = np.random.default_rng(3)
    for _ in range(25):
        op = random_hermitian(rng, 5)
        s = random_state(rng, 5)
        rec = measure_observable(op, s, rng)
        assert is_eigenstate(op, rec.post_state, 1e-9) is not None


def test_measure_rejects_non_hermitian():
    op = LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        measure_observable(op, UP, np.random.default_rng(0))


def test_evolve_zero_hamiltonian():
    s = random_state(np.random.default_rng(4), 3)
    out = evolve(LinearOperator(np.zeros((3, 3)), hermitian=True), 2.7, s)
    assert states_equal_up_to_phase(out, s, tol=1e-12)
    np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-12)


def test_evolve_sigma_z_quarter_period():
    # Oracle: diagonal exponential, phases e^{-i t} and e^{+i t}.
    t = np.pi / 2.0 * HBAR
    out = evolve(sigma_z(), t, PLUS)
    oracle = np.array([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
    oracle = oracle / np.sqrt(2.0)
    assert states_equal_up_to_phase(out, StateVector(oracle), tol=1e-12)


def test_evolve_preserves_inner_products():
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = random_hermitian(rng, 6)
        t = rng.uniform(-3.0, 3.0)
        s1 = random_state(rng, 6)
        s2 = random_state(rng, 6)
        before = s1.inner(s2)
        after = evolve(h, t, s1).inner(evolve(h, t, s2))
        assert abs(after - before) <= 1e-10
        assert abs(evolve(h, t, s1).norm - 1.0) <= 1e-12


def test_commuting_polynomials_share_eigenbasis():
    rng = np.random.default_rng(6)
    m = random_hermitian(rng, 5)
    a = m
    b = LinearOperator(
        m.entries @ m.entries + 2.0 * m.entries, hermitian=True
    )
    np.testing.assert_allclose(
        commutator(a, b).entries, np.zeros((5, 5)), atol=1e-10
    )
    _, vectors = np.linalg.eigh(m.entries)
    for k in range(5):
        v = StateVector(vectors[:, k])
        assert is_eigenstate(a, v, 1e-8) is not None
        assert is_eigenstate(b, v, 1e-7) is not None


def test_tensor_product_basis_states():
    down = StateVector(np.array([0.0, 1.0]))
    joint = tensor_product(UP, down)
    oracle = np.zeros((2, 2))
    oracle[0, 1] = 1.0
    np.testing.assert_allclose(joint.amps, oracle, atol=1e-15)
    assert abs(np.linalg.norm(joint.amps) - 1.0) <= 1e-12


def test_tensor_product_labels():
    a = StateVector(np.array([1.0, 0.0]), ("u", "d"))
    b = StateVector(np.array([0.0, 1.0]), ("u", "d"))
    joint = tensor_product(a, b)
    assert joint.labels_i == ("u", "d")
    assert joint.flatten().basis_labels == ("u,u", "u,d", "d,u", "d,d")


def test_bipartite_schmidt_rank_one_for_products():
    rng = np.random.default_rng(8)
    joint = tensor_product(random_state(rng, 3), random_state(rng, 4))
    coeffs = joint.schmidt_coefficients()
    assert coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(coeffs[1:] <= 1e-12)


def test_states_equal_up_to_phase():
    phased = StateVector(np.exp(1j * 0.61) * UP.amplitudes)
    assert states_equal_up_to_phase(UP, phased)
    assert not states_equal_up_to_phase(UP, PLUS)


def test_eigendecomposition_runs_once_per_operator(count_calls):
    eigh_calls = count_calls(np.linalg, "eigh")
    rng = np.random.default_rng(11)
    op = random_hermitian(rng, 4)
    s = random_state(rng, 4)
    groups = eigengroups(op)
    for _ in range(100):
        measure_observable(op, s, rng)
    evolve(op, 0.3, s)
    assert all(g is h for g, h in zip(eigengroups(op), groups, strict=True))
    assert len(eigh_calls) == 1


def test_cached_eigenbases_are_read_only():
    op = random_hermitian(np.random.default_rng(12), 3)
    for group in eigengroups(op):
        assert not group.basis.flags.writeable
        with pytest.raises(ValueError):
            group.basis[0, 0] = 0.0


def test_pauli_operators_are_shared_instances():
    for pauli in (sigma_x, sigma_y, sigma_z):
        assert pauli() is pauli()
        assert not pauli().entries.flags.writeable
