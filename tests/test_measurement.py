"""Unit tests for bipartite expansion, collapse, and simultaneity."""

import gc
import weakref

import numpy as np
import pytest

import eprlab.measurement as measurement
from eprlab.measurement import (
    BipartiteState,
    expand_bipartite,
    measure_subsystem,
    remote_state_pair,
    simultaneous_eigenstate_check,
)
from eprlab.qcore import (
    LinearOperator,
    StateVector,
    identity,
    sigma_x,
    sigma_z,
    states_equal_up_to_phase,
    tensor_product,
)

SINGLET = BipartiteState(
    np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0),
    ("up", "down"),
    ("up", "down"),
)


def random_bipartite(rng, di, dii):
    amps = rng.normal(size=(di, dii)) + 1j * rng.normal(size=(di, dii))
    return BipartiteState(amps)


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return LinearOperator((raw + raw.conj().T) / 2.0, hermitian=True)


def test_expand_singlet_along_z():
    result = expand_bipartite(SINGLET, sigma_z())
    assert result.n_outcomes == 2
    np.testing.assert_allclose(result.group_eigenvalues, [-1.0, 1.0])
    np.testing.assert_allclose(result.group_probabilities, [0.5, 0.5], atol=1e-12)


def test_expand_product_state_single_term():
    rng = np.random.default_rng(0)
    s_i = StateVector(np.array([1.0, 0.0]))
    s_ii = StateVector(rng.normal(size=3) + 1j * rng.normal(size=3))
    joint = tensor_product(s_i, s_ii)
    result = expand_bipartite(joint, sigma_z())
    assert [block.shape for block in result.coefficients] == [(1, 3), (1, 3)]
    norms = np.array([np.linalg.norm(block) for block in result.coefficients])
    assert np.sum(norms > 1e-12) == 1


def test_expand_reconstruction_random():
    # Random observables have one-row blocks; sigma_z (x) identity(k)
    # has two k-fold degenerate outcomes, so blocks of k rows.
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(50):
        di = int(rng.integers(2, 9))
        dii = int(rng.integers(2, 9))
        psi = random_bipartite(rng, di, dii)
        cases.append((psi, random_hermitian(rng, di), [1] * di))
    for k in range(1, 5):
        psi = random_bipartite(rng, 2 * k, int(rng.integers(2, 9)))
        cases.append((psi, sigma_z().kron(identity(k)), [k, k]))
    for psi, a, rows in cases:
        result = expand_bipartite(psi, a)
        assert [block.shape[0] for block in result.coefficients] == rows
        np.testing.assert_allclose(result.reconstruct(), psi.amps, atol=1e-12)
        assert abs(np.sum(result.group_probabilities) - 1.0) <= 1e-10


def test_expand_rejects_non_hermitian():
    op = LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        expand_bipartite(SINGLET, op)


def test_measure_singlet_anti_correlated_remote():
    rng = np.random.default_rng(2)
    up = StateVector(np.array([1.0, 0.0]))
    down = StateVector(np.array([0.0, 1.0]))
    for _ in range(50):
        outcome = measure_subsystem(SINGLET, sigma_z(), rng)
        partner = down if outcome.eigenvalue > 0 else up
        assert states_equal_up_to_phase(outcome.remote, partner, tol=1e-12)


def test_measure_product_state_remote_unchanged():
    rng = np.random.default_rng(3)
    s_i = StateVector(np.array([0.6, 0.8]))
    s_ii = StateVector(rng.normal(size=4) + 1j * rng.normal(size=4))
    joint = tensor_product(s_i, s_ii)
    for _ in range(20):
        outcome = measure_subsystem(joint, sigma_z(), rng)
        assert states_equal_up_to_phase(outcome.remote, s_ii, tol=1e-10)


def test_measure_frequencies_match_expansion():
    # Born-rule oracle: empirical outcome frequencies against the
    # expansion probabilities, 5 sigma binomial bounds.
    rng = np.random.default_rng(4)
    psi = random_bipartite(rng, 3, 3)
    a = random_hermitian(rng, 3)
    probs = expand_bipartite(psi, a).group_probabilities
    n = 100_000
    counts = np.zeros(probs.size)
    values = expand_bipartite(psi, a).group_eigenvalues
    for _ in range(n):
        outcome = measure_subsystem(psi, a, rng)
        counts[int(np.argmin(np.abs(values - outcome.eigenvalue)))] += 1
    for k in range(probs.size):
        sigma = np.sqrt(probs[k] * (1.0 - probs[k]) / n)
        assert abs(counts[k] / n - probs[k]) <= 5.0 * sigma


def test_measure_collapse_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(20):
        psi = random_bipartite(rng, 4, 3)
        a = random_hermitian(rng, 4)
        first = measure_subsystem(psi, a, rng)
        again = measure_subsystem(first.collapsed, a, rng)
        assert again.eigenvalue == pytest.approx(first.eigenvalue, abs=1e-9)


def test_degenerate_outcome_product_remote():
    # Projection onto the two-fold eigenspace stays rank one here, so a
    # remote state exists even though the outcome is degenerate.
    a = LinearOperator(np.diag([1.0, 1.0, 3.0]).astype(complex), hermitian=True)
    phi = np.array([0.6, 0.8], dtype=complex)
    amps = np.zeros((3, 2), dtype=complex)
    amps[0] = phi
    amps[1] = 2.0 * phi
    psi = BipartiteState(amps)
    outcome = measure_subsystem(psi, a, np.random.default_rng(0))
    assert outcome.eigenvalue == pytest.approx(1.0)
    assert states_equal_up_to_phase(outcome.remote, StateVector(phi), tol=1e-10)


def test_degenerate_outcome_entangled_remote_rejected():
    a = LinearOperator(np.diag([1.0, 1.0, 3.0]).astype(complex), hermitian=True)
    amps = np.zeros((3, 2), dtype=complex)
    amps[0, 0] = 1.0
    amps[1, 1] = 1.0
    psi = BipartiteState(amps)
    with pytest.raises(ValueError, match="entangled"):
        measure_subsystem(psi, a, np.random.default_rng(0))


def test_remote_state_pair_singlet_z_vs_x():
    # Expanding the singlet in the z basis (outcome up, index 1) and in
    # the x basis (outcome +, index 1) assigns system II the states
    # (0, 1) and (1, -1)/sqrt(2); their squared overlap is 1/2.
    psi_k, phi_r = remote_state_pair(SINGLET, sigma_z(), sigma_x(), 1, 1)
    expected_z = StateVector(np.array([0.0, 1.0]))
    expected_x = StateVector(np.array([1.0, -1.0]) / np.sqrt(2.0))
    assert states_equal_up_to_phase(psi_k, expected_z, tol=1e-12)
    assert states_equal_up_to_phase(phi_r, expected_x, tol=1e-12)
    assert abs(psi_k.inner(phi_r)) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_remote_state_pair_same_observable():
    rng = np.random.default_rng(6)
    psi = random_bipartite(rng, 2, 2)
    a = random_hermitian(rng, 2)
    s1, s2 = remote_state_pair(psi, a, a, 0, 0)
    assert states_equal_up_to_phase(s1, s2, tol=1e-10)


def test_remote_state_pair_product_state():
    rng = np.random.default_rng(7)
    s_ii = StateVector(rng.normal(size=2) + 1j * rng.normal(size=2))
    joint = tensor_product(StateVector(np.array([0.6, 0.8])), s_ii)
    exp_z = expand_bipartite(joint, sigma_z())
    exp_x = expand_bipartite(joint, sigma_x())
    k = int(np.argmax(exp_z.group_probabilities))
    r = int(np.argmax(exp_x.group_probabilities))
    s1, s2 = remote_state_pair(joint, sigma_z(), sigma_x(), k, r)
    assert states_equal_up_to_phase(s1, s_ii, tol=1e-10)
    assert states_equal_up_to_phase(s2, s_ii, tol=1e-10)


def test_remote_state_pair_index_out_of_range():
    with pytest.raises(ValueError):
        remote_state_pair(SINGLET, sigma_z(), sigma_x(), 2, 0)


def test_simultaneous_with_identity():
    s = StateVector(np.array([1.0, 0.0]))
    report = simultaneous_eigenstate_check(s, sigma_z(), identity(2), 1e-9)
    assert report.is_simultaneous
    assert report.eigen_a == pytest.approx(1.0)
    assert report.eigen_b == pytest.approx(1.0)


def test_not_simultaneous_for_z_and_x():
    s = StateVector(np.array([1.0, 0.0]))
    report = simultaneous_eigenstate_check(s, sigma_z(), sigma_x(), 1e-9)
    assert not report.is_simultaneous
    assert report.eigen_a == pytest.approx(1.0)
    assert report.eigen_b is None


def test_bell_state_simultaneous_for_commuting_pair():
    # Oracle: direct 4x4 eigen-check of zz and xx on (1,0,0,1)/sqrt(2).
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    zz = LinearOperator(np.kron(sz, sz), hermitian=True)
    xx = LinearOperator(np.kron(sx, sx), hermitian=True)
    bell = StateVector(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
    report = simultaneous_eigenstate_check(bell, zz, xx, 1e-9)
    assert report.is_simultaneous
    assert report.eigen_a == pytest.approx(1.0)
    assert report.eigen_b == pytest.approx(1.0)


def test_random_states_never_simultaneous_for_non_commuting():
    rng = np.random.default_rng(8)
    hits = 0
    for _ in range(10_000):
        s = StateVector(rng.normal(size=2) + 1j * rng.normal(size=2))
        report = simultaneous_eigenstate_check(s, sigma_z(), sigma_x(), 1e-6)
        hits += report.is_simultaneous
    assert hits == 0


def test_commuting_pair_common_eigenbasis_all_pass():
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = (raw + raw.conj().T) / 2.0
    a = LinearOperator(m, hermitian=True)
    b = LinearOperator(m @ m - m, hermitian=True)
    _, vectors = np.linalg.eigh(m)
    for k in range(4):
        report = simultaneous_eigenstate_check(
            StateVector(vectors[:, k]), a, b, 1e-7
        )
        assert report.is_simultaneous


def test_repeated_shots_run_eigh_once(count_calls):
    rng = np.random.default_rng(20)
    psi = random_bipartite(rng, 3, 4)
    a = random_hermitian(rng, 3)
    eigh_calls = count_calls(np.linalg, "eigh")
    for _ in range(1000):
        measure_subsystem(psi, a, rng)
    assert len(eigh_calls) == 1


def test_reused_objects_match_rebuilt_objects_bit_for_bit():
    gen = np.random.default_rng(21)
    amps = gen.normal(size=(4, 3)) + 1j * gen.normal(size=(4, 3))
    raw = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    entries = (raw + raw.conj().T) / 2.0
    psi = BipartiteState(amps)
    a = LinearOperator(entries, hermitian=True)
    reused_rng = np.random.default_rng(22)
    rebuilt_rng = np.random.default_rng(22)
    for _ in range(200):
        reused = measure_subsystem(psi, a, reused_rng)
        rebuilt = measure_subsystem(
            BipartiteState(amps), LinearOperator(entries, hermitian=True), rebuilt_rng
        )
        assert reused.eigenvalue == rebuilt.eigenvalue
        assert np.array_equal(reused.collapsed.amps, rebuilt.collapsed.amps)
        assert np.array_equal(reused.remote.amplitudes, rebuilt.remote.amplitudes)
    assert reused_rng.random() == rebuilt_rng.random()


def test_expansion_and_collapse_are_memoized_and_read_only():
    rng = np.random.default_rng(23)
    psi = random_bipartite(rng, 3, 2)
    a = random_hermitian(rng, 3)
    expansion = expand_bipartite(psi, a)
    assert expand_bipartite(psi, a) is expansion
    assert len(expansion.coefficients) == expansion.n_outcomes
    for array in (
        *(g.basis for g in expansion.groups), *expansion.coefficients,
        expansion.group_eigenvalues, expansion.group_probabilities,
        expansion.outcome_probabilities,
    ):
        assert not array.flags.writeable
    for k in range(expansion.n_outcomes):
        shot = expansion.measurement(k)
        assert expansion.measurement(k) is shot
        assert expansion.remote_state(k) is shot.remote
        assert not shot.collapsed.amps.flags.writeable
        assert shot.collapsed.labels_i == psi.labels_i
    assert len(expansion._measurements) == expansion.n_outcomes


def test_state_keeps_a_bounded_expansion_memo():
    rng = np.random.default_rng(24)
    psi = SINGLET
    held = []
    for _ in range(1000):
        op = random_hermitian(rng, 2)
        expansion = expand_bipartite(psi, op)
        held.append((weakref.ref(op), weakref.ref(expansion)))
    del op, expansion
    gc.collect()
    alive = [(o, e) for o, e in held if o() is not None or e() is not None]
    assert len(alive) <= 1


def test_degenerate_remote_state_is_the_factor_from_one_svd(count_calls):
    # sigma_z (x) identity on a 4-dimensional system I has two doubly
    # degenerate outcomes; a product state leaves a rank-one block for
    # each, whose remote state is the complex system-II factor itself.
    rng = np.random.default_rng(25)
    s_i = StateVector(rng.normal(size=4) + 1j * rng.normal(size=4))
    s_ii = StateVector(rng.normal(size=3) + 1j * rng.normal(size=3))
    joint = tensor_product(s_i, s_ii)
    a = sigma_z().kron(identity(2))
    expansion = expand_bipartite(joint, a)
    svd_calls = count_calls(np.linalg, "svd")
    remote = expansion.remote_state(0)
    assert len(svd_calls) == 1
    assert states_equal_up_to_phase(remote, s_ii, tol=1e-12)


def subsystem_cases():
    rng = np.random.default_rng(40)
    cases = [
        (random_bipartite(rng, dim, 10 - dim), random_hermitian(rng, dim))
        for dim in range(2, 9)
    ]
    product = tensor_product(
        StateVector(rng.normal(size=4) + 1j * rng.normal(size=4)),
        StateVector(rng.normal(size=3)),
    )
    cases.append((product, sigma_z().kron(identity(2))))  # degenerate
    up = StateVector(np.array([1.0, 0.0]))
    cases.append((tensor_product(up, up), sigma_z()))  # outcome -1 has probability 0
    return cases


@pytest.mark.parametrize("case", range(9))
def test_measure_subsystem_draws_what_choice_draws(case):
    psi, a = subsystem_cases()[case]
    expansion = expand_bipartite(psi, a)
    measured_rng = np.random.default_rng(41 + case)
    choice_rng = np.random.default_rng(41 + case)
    for _ in range(2000):
        shot = measure_subsystem(psi, a, measured_rng)
        k = int(choice_rng.choice(expansion.n_outcomes, p=expansion.outcome_probabilities))
        assert shot is expansion.measurement(k)
    assert measured_rng.bit_generator.state == choice_rng.bit_generator.state


def test_measure_subsystem_builds_its_memo_once(count_calls):
    rng = np.random.default_rng(42)
    psi = random_bipartite(rng, 3, 4)
    a = random_hermitian(rng, 3)
    cumsum_calls = count_calls(np, "cumsum")
    remote_states = count_calls(measurement, "StateVector")
    for _ in range(1000):
        measure_subsystem(psi, a, rng)
    expansion = expand_bipartite(psi, a)
    assert len(cumsum_calls) == 1
    assert len(remote_states) <= expansion.n_outcomes
    assert not expansion._outcome_cdf.flags.writeable
    assert expansion._outcome_cdf[-1] == 1.0
