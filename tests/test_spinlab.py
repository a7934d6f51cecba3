"""Unit tests for the singlet lab and the rival source hypotheses.

Analytic oracles, computed by hand and independent of the sampler:
the singlet correlation is E = -a.b; the deterministic preassigned
model gives, per hidden configuration c = +-1, the outcome product
sign(c az) sign(-c bz), so its correlation is the two-configuration
average; the probabilistic rule gives E = -az bz.
"""

import numpy as np
import pytest

from eprlab.measurement import expand_bipartite, measure_subsystem
from eprlab.qcore import (
    BipartiteState,
    LinearOperator,
    StateVector,
    born_projections,
    expectation,
    sigma_z,
    states_equal_up_to_phase,
)
from eprlab import spinlab
from eprlab.cli import MAX_SAMPLES
from eprlab.rng import make_stream
from eprlab.spinlab import (
    DEFAULT_BLOCK_SIZE,
    AnalyzerSetting,
    PairCounts,
    PairOutcome,
    PreassignedDefinite,
    QuantumEntangled,
    _switch_electron_up,
    chsh_blocked,
    joint_law,
    pair_counts_blocked,
    sample_pair,
    singlet,
    spin_operator,
    switch_protocol_blocked,
    untangle,
    untangle_counts,
)

Z = AnalyzerSetting.from_degrees(0.0, 0.0)
X = AnalyzerSetting.from_degrees(90.0, 0.0)

CHSH_OPTIMAL = (
    AnalyzerSetting.from_degrees(0.0, 0.0),
    AnalyzerSetting.from_degrees(90.0, 0.0),
    AnalyzerSetting.from_degrees(45.0, 0.0),
    AnalyzerSetting.from_degrees(135.0, 0.0),
)


def chsh_s(counts):
    # S = E(a,b) - E(a,b2) + E(a2,b) + E(a2,b2) from chsh_blocked's tallies.
    e = [c.correlation for c in counts]
    return e[0] - e[1] + e[2] + e[3]


def preassigned_deterministic_oracle(a, b):
    # Brute force over the two hidden configurations.
    def sign_plus(x):
        return 1.0 if x >= 0.0 else -1.0

    az, bz = a.vector[2], b.vector[2]
    total = 0.0
    for c in (1.0, -1.0):
        total += sign_plus(c * az) * sign_plus(-c * bz)
    return total / 2.0


def preassigned_law_oracle(a, b, rule):
    # Brute force over the four joint outcomes and the two hidden
    # configurations, one rule at a time.
    az, bz = a.vector[2], b.vector[2]
    law = []
    for electron, positron in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        total = 0.0
        for c in (1.0, -1.0):
            if rule == "deterministic":
                e_up = c * az >= 0.0
                p_up = -c * bz >= 0.0
                weight = float(e_up == (electron > 0) and p_up == (positron > 0))
            else:
                e_up = (1.0 + c * az) / 2.0
                p_up = (1.0 - c * bz) / 2.0
                weight = (e_up if electron > 0 else 1.0 - e_up) * (
                    p_up if positron > 0 else 1.0 - p_up
                )
            total += weight / 2.0
        law.append(total)
    return law


def test_singlet_amplitudes():
    state = singlet()
    flat = state.flatten().amplitudes
    np.testing.assert_allclose(
        flat, np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0), atol=1e-15
    )
    assert abs(np.linalg.norm(state.amps) - 1.0) <= 1e-12


def test_singlet_zz_expectation():
    zz = spin_operator(Z).kron(spin_operator(Z))
    value = expectation(zz, singlet().flatten())
    assert value.real == pytest.approx(-1.0, abs=1e-12)
    assert abs(value.imag) <= 1e-12


def test_analyzer_setting_validation():
    with pytest.raises(ValueError):
        AnalyzerSetting(np.array([1.0, 1.0, 0.0]))
    for bad in ([np.nan, 0.0, 0.0], [0.0, 0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            AnalyzerSetting(np.array(bad))
    s = AnalyzerSetting.from_degrees(90.0, 90.0)
    np.testing.assert_allclose(s.vector, [0.0, 1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize(
    "polar, azimuthal, vector",
    [
        (90.0, 0.0, [1.0, 0.0, 0.0]),
        (90.0, 90.0, [0.0, 1.0, 0.0]),
        (180.0, 0.0, [0.0, 0.0, -1.0]),
        (270.0, -180.0, [1.0, 0.0, 0.0]),
        (450.0, 270.0, [0.0, -1.0, 0.0]),
    ],
)
def test_from_degrees_is_exact_at_quarter_turns(polar, azimuthal, vector):
    assert AnalyzerSetting.from_degrees(polar, azimuthal).vector.tolist() == vector


@pytest.mark.parametrize(
    "polar, azimuthal", [(30.0, 10.0), (135.0, 0.0), (37.0, 101.0)]
)
def test_from_degrees_elsewhere_is_from_angles_bit_for_bit(polar, azimuthal):
    setting = AnalyzerSetting.from_degrees(polar, azimuthal)
    expected = AnalyzerSetting.from_angles(np.deg2rad(polar), np.deg2rad(azimuthal))
    assert np.array_equal(setting.vector, expected.vector)


def test_spin_operator_along_axes():
    np.testing.assert_allclose(
        spin_operator(Z).entries, np.diag([1.0, -1.0]), atol=1e-12
    )
    np.testing.assert_allclose(
        spin_operator(X).entries, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12
    )
    tilted = AnalyzerSetting.from_degrees(37.0, 101.0)
    op = spin_operator(tilted)
    values = np.linalg.eigvalsh(op.entries)
    np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-12)


def test_pair_outcome_validation():
    with pytest.raises(ValueError):
        PairOutcome(0, 1)
    assert PairOutcome(1, -1).product == -1


def test_parallel_axes_strict_anticorrelation_both_models():
    # Per-pair route through actual collapse, checked pair by pair.
    for model in (QuantumEntangled(), PreassignedDefinite()):
        rng = np.random.default_rng(10)
        ups = 0
        n = 600
        for _ in range(n):
            outcome = sample_pair(model, Z, Z, rng)
            assert outcome.product == -1
            ups += outcome.electron > 0
        assert abs(ups / n - 0.5) <= 4.0 / np.sqrt(n)


def test_parallel_axes_identical_statistics_vectorized():
    n = 1_000_000
    for model in (QuantumEntangled(), PreassignedDefinite()):
        counts = pair_counts_blocked(model, Z, Z, n, seed=11)
        assert counts.up_up == 0
        assert counts.down_down == 0
        assert abs(counts.up_down / n - 0.5) <= 4.0 / np.sqrt(n)
        assert abs(counts.down_up / n - 0.5) <= 4.0 / np.sqrt(n)


def test_perpendicular_axes_uncorrelated():
    n = 100_000
    value = pair_counts_blocked(QuantumEntangled(), Z, X, n, seed=12).correlation
    assert abs(value) <= 4.0 / np.sqrt(n)


def test_entangled_correlation_parallel_exact():
    value = pair_counts_blocked(QuantumEntangled(), Z, Z, 10_000, seed=13).correlation
    assert value == -1.0


def test_entangled_correlation_matches_cosine_oracle():
    n = 100_000
    for degrees in (30.0, 60.0, 120.0):
        b = AnalyzerSetting.from_degrees(degrees, 0.0)
        value = pair_counts_blocked(QuantumEntangled(), Z, b, n, seed=14).correlation
        assert abs(value - (-Z.dot(b))) <= 4.0 / np.sqrt(n)


def test_entangled_sampling_dual_route_agreement():
    # The blocked path and the per-pair collapse path estimate the
    # same correlation; both must sit on the analytic value.
    n = 1_500
    b = AnalyzerSetting.from_degrees(60.0, 0.0)
    rng = np.random.default_rng(15)
    looped = sum(
        sample_pair(QuantumEntangled(), Z, b, rng).product for _ in range(n)
    ) / n
    batched = pair_counts_blocked(QuantumEntangled(), Z, b, n, seed=16).correlation
    assert abs(looped - (-0.5)) <= 4.0 / np.sqrt(n)
    assert abs(batched - (-0.5)) <= 4.0 / np.sqrt(n)


def test_preassigned_deterministic_matches_bruteforce_oracle():
    rng = np.random.default_rng(17)
    model = PreassignedDefinite()
    for _ in range(10):
        a = AnalyzerSetting.from_degrees(
            rng.uniform(1.0, 179.0), rng.uniform(0.0, 360.0)
        )
        b = AnalyzerSetting.from_degrees(
            rng.uniform(1.0, 179.0), rng.uniform(0.0, 360.0)
        )
        oracle = preassigned_deterministic_oracle(a, b)
        # Generic settings: both hidden configurations give the same
        # product, so the estimate equals the oracle with no noise.
        value = pair_counts_blocked(model, a, b, 2_000, seed=17).correlation
        assert value == pytest.approx(oracle, abs=1e-12)


def test_joint_laws_match_closed_forms():
    rng = np.random.default_rng(31)
    pairs = [
        tuple(
            AnalyzerSetting.from_degrees(rng.uniform(0.0, 180.0), rng.uniform(0.0, 360.0))
            for _ in range(2)
        )
        for _ in range(20)
    ]
    # Exactly zero z-components, where the sign rule's tie-break decides.
    equator = AnalyzerSetting(np.array([1.0, 0.0, 0.0]))
    pairs += [(equator, equator), (equator, Z), (Z, equator)]
    for a, b in pairs:
        ab = a.dot(b)
        np.testing.assert_allclose(
            joint_law(QuantumEntangled(), a, b),
            [(1.0 - ab) / 4.0, (1.0 + ab) / 4.0, (1.0 + ab) / 4.0, (1.0 - ab) / 4.0],
            rtol=0.0,
            atol=1e-12,
        )
        for rule in ("deterministic", "probabilistic"):
            np.testing.assert_allclose(
                joint_law(PreassignedDefinite(rule), a, b),
                preassigned_law_oracle(a, b, rule),
                rtol=0.0,
                atol=1e-12,
            )


def test_preassigned_probabilistic_matches_projection_oracle():
    model = PreassignedDefinite(rule="probabilistic")
    n = 100_000
    for degrees in (0.0, 45.0, 90.0):
        b = AnalyzerSetting.from_degrees(degrees, 0.0)
        value = pair_counts_blocked(model, Z, b, n, seed=18).correlation
        oracle = -Z.vector[2] * b.vector[2]
        assert abs(value - oracle) <= 4.0 / np.sqrt(n)


def test_preassigned_rejects_unknown_rule():
    with pytest.raises(ValueError):
        PreassignedDefinite(rule="telepathic")


def test_chsh_entangled_optimal_angles():
    a, a2, b, b2 = CHSH_OPTIMAL
    s = chsh_s(chsh_blocked(QuantumEntangled(), a, a2, b, b2, 200_000, seed=19))
    assert abs(abs(s) - 2.0 * np.sqrt(2.0)) <= 0.02


def test_chsh_preassigned_bounded_by_two():
    rng = np.random.default_rng(20)
    n = 10_000
    for _ in range(30):
        angles = rng.uniform(0.0, 180.0, 4)
        azimuths = rng.uniform(0.0, 360.0, 4)
        settings = [
            AnalyzerSetting.from_degrees(t, p) for t, p in zip(angles, azimuths)
        ]
        s = chsh_s(chsh_blocked(PreassignedDefinite(), *settings, n, seed=20))
        assert abs(s) <= 2.0 + 5.0 * 2.0 / np.sqrt(n)


def test_chsh_degenerate_settings():
    n = 100_000
    b = AnalyzerSetting.from_degrees(45.0, 0.0)
    s = chsh_s(chsh_blocked(QuantumEntangled(), Z, Z, b, b, n, seed=21))
    expected = 2.0 * (-Z.dot(b))
    assert abs(s - expected) <= 4.0 * 4.0 / np.sqrt(n)


# Larger than DEFAULT_BLOCK_SIZE and not a multiple of it.
N_UNEVEN = 3 * DEFAULT_BLOCK_SIZE + 5


def test_chsh_correlation_j_draws_from_stream_j():
    a, a2, b, b2 = CHSH_OPTIMAL
    counts = chsh_blocked(QuantumEntangled(), a, a2, b, b2, N_UNEVEN, seed=5)
    for j, (sa, sb) in enumerate(((a, b), (a, b2), (a2, b), (a2, b2))):
        law = joint_law(QuantumEntangled(), sa, sb)
        expected = make_stream(5, j).multinomial(N_UNEVEN, law)
        assert counts[j] == PairCounts(*map(int, expected))


def test_blocked_counts_independent_of_workers():
    model = QuantumEntangled()
    b = AnalyzerSetting.from_degrees(45.0, 0.0)
    n = 200_000
    serial = pair_counts_blocked(model, Z, b, n, seed=7, workers=1)
    threaded = pair_counts_blocked(model, Z, b, n, seed=7, workers=4)
    assert serial == threaded
    assert serial.n_pairs == n


def test_pair_counts_are_one_multinomial_from_one_stream():
    b = AnalyzerSetting.from_degrees(70.0, 10.0)
    for model in (QuantumEntangled(), PreassignedDefinite("probabilistic")):
        counts = pair_counts_blocked(model, Z, b, N_UNEVEN, seed=3, stream_offset=2)
        manual = make_stream(3, 2).multinomial(N_UNEVEN, joint_law(model, Z, b))
        assert counts == PairCounts(*map(int, manual))


@pytest.mark.parametrize("mode", ["predicted", "mechanistic"])
def test_switch_count_is_one_binomial_from_stream_0(mode):
    for model in (QuantumEntangled(), PreassignedDefinite()):
        report = switch_protocol_blocked(model, N_UNEVEN, mode, seed=8)
        p = _switch_electron_up(model, mode)
        assert report.n_electron_up == int(make_stream(8, 0).binomial(N_UNEVEN, p))


@pytest.mark.parametrize("n", [N_UNEVEN, MAX_SAMPLES])
def test_each_tally_makes_one_stream(n, count_calls):
    # One (seed, stream index) per tally: the pair tally, the four CHSH
    # correlations, then the switch count.
    streams = count_calls(spinlab, "make_stream")
    b = AnalyzerSetting.from_degrees(45.0, 0.0)
    assert pair_counts_blocked(QuantumEntangled(), Z, b, n, seed=9).n_pairs == n
    chsh = chsh_blocked(PreassignedDefinite(), *CHSH_OPTIMAL, n, seed=9)
    assert all(counts.n_pairs == n for counts in chsh)
    switch_protocol_blocked(QuantumEntangled(), n, "mechanistic", seed=9)
    assert streams == [(9, 0), (9, 0), (9, 1), (9, 2), (9, 3), (9, 0)]


def test_same_seed_reproduces_sequences():
    b = AnalyzerSetting.from_degrees(33.0, 45.0)
    first = [
        sample_pair(QuantumEntangled(), Z, b, make_stream(42, 0)) for _ in range(1)
    ]
    second = [
        sample_pair(QuantumEntangled(), Z, b, make_stream(42, 0)) for _ in range(1)
    ]
    assert first == second
    c1, c2 = (
        pair_counts_blocked(QuantumEntangled(), Z, b, 5_000, seed=42, stream_offset=1)
        for _ in range(2)
    )
    assert c1 == c2


def test_switch_predicted_entangled_table():
    report = switch_protocol_blocked(QuantumEntangled(), 50_000, "predicted", seed=22)
    assert report.p_electron_up == 1.0
    assert report.p_positron_down == 1.0
    assert report.note == ""


def test_switch_predicted_preassigned_table():
    n = 100_000
    report = switch_protocol_blocked(PreassignedDefinite(), n, "predicted", seed=23)
    assert report.p_positron_down == 1.0
    assert abs(report.p_electron_up - 0.5) <= 4.0 / np.sqrt(n)


def test_switch_mechanistic_entangled_diverges():
    n = 100_000
    report = switch_protocol_blocked(QuantumEntangled(), n, "mechanistic", seed=24)
    assert report.p_positron_down == 1.0
    assert abs(report.p_electron_up - 0.5) <= 4.0 / np.sqrt(n)
    assert "predicted" in report.note


def test_switch_mechanistic_preassigned():
    n = 100_000
    report = switch_protocol_blocked(PreassignedDefinite(), n, "mechanistic", seed=25)
    assert report.p_positron_down == 1.0
    assert abs(report.p_electron_up - 0.5) <= 4.0 / np.sqrt(n)
    assert report.note == ""


def test_switch_mechanistic_entangled_probability_is_half():
    p = _switch_electron_up(QuantumEntangled(), "mechanistic")
    assert p == pytest.approx(0.5, abs=1e-12)


def positron_first_electron_up():
    """The device's own order: the positron, the first factor of the
    transposed singlet, is expanded along z first, then electron up is
    the Born weight of sigma_z's +1 eigenspace, the last in ascending
    order, on each remote state the collapse leaves."""
    swapped = BipartiteState(singlet().amps.T.copy())
    expansion = expand_bipartite(swapped, sigma_z())
    return sum(
        float(p * born_projections(sigma_z(), expansion.remote_state(k).amplitudes)[-1][1])
        for k, p in enumerate(expansion.group_probabilities)
    )


def test_switch_mechanistic_electron_marginal_is_the_positron_first_route():
    # The electron marginal of the electron-first law, bit for bit.
    oracle = positron_first_electron_up()
    assert _switch_electron_up(QuantumEntangled(), "mechanistic") == oracle


def test_switch_rejects_unknown_mode():
    with pytest.raises(ValueError):
        switch_protocol_blocked(QuantumEntangled(), 10, "oracular", seed=0)


def test_untangle_requires_singlet():
    rng = np.random.default_rng(26)
    product = np.zeros((2, 2))
    product[0, 1] = 1.0
    from eprlab.qcore import BipartiteState

    with pytest.raises(ValueError, match="singlet"):
        untangle(BipartiteState(product), rng)
    triplet = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    with pytest.raises(ValueError, match="singlet"):
        untangle(BipartiteState(triplet), rng)


def test_untangle_accepts_global_phase():
    from eprlab.qcore import BipartiteState

    phased = BipartiteState(singlet().amps * np.exp(0.7j))
    out = untangle(phased, np.random.default_rng(27))
    assert out.schmidt_coefficients()[1] <= 1e-12


def test_untangle_branch_frequencies():
    rng = np.random.default_rng(28)
    n = 2_000
    up_down = 0
    for _ in range(n):
        out = untangle(singlet(), rng)
        coeffs = out.schmidt_coefficients()
        assert coeffs[0] == pytest.approx(1.0, abs=1e-12)
        assert coeffs[1] <= 1e-12
        up_down += out.amps[0, 1] == 1.0
    assert abs(up_down / n - 0.5) <= 4.0 / np.sqrt(n)


def test_untangle_outputs_reproduce_preassigned_statistics():
    rng = np.random.default_rng(29)
    n = 400
    ups = 0
    for _ in range(n):
        out = untangle(singlet(), rng)
        first = measure_subsystem(out, spin_operator(Z), rng)
        electron = 1 if first.eigenvalue > 0 else -1
        positron_state = first.remote
        down = StateVector(np.array([0.0, 1.0]))
        up = StateVector(np.array([1.0, 0.0]))
        partner = down if electron > 0 else up
        assert states_equal_up_to_phase(positron_state, partner, tol=1e-12)
        ups += electron > 0
    assert abs(ups / n - 0.5) <= 4.0 / np.sqrt(n)


def test_sample_pair_reuses_operators_and_expansion(count_calls):
    a = AnalyzerSetting.from_degrees(33.0, 12.0)
    b = AnalyzerSetting.from_degrees(101.0, 250.0)
    assert spin_operator(a) is spin_operator(a)
    assert singlet() is singlet()
    eigh_calls = count_calls(np.linalg, "eigh")
    rng = np.random.default_rng(40)
    for _ in range(300):
        sample_pair(QuantumEntangled(), a, b, rng)
    assert len(eigh_calls) <= 2


@pytest.mark.parametrize("n", [0, -5])
def test_samplers_reject_fewer_than_one_sample(n):
    with pytest.raises(ValueError, match="at least one"):
        untangle_counts(singlet(), n, np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least one"):
        pair_counts_blocked(QuantumEntangled(), Z, X, n, seed=0)
    with pytest.raises(ValueError, match="at least one"):
        switch_protocol_blocked(QuantumEntangled(), n, "predicted", seed=0)
