"""Each output check of the benchmark accepts a real document and
rejects a corrupted copy of it.

Run with:  python -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


def make(command: str, params: dict) -> str:
    return workloads.call_main(workloads.argv_for(command, params))


def corrupted(text: str, change) -> str:
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def rejects(text: str, command: str, params: dict) -> None:
    with pytest.raises(CheckError):
        checks.check_document(text, command, params)


@pytest.fixture(scope="module")
def hydrogen():
    params = {"seed": 3, "max_n": 3, "ortho_max_n": 2}
    return make("hydrogen", params), params


def test_hydrogen_accepts_real_document(hydrogen):
    checks.check_document(*hydrogen[:1], "hydrogen", hydrogen[1])


@pytest.mark.parametrize(
    "change",
    [
        lambda d: d["results"]["mean_radius"][4].update(mean_radius=d["results"]["mean_radius"][4]["mean_radius"] * (1 + 1e-5)),
        lambda d: d["results"]["orthonormality"][1].update(real=2e-6),
        lambda d: d["results"]["orthonormality"][0].update(real=1.0 - 2e-6),
        lambda d: d["statistics"].update(max_orthonormality_deviation=0.0),
        lambda d: d["statistics"].update(max_relative_error_mean_radius=0.0),
        lambda d: d["results"]["ground_state_momentum"].update(bare_imag=0.0),
        lambda d: d["results"]["ground_state_momentum"].update(hermitized_imag=1.0),
        lambda d: d["results"]["mean_radius"].pop(),
        lambda d: d["config"].update(max_n=4),
    ],
    ids=["mean-radius-off-1e-5", "off-diagonal", "diagonal", "reported-overlap-max", "reported-radius-max",
         "bare-momentum", "hermitized-momentum", "missing-row", "config-echo"],
)
def test_hydrogen_rejects(hydrogen, change):
    rejects(corrupted(hydrogen[0], change), "hydrogen", hydrogen[1])


@pytest.fixture(scope="module")
def commutator():
    params = {"seed": 3, "points": 257}
    return make("commutator-check", params), params


def test_commutator_accepts_real_document(commutator):
    checks.check_document(commutator[0], "commutator-check", commutator[1])


@pytest.mark.parametrize(
    "change",
    [
        lambda d: d["results"].update(max_interior_residual=2 * d["results"]["max_interior_residual"]),
        lambda d: d["results"].update(refined_residual=2 * d["results"]["refined_residual"]),
        lambda d: d["results"].update(convergence_order=2.5),
    ],
    ids=["coarse-residual-doubled", "refined-residual-doubled", "order"],
)
def test_commutator_rejects(commutator, change):
    rejects(corrupted(commutator[0], change), "commutator-check", commutator[1])


@pytest.fixture(scope="module")
def epr():
    params = {"seed": 3, "points": 256, "position": -1.234, "momentum": 0.77}
    return make("epr", params), params


def test_epr_accepts_real_document(epr):
    checks.check_document(epr[0], "epr", epr[1])


@pytest.mark.parametrize(
    "change",
    [
        lambda d: d["results"]["conditional_position"].update(slice_at=d["results"]["conditional_position"]["slice_at"] + 20 / 256),
        lambda d: d["results"]["conditional_momentum"].update(slice_at=d["results"]["conditional_momentum"]["slice_at"] + 0.1),
        lambda d: d["results"]["conditional_position"].update(mean=d["results"]["conditional_position"]["mean"] + 1e-9),
        lambda d: d["results"]["conditional_momentum"].update(mean=d["results"]["conditional_momentum"]["expected_mean"]),
        lambda d: d["results"].update(parseval_error=1e-9),
    ],
    ids=["position-slice", "momentum-slice", "position-mean", "momentum-mean-loose", "parseval"],
)
def test_epr_rejects(epr, change):
    rejects(corrupted(epr[0], change), "epr", epr[1])


SINGLET_CASES = {
    "p1": {"seed": 5, "samples": 200_003},
    "p2-deterministic": {"seed": 5, "model": "p2", "samples": 70_001, "angles": [37.5, 20.0, 118.25, 65.0]},
}


@pytest.fixture(scope="module", params=sorted(SINGLET_CASES))
def singlet(request):
    params = SINGLET_CASES[request.param]
    return make("singlet-correlation", params), params


def test_singlet_accepts_real_document(singlet):
    checks.check_document(singlet[0], "singlet-correlation", singlet[1])


def _move(cells: dict, source: str, target: str, amount: int) -> None:
    cells[source] -= amount
    cells[target] += amount


def test_singlet_rejects_count_moved_between_cells(singlet):
    text, params = singlet
    doc = json.loads(text)
    counts = doc["results"]["counts"]
    source = max(counts, key=counts.get)
    target = min(counts, key=counts.get)
    # One count into an exactly-zero cell, or 6 sigma's worth otherwise.
    amount = 1 if counts[target] == 0 else int(checks.bernstein(params["samples"] / 4)) + 1
    _move(counts, source, target, amount)
    rejects(json.dumps(doc), "singlet-correlation", params)


def test_singlet_rejects_wrong_sum(singlet):
    rejects(corrupted(singlet[0], lambda d: d["results"]["counts"].update(up_up=d["results"]["counts"]["up_up"] + 1)),
            "singlet-correlation", singlet[1])


CHSH_CASES = {
    "p1": {"seed": 9, "samples": 100_000},
    "p2-probabilistic": {"seed": 9, "model": "p2", "p2_rule": "probabilistic", "samples": 100_000, "format": "csv"},
}


@pytest.fixture(scope="module", params=sorted(CHSH_CASES))
def chsh(request):
    params = CHSH_CASES[request.param]
    return make("chsh", params), params


def test_chsh_accepts_real_document(chsh):
    checks.check_document(chsh[0], "chsh", chsh[1])


def test_chsh_rejects_s_past_its_bound(chsh):
    text, params = chsh
    doc = checks.parse_document(text, params.get("format", "json"))
    doc = copy.deepcopy(doc)
    # Pushing one correlation moves S with it, so S stays the signed sum.
    shift = -0.7 if params.get("model", "p1") == "p2" else 0.05
    doc["results"]["correlations"][0]["value"] += shift
    doc["results"]["s"] += shift
    with pytest.raises(CheckError):
        checks.DOCUMENT_CHECKS["chsh"](doc, params)


def test_chsh_rejects_s_inconsistent_with_correlations(chsh):
    text, params = chsh
    doc = checks.parse_document(text, params.get("format", "json"))
    doc["results"]["s"] += 1e-6
    with pytest.raises(CheckError):
        checks.DOCUMENT_CHECKS["chsh"](doc, params)


SWITCH_CASES = {
    "p1-predicted": {"seed": 2, "samples": 100_000},
    "p1-mechanistic": {"seed": 2, "mode": "mechanistic", "samples": 100_000},
    "p2-predicted": {"seed": 2, "model": "p2", "samples": 100_000},
}


@pytest.fixture(scope="module", params=sorted(SWITCH_CASES))
def switch(request):
    params = SWITCH_CASES[request.param]
    return make("switch", params), params


def test_switch_accepts_real_document(switch):
    checks.check_document(switch[0], "switch", switch[1])


@pytest.mark.parametrize(
    "change",
    [
        lambda d: d["results"].update(n_positron_down=d["results"]["n_positron_down"] - 1),
        lambda d: d["results"].update(note="" if d["results"]["note"] else "diverges"),
        lambda d: d["results"].update(n_electron_up=d["results"]["n_electron_up"] - 3000,
                                      p_electron_up=(d["results"]["n_electron_up"] - 3000) / d["results"]["n_pairs"]),
    ],
    ids=["positron-count", "note", "electron-up-count"],
)
def test_switch_rejects(switch, change):
    rejects(corrupted(switch[0], change), "switch", switch[1])


@pytest.fixture(scope="module")
def untangle():
    params = {"seed": 4, "samples": 500}
    return make("untangle", params), params


def test_untangle_accepts_real_document(untangle):
    checks.check_document(untangle[0], "untangle", untangle[1])


@pytest.mark.parametrize(
    "change",
    [
        lambda d: d["results"].update(up_down=d["results"]["up_down"] + 1),
        lambda d: d["results"].update(up_down=0, down_up=d["results"]["n_draws"]),
        lambda d: d["results"].update(max_residual_schmidt_weight=1e-12),
    ],
    ids=["branch-sum", "branch-bias", "schmidt-weight"],
)
def test_untangle_rejects(untangle, change):
    rejects(corrupted(untangle[0], change), "untangle", untangle[1])


def test_parsers_reject_non_finite_tokens(untangle):
    text, params = untangle
    rejects(text.replace('"max_residual_schmidt_weight": 0.0', '"max_residual_schmidt_weight": NaN'), "untangle", params)
    csv_params = dict(params, format="csv")
    csv_text = make("untangle", csv_params)
    checks.check_document(csv_text, "untangle", csv_params)
    rejects(csv_text.replace("max_residual_schmidt_weight,0.0", "max_residual_schmidt_weight,nan"), "untangle", csv_params)
    rejects("\n".join(csv_text.splitlines()[:-1]), "untangle", csv_params)


def test_config_echo_is_checked(untangle):
    rejects(corrupted(untangle[0], lambda d: d["config"].update(seed=5)), "untangle", untangle[1])


def test_measure_subsystem_checks():
    from eprlab.measurement import measure_subsystem
    from eprlab.qcore import BipartiteState, LinearOperator

    gen = np.random.default_rng(1)
    amps, a = workloads.random_joint_problem(gen, 3, 4)
    shots = [measure_subsystem(BipartiteState(amps), LinearOperator(a, hermitian=True), gen) for _ in range(300)]
    outcomes = [shot.eigenvalue for shot in shots]
    checks.check_born_frequencies(amps, a, outcomes)
    for shot in shots[:20]:
        checks.check_collapse(a, shot.eigenvalue, shot.collapsed.amps)
    with pytest.raises(CheckError):
        checks.check_born_frequencies(amps, a, [outcomes[0]] * len(outcomes))
    with pytest.raises(CheckError):
        checks.check_collapse(a, shots[0].eigenvalue, np.roll(shots[0].collapsed.amps, 1, axis=0))


def test_sample_pair_checks():
    gen = np.random.default_rng(2)
    op = workloads.sample_pair_op(gen)
    results = op.run()
    op.check(results)
    parallel = list(results[1])
    parallel[0] = 1  # one same-sign pair on parallel axes
    with pytest.raises(CheckError):
        op.check([results[0], parallel, results[2], results[3]])
    with pytest.raises(CheckError):
        op.check([[1] * len(results[0])] + results[1:])


def test_repeat_check_rejects_differing_bytes():
    op = workloads.repeat_op(np.random.default_rng(3))
    texts = op.run()
    op.check(texts)
    with pytest.raises(CheckError):
        op.check([texts[0], texts[1], texts[2].replace('"seed"', '"seed" ', 1)])


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grids", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
