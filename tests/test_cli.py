"""End-to-end tests of the experiment runner.

The determinism contract is the load-bearing part: a fixed (seed,
config) pair must produce byte-identical documents across repeat runs
and across worker counts.
"""

import contextlib
import dataclasses
import io
import json
import subprocess
import sys

import pytest

from eprlab.cli import (
    COMMANDS,
    COMMUTATOR_MAX_POINTS,
    EPR_MAX_POINTS,
    HYDROGEN_MAX_POINTS,
    MAX_SAMPLES,
    build_parser,
    main,
    resolve_settings,
    run_untangle,
)
from eprlab.rng import make_stream
from eprlab.spinlab import singlet, untangle


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    assert code == 0
    return json.loads(text)


def test_repeat_runs_are_byte_identical():
    argv = ["singlet-correlation", "--samples", "30000", "--seed", "12"]
    code1, text1 = run_cli(argv)
    code2, text2 = run_cli(argv)
    assert code1 == code2 == 0
    assert text1 == text2


def test_worker_count_does_not_change_bytes():
    base = ["chsh", "--samples", "150000", "--seed", "4"]
    _, serial = run_cli(base + ["--workers", "1"])
    _, threaded = run_cli(base + ["--workers", "4"])
    assert serial == threaded


def test_chsh_entangled_hits_quantum_value():
    doc = run_json(
        ["chsh", "--model", "p1", "--samples", "200000", "--seed", "7",
         "--angles", "0,90,45,135"]
    )
    assert abs(abs(doc["results"]["s"]) - 2.0 * 2.0**0.5) <= 0.02
    assert len(doc["results"]["correlations"]) == 4
    assert doc["config"]["angles"] == [[0.0, 0.0], [90.0, 0.0],
                                       [45.0, 0.0], [135.0, 0.0]]


def test_chsh_preassigned_respects_classical_bound():
    doc = run_json(
        ["chsh", "--model", "p2", "--samples", "20000", "--seed", "8",
         "--angles", "10,80,33,122"]
    )
    assert abs(doc["results"]["s"]) <= 2.0 + 1e-12


def test_hydrogen_document():
    doc = run_json(["hydrogen"])
    rows = {(row["n"], row["l"]): row for row in doc["results"]["mean_radius"]}
    assert rows[(1, 0)]["mean_radius"] == pytest.approx(1.5, rel=1e-6)
    assert len(rows) == 10
    momentum = doc["results"]["ground_state_momentum"]
    assert momentum["bare_imag"] == pytest.approx(1.0, rel=1e-6)
    assert abs(momentum["bare_real"]) <= 1e-8
    assert abs(momentum["hermitized_imag"]) <= 1e-8
    assert doc["statistics"]["max_relative_error_mean_radius"] <= 1e-6
    assert doc["statistics"]["max_orthonormality_deviation"] <= 1e-6


def test_commutator_check_document():
    doc = run_json(["commutator-check"])
    assert 1.8 <= doc["results"]["convergence_order"] <= 2.2


def test_epr_document_within_tolerances():
    doc = run_json(["epr"])
    stats = doc["statistics"]
    assert stats["position_mean_deviation"] <= stats["position_tolerance"]
    assert stats["momentum_mean_deviation"] <= stats["momentum_tolerance"]
    assert doc["results"]["parseval_error"] <= 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the default 20-unit grid does not resolve the momentum "
    "conditional at |p| = 4 (deviation 0.127 against its own tolerance 0.04); "
    "ROADMAP direction 2 is the mend",
)
def test_epr_momentum_4_within_its_own_tolerance():
    stats = run_json(["epr", "--momentum", "4"])["statistics"]
    assert stats["momentum_mean_deviation"] <= stats["momentum_tolerance"]


def test_switch_predicted_and_mechanistic():
    doc = run_json(
        ["switch", "--model", "p2", "--mode", "predicted",
         "--samples", "100000", "--seed", "2"]
    )
    assert doc["results"]["p_positron_down"] == 1.0
    n = doc["results"]["n_pairs"]
    assert abs(doc["results"]["p_electron_up"] - 0.5) <= 4.0 / n**0.5
    assert doc["results"]["note"] == ""

    doc = run_json(
        ["switch", "--model", "p1", "--mode", "mechanistic",
         "--samples", "100000", "--seed", "2"]
    )
    assert doc["results"]["p_positron_down"] == 1.0
    assert abs(doc["results"]["p_electron_up"] - 0.5) <= 4.0 / n**0.5
    assert doc["results"]["note"] != ""

    doc = run_json(
        ["switch", "--model", "p1", "--mode", "predicted", "--samples", "10"]
    )
    assert doc["results"]["p_electron_up"] == 1.0
    assert doc["results"]["p_positron_down"] == 1.0


def test_untangle_document():
    doc = run_json(["untangle", "--samples", "500", "--seed", "6"])
    results = doc["results"]
    assert results["up_down"] + results["down_up"] == 500
    assert results["max_residual_schmidt_weight"] <= 1e-12


def test_run_untangle_matches_per_draw_loop():
    # The untangle document tallies chunked draws; it must read the
    # stream exactly as one untangle call per draw does, also across a
    # chunk boundary (65536 draws).
    for seed, n in ((0, 65_540), (1, 2_000), (2, 2_000)):
        rng = make_stream(seed, 0)
        state = singlet()
        looped = sum(untangle(state, rng).amps[0, 1] == 1.0 for _ in range(n))
        doc = run_untangle({"command": "untangle", "seed": seed, "samples": n})
        assert doc["results"]["up_down"] == looped
        assert doc["results"]["down_up"] == n - looped
        assert doc["results"]["max_residual_schmidt_weight"] == 0.0


def test_csv_format_is_flat_and_stable():
    code, text = run_cli(
        ["singlet-correlation", "--samples", "1000", "--format", "csv"]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "key,value"
    keys = [line.split(",", 1)[0] for line in lines[1:]]
    assert keys == sorted(keys)
    assert "results.correlation" in keys
    code2, text2 = run_cli(
        ["singlet-correlation", "--samples", "1000", "--format", "csv"]
    )
    assert text2 == text


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# comment line\n\nsamples=4000\nmodel=p2\nangles=10,20,70,40\n"
    )
    doc = run_json(
        ["singlet-correlation", "--config", str(config), "--samples", "6000"]
    )
    assert doc["config"]["samples"] == 6000
    assert doc["config"]["model"] == "p2"
    assert doc["config"]["angles"] == [[10.0, 20.0], [70.0, 40.0]]


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("warp_factor=9\n")
    code, _ = run_cli(["untangle", "--config", str(config)])
    assert code == 2
    assert "warp_factor" in capsys.readouterr().err


def test_validation_errors_exit_2(capsys):
    assert run_cli(["untangle", "--samples", "0"])[0] == 2
    assert run_cli(["chsh", "--angles", "1,2,3"])[0] == 2
    assert run_cli(["epr", "--sigma", "-1"])[0] == 2
    # Library-level validation surfaces the same way.
    assert run_cli(["epr", "--length", "2"])[0] == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["epr", "--x0", "nan"],
        ["commutator-check", "--length", "inf"],
        ["hydrogen", "--r-max", "inf", "--max-n", "1", "--ortho-max-n", "1"],
        ["singlet-correlation", "--model", "p2", "--angles", "nan,0"],
    ],
)
def test_non_finite_numbers_exit_2(argv, capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["commutator-check", "--length", "1e160"],
        ["epr", "--length", "1e300", "--sigma", "1e299"],
    ],
    ids=["commutator-length-1e160", "epr-sigma-1e299"],
)
def test_float_overflow_from_a_flag_exits_2(argv):
    # A subprocess: numpy warns about the overflow on the way, and the
    # test suite turns a RuntimeWarning into an exception in-process.
    result = subprocess.run(
        [sys.executable, "-m", "eprlab", *argv], capture_output=True, text=True
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("length, code", [("12.0", 2), ("12.5", 0)])
def test_commutator_check_length_must_let_the_gaussian_decay(length, code, capsys):
    # exp(-x^2 / 2) falls below 1e-8 of its peak at the grid edges only
    # for a length above about 12.26.
    assert run_cli(["commutator-check", "--length", length])[0] == code
    if code == 2:
        assert "decay" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["600", "1e155"])
def test_commutator_check_rejects_an_unresolvable_spacing(length):
    # At 513 points a length above 256.5 puts the spacing above 0.5. A
    # child with RuntimeWarnings as errors: the check must exit before
    # numpy can overflow on the grid.
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "eprlab",
         "commutator-check", "--length", length],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "spacing" in result.stderr
    assert "Traceback" not in result.stderr


def test_commutator_check_accepts_the_widest_spacing():
    doc = run_json(["commutator-check", "--length", "256.5"])
    assert doc["results"]["spacing"] == 0.5


def run_warning_free_child(argv):
    """python -m eprlab argv in a child with RuntimeWarnings as errors."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "eprlab", *argv],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("r_max", ["1e155", "1e6"])
def test_hydrogen_rejects_an_unresolvable_radial_spacing(r_max):
    # At the default 4096 points, r_max 1e6 is a spacing of 244 Bohr
    # radii (every relative error 1.0) and 1e155 overflows r^2.
    result = run_warning_free_child(
        ["hydrogen", "--r-max", r_max, "--max-n", "1", "--ortho-max-n", "1"]
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "spacing" in result.stderr
    assert "Traceback" not in result.stderr


def test_hydrogen_accepts_the_widest_radial_spacing():
    argv = ["hydrogen", "--r-max", "4095", "--points", "4096", "--max-n", "1",
            "--ortho-max-n", "1"]
    result = run_warning_free_child(argv)
    assert result.returncode == 0
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["config"]["r_max"] / (doc["config"]["points"] - 1) == 1.0


def test_epr_rejects_a_sigma_whose_square_underflows():
    # sigma^2 = 1e-602 is 0.0 in floating point, and the state's
    # exponent would be 0/0.
    result = run_warning_free_child(
        ["epr", "--length", "1e-300", "--sigma", "1e-301", "--x0", "0",
         "--points", "64"]
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "underflows" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "command, cap, grid",
    [
        ("epr", EPR_MAX_POINTS, "UniformGrid2D"),
        ("commutator-check", COMMUTATOR_MAX_POINTS, "UniformGrid1D"),
    ],
)
def test_grid_points_above_cap_exit_2_before_allocating(
    command, cap, grid, monkeypatch, capsys
):
    # The caps admit the benchmark's largest grids; the commutator
    # stencil is O(points), so its cap is the radial grid's.
    assert (EPR_MAX_POINTS, COMMUTATOR_MAX_POINTS) == (2048, HYDROGEN_MAX_POINTS)
    at_cap = resolve_settings(
        build_parser().parse_args([command, "--points", str(cap)])
    )
    assert at_cap["points"] == cap

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built for a rejected size")

    monkeypatch.setattr(f"eprlab.grids.{grid}", refuse)
    code, out = run_cli([command, "--points", str(cap + 1)])
    assert code == 2
    assert out == ""
    assert f"at most {cap}" in capsys.readouterr().err


def test_hydrogen_points_above_cap_exit_2_before_allocating(monkeypatch, capsys):
    # The cap sits far above the default 4096-point radial grid.
    assert HYDROGEN_MAX_POINTS >= 256 * 4096
    argv = ["hydrogen", "--points", str(HYDROGEN_MAX_POINTS)]
    assert resolve_settings(build_parser().parse_args(argv))["points"] == (
        HYDROGEN_MAX_POINTS
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a radial grid was built for a rejected size")

    monkeypatch.setattr("eprlab.hydrogen.RadialGrid", refuse)
    code, out = run_cli(["hydrogen", "--points", str(HYDROGEN_MAX_POINTS + 1)])
    assert code == 2
    assert out == ""
    assert f"at most {HYDROGEN_MAX_POINTS}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, sampler",
    [
        ("singlet-correlation", "pair_counts_blocked"),
        ("chsh", "chsh_blocked"),
        ("switch", "switch_protocol_blocked"),
        ("untangle", "untangle_counts"),
    ],
)
def test_samples_above_cap_exit_2_before_sampling(
    command, sampler, monkeypatch, capsys
):
    # The cap sits far above the benchmark's 8,000,000 pairs.
    assert MAX_SAMPLES >= 1000 * 8_000_000
    argv = [command, "--samples", str(MAX_SAMPLES)]
    assert resolve_settings(build_parser().parse_args(argv))["samples"] == (
        MAX_SAMPLES
    )

    def refuse(*args, **kwargs):
        raise AssertionError("sampling started for a rejected size")

    monkeypatch.setattr(f"eprlab.spinlab.{sampler}", refuse)
    code, out = run_cli([command, "--samples", str(MAX_SAMPLES + 1)])
    assert code == 2
    assert out == ""
    assert f"at most {MAX_SAMPLES}" in capsys.readouterr().err


@pytest.mark.parametrize("output_format", ["json", "csv"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_result_exits_2(output_format, value, monkeypatch, capsys):
    spec = COMMANDS["untangle"]

    def handler(settings):
        document = spec.handler(settings)
        document["results"]["max_residual_schmidt_weight"] = value
        return document

    monkeypatch.setitem(COMMANDS, "untangle", dataclasses.replace(spec, handler=handler))
    code, out = run_cli(["untangle", "--samples", "10", "--format", output_format])
    assert code == 2
    assert out == ""
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()


def test_unwritable_output_exits_1(capsys):
    code, _ = run_cli(
        ["untangle", "--samples", "5", "--output", "/nonexistent/u.json"]
    )
    assert code == 1
    capsys.readouterr()


def test_output_directory_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("EPRLAB_OUTPUT_DIR", str(tmp_path))
    code, text = run_cli(
        ["untangle", "--samples", "20", "--output", "branches.json"]
    )
    assert code == 0
    assert text == ""
    written = (tmp_path / "branches.json").read_text()
    assert json.loads(written)["results"]["n_draws"] == 20
    # Absolute paths bypass the directory variable.
    target = tmp_path / "direct.json"
    code, _ = run_cli(
        ["untangle", "--samples", "20", "--output", str(target)]
    )
    assert code == 0
    assert target.exists()


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "eprlab", "hydrogen", "--max-n", "1",
         "--ortho-max-n", "1"],
        capture_output=True,
        text=True,
        check=True,
    )
    doc = json.loads(result.stdout)
    assert doc["config"]["command"] == "hydrogen"


def test_hydrogen_grid_flags_do_not_reach_the_orthonormality_table():
    base = ["hydrogen", "--max-n", "1", "--ortho-max-n", "2"]
    default = run_json(base)
    custom = run_json(base + ["--points", "2001", "--r-max", "60"])
    assert custom["results"]["mean_radius"] != default["results"]["mean_radius"]
    assert custom["results"]["orthonormality"] == default["results"]["orthonormality"]
    grid_options = [
        option for option in COMMANDS["hydrogen"].options
        if option.dest in ("points", "r_max")
    ]
    assert len(grid_options) == 2
    for option in grid_options:
        assert "not used by the orthonormality table" in option.help


def test_cached_parser_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    first = [run_cli([command]) for command in COMMANDS]
    with pytest.raises(SystemExit) as rejected:
        main(["chsh", "--no-such-flag", "1"])
    assert rejected.value.code == 2
    assert run_cli(["untangle", "--samples", "0"])[0] == 2
    with pytest.raises(SystemExit) as helped:
        main(["chsh", "--help"])
    assert helped.value.code == 0
    capsys.readouterr()
    second = [run_cli([command]) for command in COMMANDS]
    assert all(code == 0 for code, _ in first)
    assert second == first


def test_non_utf8_config_file_exits_2(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"\xff\xfe=1\n")
    result = run_warning_free_child(["chsh", "--config", str(config)])
    assert result.returncode == 2
    assert result.stdout == ""
    assert "cannot read config file" in result.stderr
    assert "Traceback" not in result.stderr
