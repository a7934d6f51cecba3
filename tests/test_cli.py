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
    COMMON_OPTIONS,
    COMMUTATOR_MAX_POINTS,
    EPR_MAX_POINTS,
    HYDROGEN_MAX_POINTS,
    MAX_SAMPLES,
    build_parser,
    main,
    resolve_settings,
    run_untangle,
)
from eprlab.hydrogen import MIN_RADIAL_POINTS, RadialGrid
from eprlab.rng import make_stream
from eprlab.spinlab import P2_RULES, SWITCH_MODES


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


def test_untangle_tally_is_one_binomial_from_stream_0():
    # The up-down tally is one binomial draw of n from stream 0 of the
    # seed, at every size up to the cap.
    for seed, n in ((0, 65_540), (1, 2_000), (2, MAX_SAMPLES)):
        up_down = int(make_stream(seed, 0).binomial(n, 0.5))
        doc = run_untangle({"command": "untangle", "seed": seed, "samples": n})
        assert doc["results"]["up_down"] == up_down
        assert doc["results"]["down_up"] == n - up_down
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


def test_config_file_line_without_a_key_exits_2(tmp_path, capsys):
    # A line with no "=" and a line with an empty key are both malformed,
    # and both are named by their file line, not as unknown keys.
    for line in ("samples 1000", "=5"):
        config = tmp_path / "run.cfg"
        config.write_text(f"# header\n{line}\n")
        code, out = run_cli(["chsh", "--config", str(config)])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert f"{config}:2: expected key=value, got {line!r}" in err
        assert "unknown config file keys" not in err


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


def test_config_file_with_a_utf8_bom_reads_as_without(tmp_path):
    config = tmp_path / "bom.cfg"
    config.write_bytes(b"\xef\xbb\xbfsamples=1000\n")
    code, text = run_cli(["chsh", "--config", str(config)])
    assert code == 0
    assert text == run_cli(["chsh", "--samples", "1000"])[1]


def test_hydrogen_points_floor_is_the_radial_grids(capsys):
    assert MIN_RADIAL_POINTS == 16
    assert RadialGrid(20.0, 16).points == 16
    with pytest.raises(ValueError, match="at least 16 points"):
        RadialGrid(20.0, 15)
    argv = ["hydrogen", "--points", "16"]
    assert resolve_settings(build_parser().parse_args(argv))["points"] == 16
    code, out = run_cli(["hydrogen", "--points", "15"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == "error: --points must be at least 16\n"


def assert_plain(value, path):
    """Containers are dicts and lists only; leaves are exactly plain types."""
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, path
            assert_plain(item, f"{path}.{key}")
    elif type(value) is list:
        for index, item in enumerate(value):
            assert_plain(item, f"{path}.{index}")
    else:
        assert type(value) in (bool, int, float, str, type(None)), (
            f"{path}: {type(value).__name__}"
        )


SPIN_COMMANDS = ("singlet-correlation", "chsh", "switch")
PAYLOAD_ARGV = (
    [[command] for command in COMMANDS]
    + [
        [command, "--model", "p2", "--p2-rule", rule]
        for command in SPIN_COMMANDS
        for rule in P2_RULES
    ]
    + [["switch", "--mode", mode] for mode in SWITCH_MODES]
    + [
        ["switch", "--mode", mode, "--model", "p2", "--p2-rule", rule]
        for mode in SWITCH_MODES
        for rule in P2_RULES
    ]
    # The statistics and grids benchmark parameters.
    + [
        ["chsh", "--samples", str(2**23)],
        ["chsh", "--model", "p2", "--p2-rule", "probabilistic",
         "--samples", str(2**21)],
        ["singlet-correlation", "--model", "p2", "--samples", "3000017",
         "--angles", "30.5,10.0,140.25,200.0"],
        ["switch", "--mode", "mechanistic", "--samples", "8000000"],
        ["switch", "--model", "p2", "--samples", "8000000"],
        ["untangle", "--samples", "20000"],
        ["hydrogen", "--max-n", "8", "--ortho-max-n", "4"],
        ["epr", "--points", "1024", "--position", "1.5", "--momentum", "-0.7"],
        ["epr", "--points", "2048", "--position", "-2.0", "--momentum", "1.1"],
        ["commutator-check", "--points", "1025"],
    ]
)


@pytest.mark.parametrize("argv", PAYLOAD_ARGV, ids=" ".join)
def test_payloads_hold_plain_values_only(argv):
    # render writes payloads as they are: an np.float64 or a tuple here
    # would reach a document.
    settings = resolve_settings(build_parser().parse_args(argv))
    assert_plain(COMMANDS[argv[0]].handler(settings), argv[0])


# One non-default value per option; --angles in both of its forms.
FLAG_VALUES = {
    "--seed": ["5"], "--workers": ["2"], "--format": ["csv"],
    "--model": ["p2"], "--p2-rule": ["probabilistic"], "--samples": ["2000"],
    "--mode": ["mechanistic"], "--max-n": ["2"], "--ortho-max-n": ["2"],
    "--r-max": ["400"], "--sigma": ["0.7"], "--x0": ["0.5"],
    "--position": ["0.25"], "--momentum": ["0.5"],
    ("hydrogen", "--points"): ["3001"],
    ("commutator-check", "--length"): ["20"],
    ("commutator-check", "--points"): ["1025"],
    ("epr", "--length"): ["16"],
    ("epr", "--points"): ["128"],
    ("singlet-correlation", "--angles"): ["30,60", "30,10,60,20"],
    ("chsh", "--angles"): ["10,80,40,130", "10,0,80,5,40,0,130,5"],
}
FLAG_CASES = [
    pytest.param(command, option, value, id=f"{command} {option.flag} {value}")
    for command, spec in COMMANDS.items()
    for option in COMMON_OPTIONS + spec.options
    if option.flag != "--output"
    for value in FLAG_VALUES.get((command, option.flag)) or FLAG_VALUES[option.flag]
]


@pytest.mark.parametrize("command, option, value", FLAG_CASES)
def test_flag_and_config_file_key_are_one_setting(command, option, value, tmp_path):
    by_dest = tmp_path / "dest.cfg"
    by_dest.write_text(f"{option.dest}={value}\n")
    by_dashes = tmp_path / "dashes.cfg"
    by_dashes.write_text(f"{option.flag[2:]}={value}\n")
    argvs = [
        [command, option.flag, value],
        [command, "--config", str(by_dest)],
        [command, "--config", str(by_dashes)],
    ]
    resolved = [
        resolve_settings(build_parser().parse_args(argv))[option.dest]
        for argv in argvs
    ]
    assert resolved[0] != option.default
    assert resolved == [resolved[0]] * 3
    runs = [run_cli(argv) for argv in argvs]
    assert runs[0][0] == 0
    assert runs == [runs[0]] * 3
