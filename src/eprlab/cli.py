"""Seeded experiment runner exposing every module as a subcommand.

Each invocation produces one document with three top-level sections:
config (the effective experiment parameters), results (measured
quantities), and statistics (uncertainty estimates and tolerances).
A handler returns only its results and statistics, where a library
record goes in whole, as dataclasses.asdict gives it; main adds the
config echo, so each document is assembled in one place. The document
is serialized as JSON with sorted keys or as a flat two-column CSV of
dotted keys, so a fixed (seed, config) pair yields byte-identical
output. Handlers return plain dicts, lists, bools, ints, floats,
strings and None, which both formats write as they are.

Each flag is named once, in the COMMANDS option table: its settings
key, and its key in a --config file (UTF-8, with or without a BOM), is
the flag without its leading dashes, with "-" read as "_" (--p2-rule is
p2_rule or p2-rule). Presentation knobs (--format, --output, --workers,
--config) are excluded from the config echo; each tally is one draw
from one random stream of the seed, so --workers, accepted for
compatibility, changes nothing.

Exit codes: 0 success, 1 output I/O failure, 2 usage or validation
error, or a result holding a non-finite number (NaN or infinity), which
no document may contain.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from functools import cache
from typing import Callable

from eprlab import eprpair, grids, hydrogen, spinlab
from eprlab.constants import BOHR_RADIUS
from eprlab.rng import make_stream

OUTPUT_DIR_ENV = "EPRLAB_OUTPUT_DIR"

MODEL_CHOICES = ("p1", "p2")
FORMAT_CHOICES = ("json", "csv")


class CliError(Exception):
    """Invalid flag, config file entry, or parameter combination."""


@dataclass(frozen=True)
class Option:
    flag: str
    convert: Callable[[str, str], object]
    default: object
    help: str

    @property
    def dest(self) -> str:
        """Settings and config-file key: the flag without its dashes."""
        return self.flag[2:].replace("-", "_")


def _int_in_range(minimum: int, maximum: int | None = None):
    def convert(flag: str, text: str) -> int:
        try:
            value = int(str(text).strip())
        except ValueError:
            raise CliError(f"{flag} expects an integer, got {text!r}") from None
        if value < minimum:
            raise CliError(f"{flag} must be at least {minimum}")
        if maximum is not None and value > maximum:
            raise CliError(f"{flag} must be at most {maximum}")
        return value

    return convert


def _float_value(positive: bool = False):
    def convert(flag: str, text: str) -> float:
        try:
            value = float(str(text).strip())
        except ValueError:
            raise CliError(f"{flag} expects a number, got {text!r}") from None
        if not math.isfinite(value):
            raise CliError(f"{flag} must be finite, got {text!r}")
        if positive and value <= 0.0:
            raise CliError(f"{flag} must be positive")
        return value

    return convert


def _choice(options: tuple[str, ...]):
    def convert(flag: str, text: str) -> str:
        value = str(text).strip()
        if value not in options:
            allowed = ", ".join(options)
            raise CliError(f"{flag} must be one of: {allowed}")
        return value

    return convert


def _angle_pairs(count: int):
    """Analyzer settings in degrees: `count` polar angles (azimuth 0) or
    `count` interleaved polar,azimuth pairs, as [[polar, azimuth], ...]."""
    number = _float_value()

    def convert(flag: str, text: str) -> list[list[float]]:
        parts = [p.strip() for p in str(text).split(",") if p.strip()]
        if not parts:
            raise CliError(f"{flag} expects comma-separated numbers")
        values = [number(flag, p) for p in parts]
        if len(values) == count:
            return [[v, 0.0] for v in values]
        if len(values) == 2 * count:
            return [values[i:i + 2] for i in range(0, len(values), 2)]
        raise CliError(
            f"{flag} needs {count} polar angles or {2 * count} "
            f"interleaved polar,azimuth values, got {len(values)}"
        )

    return convert


SEED = Option("--seed", _int_in_range(0, 2**64 - 1), 0,
              "random seed, 64-bit unsigned (default 0)")
WORKERS = Option("--workers", _int_in_range(1), 1,
                 "accepted for compatibility; changes nothing")
FORMAT = Option("--format", _choice(FORMAT_CHOICES),
                "json", "output format: json or csv (default json)")
OUTPUT = Option("--output", lambda flag, text: text, None,
                "output file path (default stdout); relative paths resolve "
                f"against ${OUTPUT_DIR_ENV} when it is set")

COMMON_OPTIONS = (SEED, WORKERS, FORMAT, OUTPUT)

MODEL = Option("--model", _choice(MODEL_CHOICES), "p1",
               "pair source: p1 entangled singlet, p2 preassigned definite")
P2_RULE = Option("--p2-rule", _choice(spinlab.P2_RULES), "deterministic",
                 "p2 response rule: deterministic sign rule or "
                 "probabilistic projection rule")
# Every tally is one draw whatever its size, so this cap bounds no run
# time.
MAX_SAMPLES = 2**36

SAMPLES = Option("--samples", _int_in_range(1, MAX_SAMPLES), 100_000,
                 "number of pairs to sample")

# epr holds its state as two factors of 2 points - 1 samples and reads
# it one block of rows at a time, its row transform in one reused buffer
# of eprpair.ROW_BLOCK x (points//2 + 1) complex samples: no grid-sized
# array (a peak of about 2 MB at its cap).
# commutator-check holds a few arrays of 2 points samples (about 240 MB
# in all at its cap); hydrogen holds a few radial arrays of 8 MB each at
# its cap.
EPR_MAX_POINTS = 2048
HYDROGEN_MAX_POINTS = 2**20
COMMUTATOR_MAX_POINTS = HYDROGEN_MAX_POINTS

# Presentation and execution knobs, excluded from the config echo so
# that the same experiment produces the same bytes everywhere.
_NON_CONFIG = {"format", "output", "workers"}


def _pair_model(settings: dict):
    if settings["model"] == "p1":
        return spinlab.QuantumEntangled()
    return spinlab.PreassignedDefinite(rule=settings["p2_rule"])


def run_hydrogen(settings: dict) -> dict:
    """results: mean_radius rows {n, l, mean_radius, closed_form,
    relative_error}; ground_state_momentum {bare_real, bare_imag,
    hermitized_real, hermitized_imag}; orthonormality rows
    {n1, l1, m1, n2, l2, m2, real, imag}.
    statistics: max_relative_error_mean_radius,
    max_orthonormality_deviation."""

    def grid_for(n: int) -> hydrogen.RadialGrid:
        d = hydrogen.RadialGrid.for_n(n)
        return hydrogen.RadialGrid(settings["r_max"] or d.r_max,
                                   settings["points"] or d.points)

    rows = []
    worst_radius = 0.0
    for n in range(1, settings["max_n"] + 1):
        for l in range(n):
            value = hydrogen.expect_r(n, l, grid_for(n))
            closed = 0.5 * BOHR_RADIUS * (3 * n * n - l * (l + 1))
            relative = abs(value - closed) / closed
            worst_radius = max(worst_radius, relative)
            rows.append(
                {
                    "n": n,
                    "l": l,
                    "mean_radius": value,
                    "closed_form": closed,
                    "relative_error": relative,
                }
            )

    bare = hydrogen.expect_radial_p_ground(grid_for(1))
    hermitized = hydrogen.expect_radial_p_ground(grid_for(1), hermitized=True)

    table = []
    worst_overlap = 0.0
    for o1, o2, overlap in hydrogen.orthonormality_table(settings["ortho_max_n"]):
        expected = 1.0 if o1 == o2 else 0.0
        worst_overlap = max(worst_overlap, abs(overlap - expected))
        table.append(
            {
                "n1": o1.n, "l1": o1.l, "m1": o1.m,
                "n2": o2.n, "l2": o2.l, "m2": o2.m,
                "real": overlap.real,
                "imag": overlap.imag,
            }
        )

    return {
        "results": {
            "mean_radius": rows,
            "ground_state_momentum": {
                "bare_real": bare.real,
                "bare_imag": bare.imag,
                "hermitized_real": hermitized.real,
                "hermitized_imag": hermitized.imag,
            },
            "orthonormality": table,
        },
        "statistics": {
            "max_relative_error_mean_radius": worst_radius,
            "max_orthonormality_deviation": worst_overlap,
        },
    }


def run_commutator_check(settings: dict) -> dict:
    """results: convergence_order, max_interior_residual,
    refined_residual, residual_constant, spacing. statistics: empty."""
    report = hydrogen.grid_commutator_check(
        grids.UniformGrid1D(length=settings["length"], points=settings["points"])
    )
    return {"results": asdict(report), "statistics": {}}


def run_epr(settings: dict) -> dict:
    """results: conditional_position / conditional_momentum
    {slice_at, mean, std, expected_mean}, parseval_error,
    envelope_width. statistics: position_mean_deviation,
    position_tolerance, momentum_mean_deviation, momentum_tolerance."""
    cfg = eprpair.EprConfig(
        x0=settings["x0"],
        sigma=settings["sigma"],
        grid=grids.UniformGrid2D(length=settings["length"], points=settings["points"]),
    )
    psi = eprpair.build_epr_state(cfg)
    position = eprpair.condition_on_position(psi, settings["position"])
    momentum = eprpair.condition_on_momentum(psi, settings["momentum"])
    # Found by the pass condition_on_momentum ran, kept on psi.
    parseval_error = abs(psi.momentum_norm - 1.0)

    expected_x = position.sliced_at + cfg.x0
    expected_p = -momentum.sliced_at
    return {
        "results": {
            "conditional_position": {
                "slice_at": position.sliced_at,
                "mean": position.mean(),
                "std": position.std(),
                "expected_mean": expected_x,
            },
            "conditional_momentum": {
                "slice_at": momentum.sliced_at,
                "mean": momentum.mean(),
                "std": momentum.std(),
                "expected_mean": expected_p,
            },
            "parseval_error": parseval_error,
            "envelope_width": cfg.envelope_width,
        },
        "statistics": {
            "position_mean_deviation": abs(position.mean() - expected_x),
            "position_tolerance": cfg.sigma / 10.0,
            "momentum_mean_deviation": abs(momentum.mean() - expected_p),
            "momentum_tolerance": 1.0 / (10.0 * cfg.envelope_width),
        },
    }


def run_singlet_correlation(settings: dict) -> dict:
    """results: correlation, n_pairs, counts {up_up, up_down, down_up,
    down_down}, electron_setting, positron_setting.
    statistics: standard_error."""
    a, b = (spinlab.AnalyzerSetting.from_degrees(*p) for p in settings["angles"])
    counts = spinlab.pair_counts_blocked(
        _pair_model(settings),
        a,
        b,
        settings["samples"],
        settings["seed"],
    )
    value = counts.correlation
    n = counts.n_pairs
    return {
        "results": {
            "correlation": value,
            "n_pairs": n,
            "counts": asdict(counts),
            "electron_setting": settings["angles"][0],
            "positron_setting": settings["angles"][1],
        },
        "statistics": {
            "standard_error": (max(0.0, 1.0 - value * value) / n) ** 0.5,
        },
    }


def run_chsh(settings: dict) -> dict:
    """results: s, correlations rows {electron_setting,
    positron_setting, sign, value, n_pairs}. statistics:
    standard_error, classical_bound, tsirelson_bound."""
    pairs = settings["angles"]
    all_counts = spinlab.chsh_blocked(
        _pair_model(settings),
        *(spinlab.AnalyzerSetting.from_degrees(*p) for p in pairs),
        settings["samples"],
        settings["seed"],
    )
    s = 0.0
    variance = 0.0
    rows = []
    for (i, j, sign), counts in zip(spinlab.CHSH_TERMS, all_counts):
        value = counts.correlation
        s += sign * value
        variance += max(0.0, 1.0 - value * value) / counts.n_pairs
        rows.append(
            {
                "electron_setting": pairs[i],
                "positron_setting": pairs[j],
                "sign": sign,
                "value": value,
                "n_pairs": counts.n_pairs,
            }
        )
    return {
        "results": {"s": s, "correlations": rows},
        "statistics": {
            "standard_error": variance**0.5,
            "classical_bound": 2.0,
            "tsirelson_bound": 2.0 * 2.0**0.5,
        },
    }


def run_switch(settings: dict) -> dict:
    """results: p_electron_up, p_positron_down, n_pairs,
    n_electron_up, n_positron_down, note (non-empty when the
    mechanistic run diverges from the predicted table).
    statistics: standard_error_electron_up."""
    report = spinlab.switch_protocol_blocked(
        _pair_model(settings),
        settings["samples"],
        settings["mode"],
        settings["seed"],
    )
    p = report.p_electron_up
    return {
        "results": {
            **asdict(report),
            "p_electron_up": p,
            "p_positron_down": report.p_positron_down,
        },
        "statistics": {
            "standard_error_electron_up": (
                max(0.0, p * (1.0 - p)) / report.n_pairs
            )
            ** 0.5,
        },
    }


def run_untangle(settings: dict) -> dict:
    """results: n_draws, up_down, down_up,
    max_residual_schmidt_weight (0 for exact product outputs).
    statistics: branch_standard_error."""
    state = spinlab.singlet()
    n = settings["samples"]
    tallies = spinlab.untangle_counts(state, n, make_stream(settings["seed"], 0))
    # Every draw yields one of the two branch states, so the residual
    # over all outputs is the residual over the branches that occurred.
    worst = max(
        float(branch.schmidt_coefficients()[1])
        for branch, count in zip(spinlab.untangle_branches(state), tallies)
        if count
    )
    return {
        "results": {
            "n_draws": n,
            "up_down": tallies[0],
            "down_up": tallies[1],
            "max_residual_schmidt_weight": worst,
        },
        "statistics": {
            "branch_standard_error": (0.25 / n) ** 0.5,
        },
    }


@dataclass(frozen=True)
class CommandSpec:
    help: str
    options: tuple[Option, ...]
    handler: Callable[[dict], dict]


COMMANDS: dict[str, CommandSpec] = {
    "hydrogen": CommandSpec(
        "orbital mean radii, ground-state radial momentum, orthonormality",
        (
            Option("--max-n", _int_in_range(1, 8), 4,
                   "largest principal quantum number for mean radii"),
            Option("--ortho-max-n", _int_in_range(1, 4), 3,
                   "largest n in the orthonormality table; each pair uses "
                   "its own radial grid (r_max 40 n^2 for the larger n, "
                   "spacing at most 0.02)"),
            Option("--r-max", _float_value(positive=True), None,
                   "radial grid extent in Bohr radii for the mean "
                   "radii and momentum (default: per-orbital 40 n^2); "
                   "the spacing r_max/(points-1) must be at most 1; "
                   "not used by the orthonormality table"),
            Option("--points",
                   _int_in_range(hydrogen.MIN_RADIAL_POINTS, HYDROGEN_MAX_POINTS),
                   None,
                   "radial grid points for the mean radii and momentum "
                   "(default 4096); the spacing r_max/(points-1) must be "
                   "at most 1; not used by the orthonormality table"),
        ),
        run_hydrogen,
    ),
    "commutator-check": CommandSpec(
        "grid residual of the position-momentum commutator",
        (
            Option("--length", _float_value(positive=True), 16.0,
                   "grid extent; must exceed about 12.26 for the Gaussian "
                   "to decay at the edges"),
            Option("--points", _int_in_range(5, COMMUTATOR_MAX_POINTS), 513,
                   "grid points; the spacing length/points must be at "
                   "most 0.5 to resolve the Gaussian"),
        ),
        run_commutator_check,
    ),
    "epr": CommandSpec(
        "conditional distributions of the regularized two-particle state",
        (
            Option("--length", _float_value(positive=True), 20.0,
                   "grid extent per axis"),
            Option("--points", _int_in_range(64, EPR_MAX_POINTS), 512,
                   "grid points per axis"),
            Option("--sigma", _float_value(positive=True), 0.5,
                   "relative-coordinate width"),
            Option("--x0", _float_value(), 1.0, "separation offset"),
            Option("--position", _float_value(), 0.5,
                   "position at which particle I is found"),
            Option("--momentum", _float_value(), 1.0,
                   "momentum at which particle I is found"),
        ),
        run_epr,
    ),
    "singlet-correlation": CommandSpec(
        "joint spin statistics at two analyzer settings",
        (
            MODEL,
            P2_RULE,
            SAMPLES,
            Option("--angles", _angle_pairs(2), [[0.0, 0.0], [60.0, 0.0]],
                   "two polar angles, or two polar,azimuth pairs, degrees"),
        ),
        run_singlet_correlation,
    ),
    "chsh": CommandSpec(
        "CHSH statistic from four analyzer settings",
        (
            MODEL,
            P2_RULE,
            SAMPLES,
            Option("--angles", _angle_pairs(4),
                   [[0.0, 0.0], [90.0, 0.0], [45.0, 0.0], [135.0, 0.0]],
                   "four polar angles (a, a2, b, b2), or four "
                   "polar,azimuth pairs, degrees"),
        ),
        run_chsh,
    ),
    "switch": CommandSpec(
        "positron flipped to match the electron, then measured",
        (
            MODEL,
            P2_RULE,
            SAMPLES,
            Option("--mode", _choice(spinlab.SWITCH_MODES), "predicted",
                   "predicted: definite-spins bookkeeping; mechanistic: "
                   "collapse-ordered simulation"),
        ),
        run_switch,
    ),
    "untangle": CommandSpec(
        "map singlets to definite product states and tally the branches",
        (
            Option("--samples", _int_in_range(1, MAX_SAMPLES), 1_000,
                   "number of untangle draws"),
        ),
        run_untangle,
    ),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: options store strings with default None."""
    parser = argparse.ArgumentParser(
        prog="eprlab",
        description="Seeded, reproducible experiments on operator algebra, "
                    "hydrogen quadrature, the continuous two-particle state, "
                    "and singlet spin statistics.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        sub = subparsers.add_parser(name, help=spec.help)
        for option in COMMON_OPTIONS + spec.options:
            sub.add_argument(option.flag, dest=option.dest, default=None,
                             help=option.help)
        sub.add_argument(
            "--config", dest="config_path", default=None,
            help="key=value config file; explicit flags override it",
        )
    return parser


def load_config_file(path: str) -> dict[str, str]:
    """Parse key=value lines; blank lines and # comments are ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise CliError(f"{path}:{number}: expected key=value, got {line!r}")
        values[key.replace("-", "_")] = value.strip()
    return values


def resolve_settings(args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over defaults, then convert."""
    spec = COMMANDS[args.command]
    options = COMMON_OPTIONS + spec.options
    file_values = (
        load_config_file(args.config_path) if args.config_path else {}
    )
    known = {option.dest for option in options}
    unknown = sorted(set(file_values) - known)
    if unknown:
        raise CliError(
            f"unknown config file keys for {args.command}: "
            + ", ".join(unknown)
        )
    settings: dict = {"command": args.command}
    for option in options:
        raw = getattr(args, option.dest)
        if raw is None:
            raw = file_values.get(option.dest)
        if raw is None:
            settings[option.dest] = option.default
        else:
            settings[option.dest] = option.convert(option.flag, raw)
    return settings


def _flatten(value, prefix: str, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            path = f"{prefix}.{key}" if prefix else key
            _flatten(value[key], path, rows)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _flatten(item, f"{prefix}.{index}", rows)
    else:
        rows.append((prefix, _scalar_text(value)))


def _scalar_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not allowed: {value!r}")
        return repr(value)
    return str(value)


def render(payload: dict, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten(payload, "", rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("key", "value"))
    writer.writerows(rows)
    return buffer.getvalue()


def resolve_output_path(path: str | None) -> str | None:
    if path is None:
        return None
    if not os.path.isabs(path):
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            return os.path.join(base, path)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = resolve_settings(args)
        try:
            payload = {
                "config": {
                    key: value
                    for key, value in settings.items()
                    if key not in _NON_CONFIG
                },
                **COMMANDS[settings["command"]].handler(settings),
            }
            # A non-finite result cannot be rendered: JSON (RFC 8259)
            # has no NaN or Infinity.
            text = render(payload, settings["format"])
        except ValueError as exc:
            raise CliError(str(exc)) from None
        except ArithmeticError as exc:
            # An extreme but finite flag value can overflow a float.
            raise CliError(f"a flag value is out of computable range: {exc!r}") from None
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = resolve_output_path(settings["output"])
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
