"""The three workloads, each a fixed round of operations.

A round is built from ``numpy.random.default_rng([seed, round])``, so
the same workload seed gives the same inputs, and every round attempts
the same operations. An operation's ``run`` is the timed call into the
program; its ``check`` applies every output check to what it returned.
Calls look eprlab's functions up on their modules at call time, so the
tracing wrappers of bench/tracing.py see them.

cli-cold   each subcommand at its defaults as a fresh ``python -m eprlab``
           child: interpreter start, numpy and eprlab's imports dominate.
statistics blocked pair sampling (chsh, singlet-correlation, switch),
           untangle draws and the per-shot collapse route.
grids      large hydrogen, epr and commutator-check documents, where the
           quadrature, 2D FFT and dense stencil kernels dominate.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks

CHILD_TIMEOUT_S = 120.0


class OpFailed(Exception):
    """The program exited non-zero, raised, or timed out."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    work: dict[str, int] = field(default_factory=dict)  # pairs, shots or draws


def argv_for(command: str, params: dict) -> list[str]:
    argv = [command]
    for key, value in params.items():
        if isinstance(value, list):
            value = ",".join(repr(float(v)) for v in value)
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


def call_main(argv: list[str]) -> str:
    """eprlab.cli.main in this process, stdout captured."""
    cli = importlib.import_module("eprlab.cli")
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        raise OpFailed(f"eprlab {' '.join(argv)} exited {code}")
    return buffer.getvalue()


def document_op(kind: str, command: str, params: dict, work: dict | None = None) -> Op:
    argv = argv_for(command, params)
    return Op(
        kind,
        lambda: call_main(argv),
        lambda text: checks.check_document(text, command, params),
        work or {},
    )


def child_op(kind: str, command: str, params: dict, env: dict) -> Op:
    """One cold ``python -m eprlab`` child; --output files are read back."""
    argv = [sys.executable, "-m", "eprlab"] + argv_for(command, params)

    def run():
        try:
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise OpFailed(f"{' '.join(argv[1:])} timed out") from None
        if done.returncode != 0:
            raise OpFailed(f"{' '.join(argv[1:])} exited {done.returncode}: {done.stderr[-500:]}")
        return done.stdout

    def check(stdout: str) -> None:
        text = stdout
        if "output" in params:
            checks.require(stdout == "", "stdout not empty with --output")
            path = Path(params["output"])
            text = path.read_text(encoding="utf-8")
            path.unlink()
        checks.check_document(text, command, params)

    return Op(kind, run, check)


def child_env(src: Path) -> dict:
    """This environment with PYTHONPATH set to the checkout's src/ alone."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(src)
    return env


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    return round(float(rng.uniform(low, high)), 3)


def _oblique_polar(rng: np.random.Generator) -> float:
    """A polar angle away from the equator, so the p2 sign rule has no ties."""
    polar = _uniform(rng, 15.0, 75.0)
    return polar if rng.random() < 0.5 else 180.0 - polar


# -- cli-cold -----------------------------------------------------------------

# (command, format, through --output): every subcommand at its defaults;
# three go through --format csv and three through --output.
COLD_CALLS = (
    ("hydrogen", "json", False),
    ("commutator-check", "csv", False),
    ("epr", "json", True),
    ("singlet-correlation", "csv", True),
    ("chsh", "json", False),
    ("switch", "csv", False),
    ("untangle", "json", True),
)


class CliCold:
    rss_of_children = True
    figures = {"cold_call_s": "*"}  # figure -> operation kind whose median it is

    def __init__(self, src: Path, tmpdir: Path) -> None:
        self.tmpdir = tmpdir
        self.env = child_env(src)

    def _call(self, rng, r: int, command: str, output_format: str, to_file: bool) -> Op:
        params: dict = {"seed": _seed(rng)}
        if output_format == "csv":
            params["format"] = "csv"
        if to_file:
            params["output"] = str(self.tmpdir / f"{command}-{r}.{output_format}")
        return child_op(command, command, params, self.env)

    def setup(self, seed: int) -> list[Op]:
        rng = np.random.default_rng([seed, 2**32])
        return [self._call(rng, -1, *COLD_CALLS[0])]

    def round(self, seed: int, r: int) -> list[Op]:
        rng = np.random.default_rng([seed, r])
        return [self._call(rng, r, *call) for call in COLD_CALLS]


# -- statistics -----------------------------------------------------------------

CHSH_P1_SAMPLES = 2**23  # standard error of S at most 5e-4
CHSH_P2_SAMPLES = 2**21
SINGLET_SAMPLES = 3_000_017  # 45 full 65536-pair blocks and a partial one
SWITCH_SAMPLES = 8_000_000
UNTANGLE_DRAWS = 20_000
REPEAT_SAMPLES = 2**18  # four blocks per correlation, so --workers 2 splits them
JOINT_DIMS = ((2, 2), (3, 6), (5, 8), (8, 4))
SHOTS_PER_STATE = 250
SAMPLE_PAIR_SHOTS = {"p1": 400, "p1_parallel": 100, "p2_deterministic": 1000, "p2_probabilistic": 1000}


def random_joint_problem(rng, d1: int, d2: int):
    amps = rng.normal(size=(d1, d2)) + 1j * rng.normal(size=(d1, d2))
    amps /= np.linalg.norm(amps)
    m = rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
    return amps, (m + m.conj().T) / 2.0


def measure_subsystem_op(rng) -> Op:
    measurement = importlib.import_module("eprlab.measurement")
    qcore = importlib.import_module("eprlab.qcore")
    problems = [random_joint_problem(rng, d1, d2) for d1, d2 in JOINT_DIMS]
    states = [(qcore.BipartiteState(amps), qcore.LinearOperator(a, hermitian=True)) for amps, a in problems]
    shot_rng = np.random.default_rng(_seed(rng))

    def run():
        return [
            [measurement.measure_subsystem(psi, a, shot_rng) for _ in range(SHOTS_PER_STATE)]
            for psi, a in states
        ]

    def check(results) -> None:
        for (amps, a), shots in zip(problems, results):
            checks.check_born_frequencies(amps, a, [shot.eigenvalue for shot in shots])
            for shot in shots:
                checks.check_collapse(a, shot.eigenvalue, shot.collapsed.amps)

    return Op("measure_subsystem", run, check, {"shots": SHOTS_PER_STATE * len(states)})


def sample_pair_op(rng) -> Op:
    spinlab = importlib.import_module("eprlab.spinlab")
    a = [_uniform(rng, 0.0, 180.0), _uniform(rng, 0.0, 360.0)]
    b = [_uniform(rng, 0.0, 180.0), _uniform(rng, 0.0, 360.0)]
    cases = {
        "p1": ("p1", "deterministic", a, b),
        "p1_parallel": ("p1", "deterministic", a, a),
        "p2_deterministic": ("p2", "deterministic", [_oblique_polar(rng), 0.0], [_oblique_polar(rng), 0.0]),
        "p2_probabilistic": ("p2", "probabilistic", a, b),
    }
    shot_rng = np.random.default_rng(_seed(rng))
    calls = []
    for name, (model, rule, ea, eb) in cases.items():
        source = spinlab.QuantumEntangled() if model == "p1" else spinlab.PreassignedDefinite(rule=rule)
        settings = (spinlab.AnalyzerSetting.from_degrees(*ea), spinlab.AnalyzerSetting.from_degrees(*eb))
        calls.append((source, settings, SAMPLE_PAIR_SHOTS[name]))

    def run():
        return [[spinlab.sample_pair(source, sa, sb, shot_rng).product for _ in range(n)] for source, (sa, sb), n in calls]

    def check(results) -> None:
        for products, (model, rule, ea, eb) in zip(results, cases.values()):
            checks.check_sample_pairs(products, model, rule, ea, eb)

    return Op("sample_pair", run, check, {"shots": sum(SAMPLE_PAIR_SHOTS.values())})


def repeat_op(rng) -> Op:
    """One document twice, then with --workers 2: the bytes must agree."""
    params = {"seed": _seed(rng), "samples": REPEAT_SAMPLES}
    argvs = [argv_for("chsh", params)] * 2 + [argv_for("chsh", dict(params, workers=2))]

    def check(texts) -> None:
        checks.check_document(texts[0], "chsh", params)
        checks.require(texts[0] == texts[1] == texts[2], "chsh bytes differ between repeats or worker counts")

    return Op("chsh.repeat", lambda: [call_main(argv) for argv in argvs], check, {"pairs": 3 * 4 * REPEAT_SAMPLES})


class Statistics:
    rss_of_children = False
    figures = {"chsh_s": "chsh.p1"}

    def setup(self, seed: int) -> list[Op]:
        importlib.import_module("eprlab.cli")
        return [document_op("warmup", "chsh", {"seed": seed, "samples": 4 * 65536})]

    def round(self, seed: int, r: int) -> list[Op]:
        rng = np.random.default_rng([seed, r])
        angles = [_oblique_polar(rng), _uniform(rng, 0.0, 360.0), _oblique_polar(rng), _uniform(rng, 0.0, 360.0)]
        p2 = {"model": "p2"}
        return [
            document_op("chsh.p1", "chsh", {"seed": _seed(rng), "samples": CHSH_P1_SAMPLES},
                        {"pairs": 4 * CHSH_P1_SAMPLES}),
            document_op("chsh.p2_probabilistic", "chsh",
                        {"seed": _seed(rng), **p2, "p2_rule": "probabilistic", "samples": CHSH_P2_SAMPLES, "format": "csv"},
                        {"pairs": 4 * CHSH_P2_SAMPLES}),
            document_op("singlet-correlation.p2_deterministic", "singlet-correlation",
                        {"seed": _seed(rng), **p2, "samples": SINGLET_SAMPLES, "angles": angles},
                        {"pairs": SINGLET_SAMPLES}),
            document_op("switch.p1_mechanistic", "switch",
                        {"seed": _seed(rng), "mode": "mechanistic", "samples": SWITCH_SAMPLES},
                        {"pairs": SWITCH_SAMPLES}),
            document_op("switch.p2_predicted", "switch",
                        {"seed": _seed(rng), **p2, "samples": SWITCH_SAMPLES, "format": "csv"},
                        {"pairs": SWITCH_SAMPLES}),
            document_op("untangle", "untangle", {"seed": _seed(rng), "samples": UNTANGLE_DRAWS},
                        {"draws": UNTANGLE_DRAWS}),
            measure_subsystem_op(rng),
            sample_pair_op(rng),
            repeat_op(rng),
        ]


# -- grids ------------------------------------------------------------------------


class Grids:
    rss_of_children = False
    figures = {"hydrogen_doc_s": "hydrogen", "epr_doc_s": "epr.n2048", "commutator_doc_s": "commutator-check"}

    def setup(self, seed: int) -> list[Op]:
        importlib.import_module("eprlab.cli")
        return [document_op("warmup", "epr", {"seed": seed})]

    def round(self, seed: int, r: int) -> list[Op]:
        rng = np.random.default_rng([seed, r])
        # Momentum requests stay within |p| <= 1.2, where the default
        # grid resolves the momentum conditional (see README).
        where = {"position": _uniform(rng, -3.0, 3.0), "momentum": _uniform(rng, -1.2, 1.2)}
        return [
            document_op("hydrogen", "hydrogen", {"seed": seed, "max_n": 8, "ortho_max_n": 4}),
            document_op("epr.n1024", "epr", {"seed": seed, "points": 1024, **where, "format": "csv"}),
            document_op("epr.n2048", "epr", {"seed": seed, "points": 2048, **where}),
            document_op("commutator-check", "commutator-check", {"seed": seed, "points": 1025, "format": "csv"}),
        ]
