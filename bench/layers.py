"""Per-layer probes: each module timed from outside, through its public
entry points, on fixed inputs; counts come from the tracing wrappers.

Every traced run reports all of these, whatever its workload, so that
the per-layer rows can be compared between any two traced runs. Names
and the end-to-end metric each should move are tabled in README.md.
"""

from __future__ import annotations

import importlib
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import workloads
from tracing import Tracer

PAIR_MODELS = {"p1": ("p1", "deterministic"), "p2_det": ("p2", "deterministic"), "p2_prob": ("p2", "probabilistic")}
RATE_PAIRS = 2**21


def per_call(function, number: int, repeat: int = 5) -> float:
    """Median over `repeat` batches of the mean time of one call, in s."""
    samples = []
    for _ in range(repeat):
        start = perf_counter()
        for _ in range(number):
            function()
        samples.append((perf_counter() - start) / number)
    return statistics.median(samples)


def counted(function, name: str) -> int:
    """How many spans named `name` one call of `function` opens."""
    tracer = Tracer()
    with tracer.installed():
        function()
    return tracer.counts()[name]


def _import_profile(env: dict) -> tuple[float, float, int]:
    """`python -X importtime -m eprlab chsh`: eprlab's cumulative import
    time without numpy's, numpy's, and the number of eprlab modules."""
    argv = [sys.executable, "-X", "importtime", "-m", "eprlab", "chsh", "--samples", "1000"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=workloads.CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise workloads.OpFailed(f"import profile child exited {done.returncode}")
    eprlab_us = numpy_us = 0
    modules = 0
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        name = name_field.strip()
        top_level = len(name_field) - len(name_field.lstrip()) == 1
        if name == "numpy":
            numpy_us += int(cumulative)
        if name == "eprlab" or name.startswith("eprlab."):
            modules += 1
            if top_level:
                eprlab_us += int(cumulative)
    return (eprlab_us - numpy_us) / 1e3, numpy_us / 1e3, modules


def probe(seed: int, child_env: dict) -> dict[str, tuple[float, str]]:
    cli = importlib.import_module("eprlab.cli")
    from eprlab import eprpair, grids, hydrogen, measurement, qcore, rng, spinlab

    out: dict[str, tuple[float, str]] = {}
    gen = np.random.default_rng([seed, 2**33])

    # __init__ (import), in a child: what `python -m eprlab chsh` pays.
    profiles = [_import_profile(child_env) for _ in range(3)]
    out["import.eprlab_ms"] = (statistics.median(p[0] for p in profiles), "ms")
    out["import.numpy_ms"] = (statistics.median(p[1] for p in profiles), "ms")
    out["import.eprlab_modules.chsh"] = (profiles[0][2], "count")

    # cli
    def resolve():
        cli.resolve_settings(cli.build_parser().parse_args(["chsh", "--seed", "7"]))

    out["cli.resolve_us"] = (per_call(resolve, 50) * 1e6, "us")
    big = cli.run_hydrogen(cli.resolve_settings(cli.build_parser().parse_args(["hydrogen", "--max-n", "8", "--ortho-max-n", "4"])))
    for fmt in ("json", "csv"):
        out[f"cli.render_{fmt}_ms"] = (per_call(lambda: cli.render(big, fmt), 3) * 1e3, "ms")
    for command in cli.COMMANDS:
        settings = cli.resolve_settings(cli.build_parser().parse_args([command]))
        out[f"cli.handler_ms.{command}"] = (per_call(lambda: cli.COMMANDS[command].handler(settings), 1, 3) * 1e3, "ms")

    # rng
    out["rng.make_stream_us"] = (per_call(lambda: rng.make_stream(seed, 3), 200) * 1e6, "us")
    out["rng.streams_per_chsh_doc"] = (
        counted(lambda: workloads.call_main(["chsh", "--samples", str(workloads.CHSH_P1_SAMPLES)]), "rng.make_stream"),
        "count",
    )

    # spinlab
    a = spinlab.AnalyzerSetting.from_degrees(30.0, 10.0)
    b = spinlab.AnalyzerSetting.from_degrees(110.0, 70.0)

    def source(model: str, rule: str):
        return spinlab.QuantumEntangled() if model == "p1" else spinlab.PreassignedDefinite(rule=rule)

    for tag, (model, rule) in PAIR_MODELS.items():
        for workers, suffix in ((1, ""), (2, ".workers2")):
            seconds = per_call(lambda: spinlab.pair_counts_blocked(source(model, rule), a, b, RATE_PAIRS, seed, workers=workers), 1, 3)
            out[f"spinlab.pair_counts_blocked.{tag}{suffix}.mpairs_per_s"] = (RATE_PAIRS / seconds / 1e6, "Mpairs/s")
    for model in ("p1", "p2"):
        for mode in ("predicted", "mechanistic"):
            seconds = per_call(lambda: spinlab.switch_protocol_blocked(source(model, "deterministic"), RATE_PAIRS, mode, seed), 1, 3)
            out[f"spinlab.switch_protocol_blocked.{model}.{mode}.mpairs_per_s"] = (RATE_PAIRS / seconds / 1e6, "Mpairs/s")
    shot_rng = np.random.default_rng(seed)
    for model in ("p1", "p2"):
        pair_source = source(model, "deterministic")
        out[f"spinlab.sample_pair.{model}.us"] = (per_call(lambda: spinlab.sample_pair(pair_source, a, b, shot_rng), 100) * 1e6, "us")
    singlet = spinlab.singlet()
    out["spinlab.untangle.us"] = (per_call(lambda: spinlab.untangle(singlet, shot_rng), 500) * 1e6, "us")

    # measurement and qcore, on seeded random joint states
    for dim in (2, 8):
        amps, op = workloads.random_joint_problem(gen, dim, dim)
        psi, observable = qcore.BipartiteState(amps), qcore.LinearOperator(op, hermitian=True)
        out[f"measurement.expand_bipartite.dim{dim}.us"] = (per_call(lambda: measurement.expand_bipartite(psi, observable), 200) * 1e6, "us")
        out[f"measurement.measure_subsystem.dim{dim}.us"] = (per_call(lambda: measurement.measure_subsystem(psi, observable, shot_rng), 200) * 1e6, "us")
        out[f"qcore.eigengroups.dim{dim}.us"] = (per_call(lambda: qcore.eigengroups(observable), 200) * 1e6, "us")
    spin_a = spinlab.spin_operator(a)
    state = qcore.StateVector(np.array([0.6, 0.8j]))
    out["qcore.measure_observable.us"] = (per_call(lambda: qcore.measure_observable(spin_a, state, shot_rng), 200) * 1e6, "us")
    out["qcore.eigh_per_shot"] = (counted(lambda: measurement.measure_subsystem(singlet, spin_a, shot_rng), "numpy.linalg.eigh"), "count")
    out["qcore.eigh_per_p1_pair"] = (
        counted(lambda: spinlab.sample_pair(spinlab.QuantumEntangled(), a, b, shot_rng), "numpy.linalg.eigh"),
        "count",
    )
    blocks = 4
    out["qcore.eigh_per_block"] = (
        counted(lambda: spinlab.pair_counts_blocked(spinlab.QuantumEntangled(), a, b, blocks * spinlab.DEFAULT_BLOCK_SIZE, seed), "numpy.linalg.eigh") / blocks,
        "count",
    )
    draws = 10
    out["qcore.svd_per_untangle_draw"] = (
        counted(lambda: workloads.call_main(["untangle", "--samples", str(draws)]), "numpy.linalg.svd") / draws,
        "count",
    )

    # hydrogen
    out["hydrogen.expect_r.ms"] = (per_call(lambda: hydrogen.expect_r(4, 3), 10) * 1e3, "ms")
    o1, o2 = hydrogen.Orbital(1, 0, 0), hydrogen.Orbital(4, 3, 2)
    out["hydrogen.orbital_overlap.ms"] = (per_call(lambda: hydrogen.orbital_overlap(o1, o2), 5) * 1e3, "ms")
    for max_n in (3, 4):
        out[f"hydrogen.orthonormality_table.max_n{max_n}.ms"] = (per_call(lambda: hydrogen.orthonormality_table(max_n), 1, 1) * 1e3, "ms")
    for points in (513, 1025):
        grid = grids.UniformGrid1D(16.0, points)
        out[f"hydrogen.grid_commutator_check.n{points}.ms"] = (per_call(lambda: hydrogen.grid_commutator_check(grid), 1, 3) * 1e3, "ms")
    out["hydrogen.central_difference_momentum.n2050.mb"] = (
        hydrogen.central_difference_momentum(grids.UniformGrid1D(16.0, 2050)).entries.nbytes / 1e6,
        "MB",
    )

    # eprpair
    for points in (512, 2048):
        cfg = eprpair.EprConfig(grid=grids.UniformGrid2D(20.0, points))
        psi2 = eprpair.build_epr_state(cfg)
        out[f"eprpair.build_epr_state.n{points}.ms"] = (per_call(lambda: eprpair.build_epr_state(cfg), 1, 3) * 1e3, "ms")
        out[f"eprpair.momentum_representation.n{points}.ms"] = (per_call(lambda: eprpair.momentum_representation(psi2), 1, 3) * 1e3, "ms")
        if points == 512:
            out["eprpair.condition_on_position.ms"] = (per_call(lambda: eprpair.condition_on_position(psi2, 0.5), 20) * 1e3, "ms")
            out["eprpair.condition_on_momentum.ms"] = (per_call(lambda: eprpair.condition_on_momentum(psi2, 1.0), 3) * 1e3, "ms")
        del psi2
    out["eprpair.fft2_per_epr_doc"] = (counted(lambda: workloads.call_main(["epr"]), "numpy.fft.fft2"), "count")
    return out
