"""eprlab benchmark: one workload, timed end to end, every output checked.

    python3 bench/run.py --workload {cli-cold,statistics,grids} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The checkout's own ``src/`` is put on
the path, for this process and for every child, so each checkout
measures its own code. Load is closed-loop with one client: rounds of
the workload's fixed operations run back to back, one at a time, until
``--seconds`` have passed; only whole rounds are run.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same rounds
for half the time, alternately with and without spans, then the
per-layer probes (bench/layers.py), and
prints the per-layer metrics; it writes its spans to
``.bench_out/trace-<workload>-seed<N>.json``. The last line of stdout
is the result object; the line before it carries the workload's own
figures (per-operation medians and rates) for reading, not gating.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_rounds(workload, seed: int, seconds: float, tracer=None):
    """Run whole rounds until `seconds` pass. With a tracer, odd rounds
    are traced. Returns (per-round records, attempted, failed, ok)."""
    import checks

    rounds = []
    attempted = failed = 0
    correct = True
    deadline = perf_counter() + seconds
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        record = {"traced": traced, "ops": []}
        for op in workload.round(seed, r):
            attempted += 1
            try:
                if traced:
                    with tracer.installed(), tracer.span(f"op.{op.kind}"):
                        start = perf_counter()
                        result = op.run()
                        elapsed = perf_counter() - start
                else:
                    start = perf_counter()
                    result = op.run()
                    elapsed = perf_counter() - start
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print(f"failed: {op.kind}: {exc}", file=sys.stderr)
                continue
            try:
                op.check(result)
            except checks.CheckError as exc:
                correct = False
                print(f"check failed: {op.kind}: {exc}", file=sys.stderr)
            record["ops"].append((op.kind, elapsed, op.work))
        rounds.append(record)
        r += 1
        if perf_counter() >= deadline and (tracer is None or r >= 2):
            return rounds, attempted, failed, correct


def summarize(workload, rounds) -> dict:
    """Per-kind median times and their sum, the time of a typical round;
    and the workload's own figures, with pairs/shots/draws per second.
    A median per kind, rather than one per round, keeps a single stalled
    operation from moving the round."""
    by_kind = defaultdict(list)
    work = defaultdict(float)
    work_time = defaultdict(float)
    for record in rounds:
        for kind, elapsed, op_work in record["ops"]:
            by_kind[kind].append(elapsed)
            for unit, amount in op_work.items():
                work[unit] += amount
                work_time[unit] += elapsed
    kinds = {kind: statistics.median(times) for kind, times in sorted(by_kind.items())}
    by_kind["*"] = [t for times in by_kind.values() for t in times]
    figures = {name: statistics.median(by_kind[kind]) for name, kind in workload.figures.items() if by_kind[kind]}
    figures.update({f"{unit}_per_s": work[unit] / work_time[unit] for unit in work})
    return {"figures": figures, "op_median_s": kinds, "round_s": sum(kinds.values()), "rounds": len(rounds)}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-cold", "statistics", "grids"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "eprlab" / "__init__.py").is_file():
        print(f"error: no eprlab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    from tracing import Tracer

    out_dir = ROOT / ".bench_out"
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        if args.workload == "cli-cold":
            workload = workloads.CliCold(SRC, Path(tmp))
        elif args.workload == "statistics":
            workload = workloads.Statistics()
        else:
            workload = workloads.Grids()

        setup_failed = False
        for op in workload.setup(args.seed):
            try:
                op.check(op.run())
            except Exception as exc:  # set-up must succeed before anything is timed
                print(f"set-up failed: {op.kind}: {exc}", file=sys.stderr)
                setup_failed = True
        if setup_failed:
            return 1
        setup_s = perf_counter() - PROCESS_START

        tracer = Tracer() if args.trace else None
        # A traced run spends half its time on rounds and leaves the rest
        # to the probes, so it lasts about as long as an untraced one.
        seconds = args.seconds / 2 if args.trace else args.seconds
        rounds, attempted, failed, correct = run_rounds(workload, args.seed, seconds, tracer)

        plain = summarize(workload, [r for r in rounds if not r["traced"]])
        if args.trace:
            import layers

            traced = summarize(workload, [r for r in rounds if r["traced"]])
            metrics = {"trace.overhead_s": (traced["round_s"] - plain["round_s"], "s")}
            metrics.update(layers.probe(args.seed, workloads.child_env(SRC)))
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
            detail = {"self_s": tracer.self_times(), **traced}
        else:
            kinds = plain["op_median_s"]
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (plain["round_s"], "s"),
                "op_geomean_s": (math.exp(sum(math.log(t) for t in kinds.values()) / len(kinds)), "s"),
                "peak_rss_mb": (peak_rss_mb(workload.rss_of_children), "MB"),
            }
            detail = plain

    print("detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
