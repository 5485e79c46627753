"""fedcotrain benchmark: closed-loop rounds, end-to-end metrics, traced layers.

    python3 benchmark/run.py --workload round-default --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports ``fedcotrain`` from its
``src/`` directory. One caller runs rounds back to back for ``--seconds``;
every round's outputs are checked, and a round that raises or fails a check
counts as failed without stopping the run.

``--trace 0`` prints every end-to-end metric. ``--trace 1`` alternates traced
and untraced rounds on the same inputs and prints the per-layer split, the
self time of every span and the tracing overhead (traced minus untraced
round time). ``--smoke`` runs tiny shapes for the benchmark's own tests.

The second-to-last stdout line is ``report <json>`` with every metric this
workload produces, its unit, the environment, the workload's shape and why. The
last line is the result: ``{"correct", "attempted", "failed", "metrics"}``
with the metrics ``BENCHMARK.json`` lists for the mode. Files land in
``.bench_out/`` at the checkout root; no timing goes into any report.jsonl.
"""

import os

# Fix the BLAS thread count before numpy loads: letting OpenBLAS pick its own
# count on a small shared machine made round times drift between passes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# End-to-end metric -> unit. mean_relative_accuracy and wire_bytes are printed
# by the workloads that produce them. The last output line carries only the
# metrics BENCHMARK.json lists, which every workload produces and none reads 0.
END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "round_s.tail": "s",
    "votes_per_s": "1/s",
    "mean_relative_accuracy": "ratio",
    "wire_bytes": "B",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
SETUP_SAMPLES = 5
# mean_relative_accuracy and wire_bytes average the first rounds only, which
# every run completes, so they repeat exactly for a workload seed.
RESULT_ROUNDS = 8


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). Below eleven samples no
    percentile qualifies, so the maximum is returned with what lies beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, 1) if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def setup_seconds(workload, seed, smoke):
    samples = []
    for _ in range(1 if smoke else SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed),
             "1" if smoke else "0"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def run_loop(wl, seconds, tracer, min_rounds):
    """Closed loop: the next round starts when the previous one has finished."""
    rounds = []
    start = time.perf_counter()
    i = 0
    while i < min_rounds or time.perf_counter() - start < seconds:
        # Traced runs pair a traced and an untraced round on the same input,
        # alternating which of the two goes first.
        slot = i // 2 if tracer is not None else i
        traced = tracer is not None and i % 2 == slot % 2
        record = {"round": i, "slot": slot, "traced": traced, "failures": [], "values": {}}
        try:
            if tracer is not None:
                # Input generation is traced as set-up, outside any round, so
                # the wire round's data builds show in the domain layer.
                tracer.round = None
                tracer.install()
            inputs = wl.prepare(slot)
            if traced:
                tracer.round = i
            elif tracer is not None:
                tracer.uninstall()
            record["seconds"], state = wl.run(inputs, tracer if traced else None)
        except Exception:
            record["seconds"] = None
            record["failures"].append(traceback.format_exc(limit=3))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if record["seconds"] is not None:
            try:
                checked = wl.check(inputs, state)
                record["failures"] += checked.failures
                record["values"] = checked.values
            except Exception:
                record["failures"].append(traceback.format_exc(limit=3))
        for failure in record["failures"]:
            print(f"round {i} failed: {failure}", file=sys.stderr)
        rounds.append(record)
        i += 1
    return rounds


def end_to_end(wl, rounds, setup):
    times = [r["seconds"] for r in rounds if r["seconds"] is not None]
    if not times:
        raise SystemExit("error: every round raised; no round time to report")
    failed = sum(1 for r in rounds if r["failures"])
    tail_value, percentile, beyond = tail(times)
    metrics = {
        "setup_s": setup[0],
        "round_s": statistics.median(times),
        "round_s.tail": tail_value,
        "votes_per_s": wl.votes_per_round * len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / len(rounds),
    }
    for name in ("mean_relative_accuracy", "wire_bytes"):
        values = [r["values"][name] for r in rounds[:RESULT_ROUNDS] if name in r["values"]]
        if values:
            metrics[name] = statistics.fmean(values)
    notes = {"round_s.tail": {"percentile": percentile, "samples": len(times),
                              "samples_beyond": beyond},
             "mean_relative_accuracy, wire_bytes": {"rounds": min(len(rounds), RESULT_ROUNDS)},
             "setup_s": {"samples": setup[1]},
             "rounds": [[r["slot"], r["seconds"]] for r in rounds]}
    return metrics, notes


def traced_summary(tracer, rounds):
    traced = [r for r in rounds if r["traced"] and r["seconds"] is not None]
    plain = {r["slot"]: r["seconds"] for r in rounds
             if not r["traced"] and r["seconds"] is not None}
    tracer.measure_vote_peak()
    summary = tracer.summary([r["round"] for r in traced])
    # Wire counts come from the coordinator transcript the workload checks.
    for name in ("netproto.messages", "netproto.bytes_up", "netproto.bytes_down"):
        values = [r["values"][name] for r in traced if name in r["values"]]
        summary["metrics"][name] = statistics.fmean(values) if values else 0.0
    paired = [r["seconds"] - plain[r["slot"]] for r in traced if r["slot"] in plain]
    summary["overhead"] = {
        "traced_round_s": statistics.median(r["seconds"] for r in traced),
        "untraced_round_s": statistics.median(plain.values()) if plain else None,
        "overhead_s": statistics.median(paired) if paired else None,
        "pairs": len(paired),
    }
    # Self times per round over the mean traced round: about 1 when one thread
    # runs the round; above 1 on wire-round, whose threads overlap and whose
    # coordinator span runs on to its next accept poll.
    accounted = sum(summary["layer_self_s_per_round"].values())
    summary["accounted_share_of_traced_round"] = accounted / statistics.fmean(
        r["seconds"] for r in traced)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes and two rounds, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "fedcotrain" / "__init__.py").is_file():
        print(f"error: no fedcotrain package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fedcotrain
    import numpy as np
    if Path(fedcotrain.__file__).resolve().parent.parent != SRC:
        print(f"error: imported fedcotrain from {fedcotrain.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from spans import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup = None if args.trace else setup_seconds(args.workload, args.seed, args.smoke)
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        wl.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    rounds = run_loop(wl, 0 if args.smoke else args.seconds, tracer,
                      min_rounds=2 if args.smoke or tracer is not None else RESULT_ROUNDS)
    failed = sum(1 for r in rounds if r["failures"])

    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "shape": wl.shape,
        "why": next(w["why"] for w in contract["workloads"] if w["name"] == wl.name),
        "loop": "closed, one caller",
        "environment": {
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": BLAS_THREADS,
        },
        "attempted": len(rounds), "failed": failed,
    }
    stem = f"{wl.name}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    OUT.mkdir(exist_ok=True)
    if args.trace:
        summary = traced_summary(tracer, rounds)
        layer = summary.pop("metrics")
        report["metrics"] = {name: {"value": layer[name], "unit": LAYER_METRICS[name][0]}
                             for name in LAYER_METRICS}
        report["layer_predictions"] = {name: {"moves": list(moves), "on": list(on)}
                                       for name, (_, moves, on) in LAYER_METRICS.items()}
        report.update(summary)
        tracer.write_spans(OUT / f"{stem}-spans.jsonl")
        # BENCHMARK.json lists the per-layer metrics every workload produces
        # with a measured value; the rest are in the report line and file.
        wanted = [m["name"] for m in contract["per_layer"]]
        (OUT / f"{stem}-trace.json").write_text(json.dumps(report, indent=1) + "\n")
    else:
        values, notes = end_to_end(wl, rounds, setup)
        report["metrics"] = {name: {"value": value, "unit": END_TO_END[name]}
                             for name, value in values.items()}
        report["notes"] = notes
        wanted = [m["name"] for m in contract["end_to_end"]]
        (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": {name: report["metrics"][name] for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
