"""Run one resoplus benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lemma-b12 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  One process runs one workload,
single-threaded.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full report (environment, digest, tail percentile, failures).

``--trace 0`` measures the end-to-end metrics.  Item times are each
input's mean over the run (a replayed input counted as in two passes),
scaled to the host speed at which the workload's reference work takes its
nominal time (see ``harness.REFERENCES``).  ``setup_s`` is the median of
five cold set-ups, as measured, each timed from the start of its own
process to the end of its warm-up: this process's and those of
``--setup-only`` children run two before and two after the timed loop, so
that they sample the host at both ends of the run.

``--trace 1`` runs the items for half the time untraced, replays the same
items with every layer wrapped, checks that both give the same output
digest, and reports the per-layer metrics; spans are written to
``.perfbench_out/`` in the checkout.
"""
from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
from tracer import NO_ITEM, Tracer  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
SETUP_CHILDREN = 2  # cold set-ups in fresh processes, before and again after the timed loop
WORKLOAD_NAMES = ("lemma-b12", "hardness-51", "lifted-game", "tseitin-certify")
END_TO_END = {
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="print the seconds of one cold set-up and exit")
    return ap.parse_args(argv)


def import_library(root: Path):
    """Import resoplus from the checkout's src/, refusing any other copy."""
    src = root / "src"
    if not (src / "resoplus" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {src / 'resoplus'}; run from a resoplus checkout")
    sys.path.insert(0, str(src))
    import resoplus

    if Path(resoplus.__file__).resolve().parent != (src / "resoplus").resolve():
        raise SystemExit(f"perfbench: imported resoplus from {resoplus.__file__}, not from {src}")
    return resoplus


def outcome_failures(workload, outcomes) -> tuple[list[str], int, list]:
    """(messages, failed item count, canon list) over all outcomes.

    Outcomes of the same input (a repeated pass) must agree; the canon list
    holds each input's exact result once, in first-seen order.
    """
    messages, failed, canon = [], 0, []
    first_seen: dict[int, str] = {}
    for o in outcomes:
        bad = list(o.failures)
        if o.canon is not None:
            key = workload.input_of(o.index)
            if key not in first_seen:
                first_seen[key] = o.canon
                canon.append(o.canon)
            elif first_seen[key] != o.canon:
                bad.append("result differs from an earlier run of the same input")
        if bad:
            failed += 1
            messages += [f"item {o.index}: {m}" for m in bad]
    return messages, failed, canon


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    resoplus = import_library(root)
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed)
    workload.warm_up()
    setups = [perf_counter() - STARTED]
    if args.setup_only:
        print(setups[0])
        return 0
    if not args.trace:
        setups += cold_setups(args, SETUP_CHILDREN)

    loop = harness.run_items(workload, seconds=args.seconds / 2 if args.trace else args.seconds)
    if not args.trace:
        setups += cold_setups(args, SETUP_CHILDREN)
    messages, failed, canon = outcome_failures(workload, loop.outcomes)
    run_messages = workload.check_run(loop.outcomes)
    out_digest = harness.digest(canon)
    expected = workloads.EXPECTED_DIGESTS.get(args.workload) if args.seed == harness.DEFAULT_SEED else None
    if expected is not None and out_digest != expected:
        run_messages.append(f"output digest {out_digest} differs from the one recorded for seed {args.seed}: {expected}")

    attempted = len(loop.outcomes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": harness.environment(root),
        "items": attempted,
        "passes": attempted // workload.pass_len,
        "digest": out_digest,
        "expected_digest": expected,
    }
    if args.trace:
        values, extra = traced_run(args, workload, loop, resoplus, root)
        report.update(extra)
        if extra["traced_digest"] != out_digest:
            run_messages.append(f"traced output digest {extra['traced_digest']} differs from untraced {out_digest}")
        units = {name: unit for name, unit, _ in layers.metric_names()}
    else:
        copies = harness.MIN_PASSES if workload.repeats else 1
        latencies = harness.typical_times(loop.outcomes, workload.input_of, copies)
        p, tail, beyond = harness.tail_percentile(latencies)
        measured = {
            "items_per_s": len(latencies) / sum(latencies),
            "item_p50_ms": statistics.median(latencies) * 1e3,
            "item_tail_ms": tail * 1e3,
            "setup_s": statistics.median(setups),
        }
        factor = loop.host_factor
        values = {
            "items_per_s": measured["items_per_s"] / factor,
            "item_p50_ms": measured["item_p50_ms"] * factor,
            "item_tail_ms": measured["item_tail_ms"] * factor,
            "setup_s": measured["setup_s"],
            "peak_rss_mib": harness.peak_rss_mib(),
        }
        units = END_TO_END
        report["tail"] = {"percentile": p, "items_beyond": beyond, "items": len(latencies)}
        report["set_ups_s"] = setups
        report["host"] = {"factor": factor, "reference_mean_s": statistics.fmean(loop.reference_s),
                          "reference_timings": len(loop.reference_s), "unscaled": measured}
    # a failed run-level check counts as one failed item
    failed += len(run_messages)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["error_rate"] = {"value": failed / attempted, "unit": "fraction"}
    report["failures"] = (messages + run_messages)[:50]
    report["metrics"] = metrics
    correct = failed == 0
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def cold_setups(args, count: int) -> list[float]:
    """Seconds of ``count`` cold set-ups, each in a fresh process, one at a time."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    return [float(subprocess.run(command, check=True, capture_output=True, text=True).stdout.split()[-1])
            for _ in range(count)]


def traced_run(args, workload, loop, resoplus, root) -> tuple[dict, dict]:
    """Replay the untraced loop's items with every layer wrapped."""
    tracer = Tracer()

    def enter(i: int) -> None:
        tracer.item = i

    tracer.install(layers.targets({name: getattr(resoplus, name) for name in layers.LAYERS}))
    try:
        replay = harness.run_items(workload, count=len(loop.outcomes), on_item=enter)
    finally:
        tracer.uninstall()
        tracer.item = NO_ITEM
    _, _, canon = outcome_failures(workload, replay.outcomes)
    item_s = sum(o.seconds for o in replay.outcomes)
    values = layers.per_layer_metrics(tracer, workload.declared, len(replay.outcomes), item_s)
    values["trace.overhead_frac"] = loop.items_per_s / replay.items_per_s - 1.0
    holds, share = layers.split_holds(args.workload, values)
    values["trace.split_holds"] = int(holds)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.dump(span_file)
    extra = {
        "traced_digest": harness.digest(canon),
        "untraced_items_per_s": loop.items_per_s,
        "traced_items_per_s": replay.items_per_s,
        "intended_split": {
            "layers": list(layers.INTENDED_SPLIT[args.workload]),
            "share": share,
            "holds": holds,
            "rule": f"summed share of item time >= {layers.SPLIT_SHARE}",
        },
        "shares": {layer: values[f"{layer}.share"] for layer in layers.LAYERS},
        "spans": len(tracer.start),
        "span_file": str(span_file.relative_to(root)),
    }
    return values, extra


if __name__ == "__main__":
    sys.exit(main())
