"""One command for the frame pipeline and the serve path.

Run from the repository root::

    python3 perfbench/run.py --workload serve_unique --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and the ledger.  The human-readable report goes first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an
answer was wrong or a request was left unresolved, and 2 when the program
under test cannot be found.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import common
import ledger

common.pin_blas_threads()  # before anything imports numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("frames", "serve_unique", "serve_hot")
#: Workload-specific names of the end-to-end metrics, printed beside the JSON names.
ALIASES = {
    "frames": {"fps": "throughput_per_s", "frame_p50_ms": "p50_ms", "frame_p99_ms": "p99_ms"},
    "serve_unique": {"sat_rps": "throughput_per_s"},
    "serve_hot": {"sat_rps": "throughput_per_s"},
}
#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("rss_mb", "MiB"),
)

PER_LAYER = (
    ("vision.background.ms_per_frame", "ms"),
    ("vision.morphology.ms_per_frame", "ms"),
    ("vision.connected_components.ms_per_frame", "ms"),
    ("vision.blobs.ms_per_frame", "ms"),
    ("vision.tracker.ms_per_frame", "ms"),
    ("signatures.histogram.ms_per_frame", "ms"),
    ("signatures.binarize.ms_per_frame", "ms"),
    ("core.classifier.ms_per_frame", "ms"),
    ("pipeline.system.self_ms_per_frame", "ms"),
    ("vision.blobs.per_frame", "count"),
    ("core.classifier.signatures_per_frame", "count"),
    ("signatures.packing.us_per_req", "us"),
    ("serve.service.submit_us", "us"),
    ("serve.service.submit_cpu_us", "us"),
    ("serve.service.self_us", "us"),
    ("serve.service.dedup_share", "ratio"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.put_us", "us"),
    ("serve.cache.hit_share", "ratio"),
    ("serve.cache.invalidated_entries", "count"),
    ("serve.cache.swap_refill_misses", "count"),
    ("serve.batching.submit_us", "us"),
    ("serve.batching.batch_size_mean", "count"),
    ("serve.batching.wait_ms.p50", "ms"),
    ("serve.batching.wait_ms.p99", "ms"),
    ("serve.registry.dispatch_us_per_batch", "us"),
    ("serve.registry.swap_ms", "ms"),
    ("serve.shard.queue_wait_ms.p50", "ms"),
    ("serve.shard.queue_wait_ms.p99", "ms"),
    ("core.classifier.kernel_us_per_batch", "us"),
    ("core.classifier.kernel_us_per_req", "us"),
    ("core.classifier.busy_share", "ratio"),
    ("serve.request.complete_us_per_req", "us"),
    ("serve.metrics.us_per_req", "us"),
    ("obs.trace.us_per_req", "us"),
    ("loadgen.cpu_share", "ratio"),
    ("serve.dispatcher.cpu_share", "ratio"),
    ("serve.shard.cpu_share", "ratio"),
    ("serve.resilience.supervisor_cpu_share", "ratio"),
    ("loadgen.lag_ms.p50", "ms"),
    ("loadgen.lag_ms.p99", "ms"),
    ("trace.overhead_share", "ratio"),
    *((f"ledger.{row}.us_per_op", "us") for row in (*ledger.LEDGER_ROWS, "other", "total")),
)


def _import_program():
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def _print_report(provenance, workload, result, metrics, units) -> None:
    print(f"perfbench {workload}  seed={provenance['seed']}  trace={provenance['trace']}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if result["setup_times"]:
        times = ", ".join(f"{t:.3f}" for t in result["setup_times"])
        print(f"set-up runs (s): {times}")
    keys = _count_keys(result)
    print(f"{'phase':<18}" + "".join(f"{k:>18}" for k in keys))
    for name, phase in result["phases"].items():
        counts = _counts(phase)
        print(f"{name:<18}" + "".join(f"{counts.get(k, 0):>18}" for k in keys))
    for name, phase in result["phases"].items():
        if hasattr(phase, "latencies_s") and len(phase.latencies_s):
            for label, values in (("due->answer", phase.latencies_s),
                                  ("send->answer", phase.service_latencies_s),
                                  ("generator lag", phase.lags_s)):
                t = common.timing_summary(values)
                print(f"{name:<18} {label:<14} n={t['n']} p50={t['p50_ms']:.3f} ms "
                      f"p99={t['p99_ms']:.3f} ms p{t['tail_q']:g}={t['tail_ms']:.3f} ms")
    if "timing" in result:
        t = result["timing"]
        print(f"frame time n={t['n']} p50={t['p50_ms']:.3f} ms p99={t['p99_ms']:.3f} ms "
              f"p{t['tail_q']:g}={t['tail_ms']:.3f} ms")
    if result["ledger"] is not None:
        rows = result["ledger"]
        print("ledger (CPU us per op, traced pass)")
        for name in (*ledger.LEDGER_ROWS, "other"):
            print(f"  {name:<30}{rows.get(name, 0.0):>12.3f}")
        print(f"  {'total':<30}{rows['total']:>12.3f}")
        for problem in ledger.check_closure(rows):
            print(f"  ledger problem: {problem}")
    for name, value in metrics.items():
        print(f"{name:<44}{value:>16.6g} {units[name]}")
    if not provenance["trace"]:
        for alias, name in ALIASES[workload].items():
            print(f"{alias:<44}{metrics[name]:>16.6g} {units[name]}  (= {name})")


def _counts(phase) -> dict:
    """Outcome counts of a phase (serve phases carry them on an object)."""
    return phase if isinstance(phase, dict) else phase.counts


def _count_keys(result) -> tuple:
    keys = ["offered", "attempted", "answered", "cached", "deduplicated", "shed",
            "failed", "unresolved", "checked", "wrong"]
    if any("parity_blobs" in _counts(p) for p in result["phases"].values()):
        keys += ["parity_blobs", "parity_mismatches"]
    return tuple(keys)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    provenance = common.provenance(ROOT, args.workload, args.seed, bool(args.trace))

    if args.workload == "frames":
        import frames_workload

        result = frames_workload.run(args.seed, args.seconds, bool(args.trace), SETUP_REPEATS)
    else:
        import serve_workload

        result = serve_workload.run(args.workload, args.seed, args.seconds,
                                    bool(args.trace), SETUP_REPEATS)

    specs = PER_LAYER if args.trace else END_TO_END
    units = dict(specs)
    metrics = {name: 0.0 for name, _ in specs}  # layers a workload never calls read 0
    metrics.update({k: v for k, v in result["metrics"].items() if k in units})
    for row, value in (result["ledger"] or {}).items():
        metrics[f"ledger.{row}.us_per_op"] = value
    unknown = set(result["metrics"]) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from the declared list: {sorted(unknown)}")

    phases = [_counts(p) for p in result["phases"].values()]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p.get(k, 0) for p in phases
                 for k in ("shed", "failed", "unresolved", "wrong"))
    correct = all(p.get("wrong", 0) == 0 and p.get("unresolved", 0) == 0 for p in phases)
    _print_report(provenance, args.workload, result, metrics, units)
    print(f"attempted={attempted} failed={failed} fail_share={failed / max(attempted, 1):.6f} "
          f"correct={correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name, _ in specs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
