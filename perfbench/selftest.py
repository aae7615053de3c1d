"""Small-scale self-test of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that the same seed gives a bit-identical schedule, that the traced
ledger closes on the frame and serve paths, that a corrupted answer is
caught by the correctness check, and that ``BENCHMARK.json`` declares
exactly the metrics the command prints.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import sys

import common

common.pin_blas_threads()

import run  # noqa: E402  (after the thread pinning)

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def schedule_is_deterministic(serve_workload, frames_workload) -> None:
    import numpy as np

    test = np.random.default_rng(0).integers(0, 2, size=(50, 768), dtype=np.uint8)
    for kind in serve_workload.KINDS:
        a = serve_workload.make_schedule(kind, 7, 1.0, test)
        b = serve_workload.make_schedule(kind, 7, 1.0, test)
        c = serve_workload.make_schedule(kind, 8, 1.0, test)
        same = a[0] == b[0] and np.array_equal(a[2], b[2]) and all(
            np.array_equal(a[1][k], b[1][k]) and np.array_equal(a[3][k], b[3][k])
            for k in a[1])
        check(same, f"{kind}: same seed gives a bit-identical schedule")
        check(not np.array_equal(a[1]["steady"], c[1]["steady"]),
              f"{kind}: another seed gives another schedule")
    first = [f.image for f in frames_workload.scene(3).frames(2)]
    again = [f.image for f in frames_workload.scene(3).frames(2)]
    check(all(np.array_equal(x, y) for x, y in zip(first, again)),
          "frames: same seed renders bit-identical frames")


def ledger_closes(serve_workload, frames_workload, ledger) -> None:
    results = {
        "frames": frames_workload.run(5, 1.0, True, 1),
        "serve_unique": serve_workload.run("serve_unique", 5, 2.0, True, 1),
    }
    for name, result in results.items():
        rows = result["ledger"]
        summed = sum(v for k, v in rows.items() if k != "total")
        check(not ledger.check_closure(rows) and abs(summed - rows["total"]) < 1e-6,
              f"{name}: ledger rows plus other add up to the traced total "
              f"({summed:.2f} vs {rows['total']:.2f} us/op)")
        wrong = sum(p["wrong"] if isinstance(p, dict) else p.counts["wrong"]
                    for p in result["phases"].values())
        check(wrong == 0, f"{name}: traced and untraced passes answer correctly")


def corrupted_answers_are_caught(serve_workload, frames_workload) -> None:
    import numpy as np

    inputs = serve_workload.make_inputs("serve_hot", 9, 0.5)
    refs = [serve_workload.reference_answers(s, inputs.pool[:256]) for s in inputs.snapshots]
    rows = np.arange(256)
    answers = {"rows": rows, "labels": refs[1][0].copy(), "neurons": refs[1][1].copy(),
               "distances": refs[1][2].copy()}
    check(not serve_workload.wrong_answers(answers, refs).any(),
          "serve: answers of either swapped snapshot are accepted")
    answers["labels"][17] += 1000
    check(serve_workload.wrong_answers(answers, refs).sum() == 1,
          "serve: one corrupted label is caught")
    answers["labels"][17] -= 1000
    answers["distances"][3] += 1.0
    check(serve_workload.wrong_answers(answers, refs).sum() == 1,
          "serve: one corrupted distance is caught")

    classifier = inputs.snapshots[0].to_classifier()
    labels = classifier.predict_batch(inputs.pool[:64]).labels.copy()
    check(not frames_workload.wrong_labels(classifier, labels, inputs.pool[:64]).any(),
          "frames: correct labels pass")
    labels[5] += 1000
    check(frames_workload.wrong_labels(classifier, labels, inputs.pool[:64]).sum() == 1,
          "frames: one corrupted label is caught")


def declared_metrics_match() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    check(declared == list(run.END_TO_END), "BENCHMARK.json end_to_end matches the command")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(declared == list(run.PER_LAYER), "BENCHMARK.json per_layer matches the command")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match the command")


def main() -> int:
    run._import_program()
    import frames_workload
    import ledger
    import serve_workload

    declared_metrics_match()
    schedule_is_deterministic(serve_workload, frames_workload)
    corrupted_answers_are_caught(serve_workload, frames_workload)
    ledger_closes(serve_workload, frames_workload, ledger)
    print(f"selftest: {'FAILED ' + str(len(FAILURES)) if FAILURES else 'OK'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
