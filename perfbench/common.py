"""Shared helpers: provenance, percentiles, CPU clocks and peak memory."""

from __future__ import annotations

import datetime
import math
import os
import platform
import resource
import threading
import time
from pathlib import Path

#: BLAS/OpenMP pools the benchmark pins to one thread (set before numpy loads).
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_blas_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread unless the caller set it."""
    for name in THREAD_ENV_VARS:
        os.environ.setdefault(name, "1")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, workload: str, seed: int, trace: bool) -> dict:
    """Host fingerprint plus what identifies this run."""
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (misses) sort last."""
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if not len(ordered):
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def highest_supported_percentile(n: int) -> float:
    """The highest of p99.99/p99.9/p99/p90 with at least ten samples beyond it."""
    for q in (99.99, 99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


def timing_summary(values_s) -> dict:
    """Median, p99 and the highest supported percentile, in ms, with n."""
    values = list(values_s)
    tail = highest_supported_percentile(len(values))
    return {
        "n": len(values),
        "p50_ms": percentile(values, 50) * 1e3,
        "p99_ms": percentile(values, 99) * 1e3,
        "tail_q": tail,
        "tail_ms": percentile(values, tail) * 1e3,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def thread_cpu_seconds() -> dict:
    """CPU seconds consumed so far by every live thread, keyed by ident."""
    out = {}
    for thread in threading.enumerate():
        if thread.ident is None:
            continue
        try:
            clock = time.pthread_getcpuclockid(thread.ident)
            out[thread.ident] = (thread.name, time.clock_gettime(clock))
        except OSError:  # the thread ended between enumerate() and the read
            continue
    return out


def thread_cpu_delta(before: dict, after: dict) -> dict:
    """Per-thread CPU used between two :func:`thread_cpu_seconds` samples."""
    out = {}
    for ident, (name, end) in after.items():
        start = before.get(ident, (name, 0.0))[1]
        out[ident] = (name, end - start)
    return out
