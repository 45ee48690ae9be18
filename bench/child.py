"""One pass of a benchmark workload, run in a fresh process by run.py.

    python3 bench/child.py SRC_DIR < job

The first thing the process does is import msskit from SRC_DIR; the
monotonic time at which that import is done is reported as ``ready``, so
the parent can measure set-up from spawn to import.  At the end a fixed
calibration loop reads the host's speed; the parent scales set-up and
body times by these readings (see ``calibrate``).  The job arrives on
stdin as one JSON line (workload, trace flag, whether to check CLI
output row by row even when its digest matches, query-mix requests); the
reference answers follow as a second line, read only after the timed body
and the memory reading.  The result is printed as one JSON line.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import msskit  # noqa: E402
import msskit.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402

import workloads  # noqa: E402


def calibrate(readings: int = 6) -> list:
    """Wall times of a fixed pure-Python loop: readings of host speed.

    The loop does the kind of work msskit does (building and sorting
    thousands of short words, pairwise symbol lookups, small big-int
    arithmetic) without touching msskit, so its time moves with the
    machine and never with the code under test.
    """
    rank = {"L": 0, "C": 1, "R": 2}
    times = []
    for _ in range(readings):
        t0 = time.perf_counter()
        acc, x, mask = 0, 1 << 100, (1 << 128) - 1
        for base in range(0, 12_000, 400):  # small batches keep its memory small
            words = ["RL" * (i % 11) + "R" * (i % 3) + "C" for i in range(base, base + 400)]
            for i, word in enumerate(words):
                for a, b in zip(word, word[1:]):
                    acc += rank[a] - rank[b]
                x = (x * 3 + i) & mask
            words.sort(key=lambda w: (w.count("R"), w[::-1]))
        times.append(time.perf_counter() - t0)
    return times


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_cli(name: str, check_rows: bool) -> dict:
    argv, pinned, rows = workloads.CLI[name]
    buf = io.StringIO()
    main = msskit.cli.main
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # counted as a failed run of every row
            code = repr(exc)
        run_s = time.perf_counter() - t0
    peak = _peak_rss_mib()
    data = buf.getvalue().encode()
    digest = hashlib.sha256(data).hexdigest()
    wrong = errors = 0
    if isinstance(code, str):
        errors = rows
    elif check_rows or code != 0 or digest != pinned:
        wrong = workloads.CHECKS[name](buf.getvalue())
        wrong = max(wrong, int(code != 0), int(digest != pinned))
    return {"run_s": run_s, "peak_rss_mib": peak, "attempted": rows, "wrong": wrong,
            "errors": errors, "output_bytes": len(data)}


def run_query_mix(requests) -> dict:
    calls = {"check": msskit.is_mss_structured, "factor": msskit.factor_tree,
             "compose": msskit.compose, "locate": msskit.locate}
    outputs, latency_ns = [], []
    clock = time.perf_counter_ns
    t0 = time.perf_counter()
    for kind, args in requests:
        call = calls[kind]
        start = clock()
        try:
            out = call(*args)
        except Exception as exc:  # a failed request is counted, not fatal
            out = exc
        latency_ns.append(clock() - start)
        outputs.append(out)
    run_s = time.perf_counter() - t0
    peak = _peak_rss_mib()
    expected = json.loads(sys.stdin.readline())
    errors, wrong = Counter(), 0
    for (kind, _), out, want in zip(requests, outputs, expected):
        if isinstance(out, Exception):
            errors[f"{kind}:{type(out).__name__}"] += 1
        elif not workloads.answer_ok(kind, out, want):
            wrong += 1
    by_kind = {}
    for (kind, _), ns in zip(requests, latency_ns):
        by_kind.setdefault(kind, []).append(ns)
    return {"run_s": run_s, "peak_rss_mib": peak, "attempted": len(requests),
            "wrong": wrong, "errors": sum(errors.values()), "error_kinds": dict(errors),
            "latency_ns": by_kind, "output_bytes": 0}


def main() -> None:
    result = {"ready": READY}
    job = json.loads(sys.stdin.readline())
    name = job["workload"]
    if name is not None:
        tracer = None
        if job["trace"]:
            import layers
            tracer = layers.Tracer()
            tracer.install()
        if name == workloads.QUERY_MIX:
            result.update(run_query_mix(job["requests"]))
        else:
            result.update(run_cli(name, job["check_rows"]))
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(result["output_bytes"])
            if job.get("spans_path"):
                tracer.write(job["spans_path"])
    result["calib_s"] = calibrate()  # after the body, so it adds nothing to its peak memory
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
