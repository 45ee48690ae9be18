"""msskit benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an msskit source tree; msskit is imported from
``src/``.  NAME is one of verify-order-p12, selftest-p16, query-mix,
enumerate-p20, or ``all`` to run, in turn, the workloads BENCHMARK.json
lists (see README.md for why enumerate-p20 is not among them).

Every pass runs in a fresh child process, one at a time, with
MSSKIT_THREADS unset.  Passes repeat while the next one still fits in S
seconds.  Gated times are scaled by a host-speed calibration (see
CALIB_REF_S).  With ``--trace 0`` the last
line of stdout is the result: ``correct``, ``attempted``, ``failed`` and
the end-to-end metrics (setup_s, run_s, peak_rss_mib).  With
``--trace 1`` untraced and traced passes alternate and the result holds
the per-layer metrics, trace_overhead and the query-mix latencies.  The
line before the result is a report with the machine record and the
figures the result has no room for: items_per_s, fail_ratio, and the
query-mix latency percentiles with their sample counts.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import mpmath

import workloads

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_SAMPLES = 9  # set-up readings per run, from passes plus set-up-only children
# Gated times are wall times scaled to a host on which one calibration
# reading (child.calibrate) takes this long.  The shared host this
# benchmark was built on drifts by 20% or more over minutes; the scaling
# removes most of that drift.
CALIB_REF_S = 0.05
RUN_LIMIT_S = 170  # a run, children included, ends within this or fails

# Percentiles reported for query-mix: (kind, quantile, unit, ns per unit).
LATENCIES = [
    ("check", 0.50, "us", 1e3), ("check", 0.99, "us", 1e3),
    ("factor", 0.50, "us", 1e3), ("factor", 0.99, "us", 1e3),
    ("compose", 0.50, "us", 1e3),
    ("locate", 0.50, "ms", 1e6), ("locate", 0.95, "ms", 1e6),
]
KINDS = ["check", "factor", "compose", "locate"]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine_record(src: Path) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    tree = hashlib.sha256()
    for path in sorted((src / "msskit").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "msskit_commit": commit,
        "msskit_src_sha256": tree.hexdigest(),
    }


class Runner:
    """Spawns one child per pass and keeps every reading."""

    def __init__(self, src: Path, spans_dir: Path):
        self.src = src
        self.spans_dir = spans_dir
        self.env = {k: v for k, v in os.environ.items() if k != "MSSKIT_THREADS"}
        self.env["PYTHONHASHSEED"] = "0"
        self.deadline = 0.0

    def spawn(self, lines: list) -> dict:
        payload = "".join(json.dumps(line) + "\n" for line in lines).encode()
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(CHILD), str(self.src)], input=payload,
                              capture_output=True, env=self.env,
                              timeout=max(1.0, self.deadline - t0))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError(f"benchmark child exited with code {proc.returncode}")
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        result["setup_s"] = result.pop("ready") - t0
        return result

    def setup_only(self) -> dict:
        return self.spawn([{"workload": None}])

    def run(self, name: str, seed: int, seconds: float, trace: bool) -> dict:
        self.deadline = time.monotonic() + RUN_LIMIT_S
        requests = expected = None
        if name == workloads.QUERY_MIX:
            requests, expected = workloads.query_mix(seed)
        self.setup_only()  # warm-up: bytecode and file caches, not measured
        untraced, traced = [], []
        start = time.monotonic()
        while True:
            cycle = time.monotonic()
            for tracing in ([False, True] if trace else [False]):
                job = {"workload": name, "trace": tracing, "requests": requests,
                       "check_rows": not untraced and not tracing}
                if tracing:
                    job["spans_path"] = str(self.spans_dir / f"spans-{name}.bin")
                lines = [job] if expected is None else [job, expected]
                (traced if tracing else untraced).append(self.spawn(lines))
            now = time.monotonic()
            if now + (now - cycle) > start + seconds:  # the next cycle would overrun
                break
        setups = untraced + traced
        if not trace:
            while len(setups) < SETUP_SAMPLES:
                setups.append(self.setup_only())
        return summarize(name, untraced, traced, setups, requests, expected)


def summarize(name, untraced, traced, setups, requests, expected) -> dict:
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["wrong"] + p["errors"] for p in passes)
    calib_s = statistics.mean(c for p in setups for c in p["calib_s"])
    scale = CALIB_REF_S / calib_s
    run_wall_s = statistics.mean(p["run_s"] for p in untraced)
    run_s = run_wall_s * scale
    setup_wall_s = statistics.median(p["setup_s"] for p in setups)
    report = {
        "workload": name,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "run_wall_s_passes": [p["run_s"] for p in untraced],
        "errors": sum(p["errors"] for p in passes),
        "wrong": sum(p["wrong"] for p in passes),
    }
    items = len(requests) if requests else workloads.CLI[name][2]
    detail = {
        "fail_ratio": (failed / attempted, "ratio"),
        "items_per_s": (items / run_s, "1/s"),
        "run_wall_s": (run_wall_s, "s"),
        "setup_wall_s": (setup_wall_s, "s"),
        "calib_s": (calib_s, "s"),
    }
    if name == "selftest-p16":
        del detail["items_per_s"]  # checks, not items users ask for
    if requests:
        detail["expected_fail_ratio"] = (workloads.extremal_share(requests, expected), "ratio")
        report["error_kinds"] = dict(sum(
            (Counter(p["error_kinds"]) for p in passes), Counter()))
    latency = {}  # zero where the workload sends no requests
    for kind, q, unit, ns_per_unit in LATENCIES:
        latency[f"{kind}_p{round(q * 100)}_{unit}"] = (statistics.median(
            percentile(p["latency_ns"][kind], q) / ns_per_unit for p in untraced
        ) if requests else 0.0, unit)
    for kind in KINDS:
        latency[f"{kind}.samples"] = (
            len(untraced[0]["latency_ns"][kind]) if requests else 0, "count")
    if requests:
        detail.update(latency)
    report["detail"] = {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}

    if traced:
        layers = [p["layers"] for p in traced]
        metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        metrics["trace_overhead"] = statistics.mean(p["run_s"] for p in traced) / run_wall_s
        for key, (value, _) in latency.items():
            metrics[f"query.{key}"] = value
    else:
        metrics = {
            "setup_s": setup_wall_s * scale,
            "run_s": run_s,
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in untraced),
        }
    result = {
        "correct": all(p["wrong"] == 0 for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"report": report, "result": result}


def labelled(metrics: dict, declared: list) -> dict:
    """The declared metrics, in declared order, each with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "msskit" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        sys.stderr.write("run from the root of an msskit source tree: "
                         "src/msskit and BENCHMARK.json are needed\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    spans_dir = root / ".bench_out"
    spans_dir.mkdir(exist_ok=True)
    runner = Runner(src, spans_dir)
    machine = machine_record(src)
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    for name in names:
        out = runner.run(name, args.seed, args.seconds, bool(args.trace))
        out["result"]["metrics"] = labelled(out["result"]["metrics"], declared)
        out["report"].update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                             machine=machine)
        if args.workload == "all":
            print_table(name, out)
        print(json.dumps(out["report"]))
        print(json.dumps(out["result"]))
    return 0


def print_table(name: str, out: dict) -> None:
    rows = {**out["result"]["metrics"], **out["report"]["detail"]}
    print(f"== {name}: correct={out['result']['correct']} "
          f"attempted={out['result']['attempted']} failed={out['result']['failed']}")
    for key, m in rows.items():
        print(f"   {key:<40} {m['value']:>14.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
