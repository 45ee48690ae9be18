"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/spread.py --workloads all --seeds 1-10 [--out FILE]

For every workload and seed this runs ``bench/run.py`` once with
``--trace 0`` and the ``run_seconds`` of BENCHMARK.json, one run at a
time.  For each end-to-end metric it reports the median of the per-run
values and the interquartile range as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound; the
report-line figures (fail ratio, items per second, query-mix latency
percentiles) are summarized the same way.  Run from the source-tree root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all",
                        help="comma-separated workload names, or all in BENCHMARK.json")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for name in names:
        results, reports = [], []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            reports.append(json.loads(lines[-2]))
            results.append(json.loads(lines[-1]))
        summary["machine"] = reports[0]["machine"]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {}, "detail": {},
        }
        for metric, bound in bounds.items():
            s = stats([r["metrics"][metric]["value"] for r in results])
            s["bound"] = bound
            entry["end_to_end"][metric] = s
            gated = metric != "setup_s"
            steady &= not gated or s["spread"] < bound / 3
            print(f"{name:18} {metric:14} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} bound {bound}"
                  f"{'' if gated else ' (spread not gated)'}", flush=True)
        for key in reports[0]["detail"]:
            s = stats([rep["detail"][key]["value"] for rep in reports])
            s["unit"] = reports[0]["detail"][key]["unit"]
            entry["detail"][key] = s
            print(f"{name:18} {key:20} median {s['median']:<12.6g} spread {s['spread']:.4f}",
                  flush=True)
        summary["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady: every gated spread is below a third of its bound" if steady
          else "NOT steady: some spread is at or above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
