"""Run every benchmark workload and print each metric by name, with its unit.

Run from the repository root:

    python3 perfbench/report.py [--seeds 1 2 ...] [--trace]

For each workload of BENCHMARK.json and each seed this starts
``perfbench/run.py`` for the file's ``run_seconds`` (one process at a time,
so runs do not compete for cores) and prints every end-to-end metric,
the failed fraction of operations and whether all outputs passed their
checks.  With several seeds it also prints, per metric, the median and the
distance between the first and third quartile as a share of the median,
next to the metric's bound in BENCHMARK.json.  With ``--trace`` it adds one
traced run per workload (on the first seed) and prints the spans with the
largest self time against the layer each workload is predicted to stress.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
OUT = ROOT / "perfbench" / "out"

# The span each workload is chosen to stress: it should have the largest
# self time of any span in that workload's traced run.
PREDICTED_DOMINANT = {
    "bootstrap-fixed-budget": "rolling.bootstrap_br_snis",
    "constants-d7": "model.estimate_omega",
    "chain-small-pool": "isir.run_chain",
    "tv-logistic": "model.log_weight",
}


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, trace=False)
            failed_frac = result["failed"] / result["attempted"]
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed_frac={failed_frac:.4g} "
                  f"({result['failed']}/{result['attempted']})")
            for name, metric in result["metrics"].items():
                print(f"  {name:<20} {metric['value']:>14.6g} {metric['unit']}")
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        if len(args.seeds) >= 2:
            print(f"{workload} over {len(args.seeds)} seeds:")
            for name, vals in values.items():
                print(f"  {name:<20} median {statistics.median(vals):>12.6g} {units[name]:<6}"
                      f" spread {spread(vals):.3f} (bound {bounds[name]})")
        if args.trace:
            seed = args.seeds[0]
            traced = run_once(workload, seed, seconds, trace=True)
            record = json.loads((OUT / f"result-{workload}-seed{seed}-trace1.json")
                                .read_text())
            ranked = sorted(record["self_s_by_span"].items(), key=lambda kv: -kv[1])
            top = ranked[0][0]
            verdict = "as predicted" if top == PREDICTED_DOMINANT[workload] else "NOT as predicted"
            print(f"{workload} traced seed={seed} correct={traced['correct']}: largest self "
                  f"time {top}, predicted {PREDICTED_DOMINANT[workload]} ({verdict})")
            for name, self_s in ranked[:5]:
                print(f"  self {name:<28} {self_s:10.4f} s per call")
            layer = traced["metrics"]
            for name in ("cli.resolve_constants.s", "trace.overhead_frac"):
                print(f"  {name:<33} {layer[name]['value']:10.4f} {layer[name]['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
