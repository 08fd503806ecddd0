"""Benchmark of the brsnis command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``brsnis`` subcommand on a shipped config with fixed
overrides, driven in-process through ``brsnis.cli.main`` (the code path of
``brsnis <cmd>``) with ``--seed N``.  A run first times, in fresh
interpreters, the set-up every invocation pays; then it calls the CLI
repeatedly for about S seconds and checks every output.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Times are reported in reference seconds (see
``reference_job``), so that the host's drifting speed does not show as a
change of the program.  With ``--trace 0`` the metrics are the
``end_to_end`` metrics of BENCHMARK.json; with ``--trace 1`` the run
alternates untraced and traced calls and reports the ``per_layer`` metrics.
CLI outputs, the spans and a result record that carries the machine and
environment go to ``perfbench/out/``.

All load comes from this one process; BLAS is pinned to one thread, so the
only extra threads are the CLI's own ``--threads`` workers.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads, here and in the set-up interpreters.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the pinning above)

SETUP_REPEATS = 5
# Nominal duration of ``reference_job``.  A time t measured between two runs
# of the job that took t_ref on average is reported as t * REFERENCE_S / t_ref:
# plain seconds on a machine that runs the job in exactly REFERENCE_S.
REFERENCE_S = 0.1
SETUP_CODE = ("import sys\n"
              "from brsnis import cli\n"
              "config = cli.load_config(sys.argv[1], sys.argv[2:])\n"
              "cli.build_model(config['model'])\n")

# Weight constants of the d=7 mixture, supplied where a workload skips their
# estimation.  The weight surface peaks near 3.0e4; an estimate outside
# OMEGA_D7_WINDOW (a factor 2 either way) fails the constants check.
OMEGA_D7, KAPPA_D7 = 3.0e4, 1.4e3
OMEGA_D7_WINDOW = (1.5e4, 6.0e4)
SUPPLIED_D7 = (f"omega={OMEGA_D7}", f"kappa={KAPPA_D7}")


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    overrides: tuple[str, ...]
    threads: int

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = [self.command, "--config", str(ROOT / self.config),
                "--seed", str(seed), "--threads", str(self.threads)]
        for item in self.overrides:
            argv += ["--override", item]
        if self.command != "bounds":
            argv += ["--out", str(out)]
        return argv


# Why each workload is here, and the layer it stresses or skips, is recorded
# in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "bootstrap-fixed-budget": Workload(
        "experiment", "configs/mixture_fixed_budget.json",
        (*SUPPLIED_D7, "replications=12", "batch_size=6"),
        threads=2),
    # 8 restarts, not the shipped 32: a call then takes about 3 s, so a run
    # holds several calls and reference jobs to take the median over.
    "constants-d7": Workload(
        "bounds", "configs/mixture_bounds.json", ("model.dim=7", "estimate_restarts=8"),
        threads=1),
    "chain-small-pool": Workload(
        "experiment", "configs/mixture_fixed_budget.json",
        (*SUPPLIED_D7, "estimator=br-snis",
         'grid=[{"N": 9, "k": 128, "k0": 64}, {"N": 129, "k": 128, "k0": 64}]',
         "replications=8", "batch_size=8"),
        threads=1),
    "tv-logistic": Workload(
        "diagnose", "configs/logistic_tv.json",
        ("diagnostic.replications=60", "diagnostic.reference_draws=200000"),
        threads=1),
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _finite_in(value: float, low: float, high: float) -> bool:
    return math.isfinite(value) and low <= value <= high


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError:
        return b""


def _numbers(value) -> list[float]:
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [float(value)] if isinstance(value, (int, float)) else []


def _csv_column(data: bytes, column: str) -> list[float]:
    rows = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return [float(row[column]) for row in rows]


def check_call(wl: Workload, rc: int, stdout: str, out: Path, sup_bound: float,
               replications: int) -> tuple[int, int, bytes]:
    """(operations attempted, operations failed, output bytes) of one call.

    An operation is one replication's estimate, one TV value, or one
    constants estimate.  A nonzero exit fails every operation of the call.
    """
    attempted = replications * (2 if wl.command == "diagnose" else 1)
    if wl.command == "bounds":
        data = stdout.encode("utf-8")
    else:
        data = _read(out) + _read(Path(f"{out}.summary.json"))
    if rc != 0 or not data:
        return attempted, attempted, data
    try:
        if wl.command == "bounds":
            doc = json.loads(stdout)
            omega, kappa = float(doc["omega"]), float(doc["kappa"])
            ok = (_finite_in(omega, *OMEGA_D7_WINDOW) and _finite_in(kappa, 1.0, math.inf)
                  and all(map(math.isfinite, _numbers(doc["entries"]))))
            return attempted, 0 if ok else attempted, data
        if wl.command == "experiment":
            values = _csv_column(_read(out), "estimate")
            bad = sum(not _finite_in(v, -sup_bound, sup_bound) for v in values)
        else:
            values = _csv_column(_read(out), "tv")
            bad = sum(not _finite_in(v, 0.0, 1.0) for v in values)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"unreadable output: {exc}", file=sys.stderr)
        return attempted, attempted, data
    # Missing rows count as failed; extra rows are a failure of the call.
    if len(values) > attempted:
        return attempted, attempted, data
    return attempted, bad + attempted - len(values), data


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class _Reference:
    """Fixed inputs of ``reference_job``, made once."""

    rng = np.random.default_rng(0)
    small = rng.standard_normal(64)
    large = rng.standard_normal(1 << 19)
    order = rng.permutation(large.size)


def reference_job() -> float:
    """Seconds taken by a fixed job that uses nothing from brsnis.

    The host's speed drifts by up to 2x over tens of seconds, and CPU time
    drifts with it.  The job's three parts, about a third of REFERENCE_S
    each, load the interpreter, small numpy calls and memory the way the
    workloads do; timing it next to every measured call and dividing it out
    takes the drift from the reported times.  No change to brsnis can move
    it.
    """
    ref = _Reference
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    for _ in range(5_000):
        np.cumsum(np.exp(ref.small - ref.small.max()))
    for _ in range(4):
        np.cumsum(ref.large[ref.order])
    return time.perf_counter() - start


def in_reference_s(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between reference jobs that took ``before`` and
    ``after`` seconds, in reference seconds."""
    return seconds * REFERENCE_S / ((before + after) / 2)


def measure_setup(wl: Workload) -> tuple[list[float], list[float], int]:
    """Fresh-interpreter times to import the CLI, load the config and build
    the model, in seconds and in reference seconds, plus the number of set-up
    runs that failed."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    times, scaled, failures = [], [], 0
    before = reference_job()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE,
                               str(ROOT / wl.config), *wl.overrides],
                              cwd=ROOT, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
        after = reference_job()
        scaled.append(in_reference_s(times[-1], before, after))
        before = after
        if proc.returncode != 0:
            failures += 1
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
    return times, scaled, failures


def call_cli(argv: list[str]) -> tuple[float, int, str]:
    """Wall time, exit code and standard output of one ``cli.main`` call."""
    from brsnis import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    wall = time.perf_counter() - start
    if rc != 0:
        sys.stderr.write(stderr.getvalue())
    return wall, rc, stdout.getvalue()


def expectations(wl: Workload) -> tuple[float, int]:
    """The test function's sup bound and the replications one call makes,
    read from the workload's config: grid points x replications for
    ``experiment``, budgets x replications for ``diagnose``, one constants
    estimate for ``bounds``."""
    from brsnis import cli

    config = cli.load_config(str(ROOT / wl.config), list(wl.overrides))
    sup_bound = float(cli.build_model(config["model"]).f.sup_bound)
    if wl.command == "experiment":
        replications = len(config["grid"]) * int(config.get("replications", 1))
    elif wl.command == "diagnose":
        section = config["diagnostic"]
        replications = len(section["budgets"]) * int(section["replications"])
    else:
        replications = 1
    return sup_bound, replications


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    # The ceiling keeps git from searching the directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(name: str, seed: int, wl: Workload) -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": name,
        "seed": seed,
        "cli_threads": wl.threads,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def select(metrics: dict, declared: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, by name, with its units."""
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import Tracer, installed, layer_metrics, self_seconds_by_name

    wl = WORKLOADS[name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"{name}.csv"
    argv = wl.argv(seed, out)

    setup, setup_scaled, setup_failed = measure_setup(wl)
    sup_bound, replications = expectations(wl)
    tracer = Tracer() if trace else None
    # Wall times of the untraced and the traced calls, in seconds and in
    # reference seconds.
    walls, traced_walls, scaled, traced_scaled = [], [], [], []
    attempted, failed, reference = SETUP_REPEATS, setup_failed, None
    start = time.perf_counter()
    before = reference_job()
    while True:
        traced = trace and len(walls) > len(traced_walls)
        for path in (out, Path(f"{out}.summary.json")):
            path.unlink(missing_ok=True)
        with installed(tracer) if traced else contextlib.nullcontext():
            wall, rc, stdout = call_cli(argv)
        after = reference_job()
        (traced_walls if traced else walls).append(wall)
        (traced_scaled if traced else scaled).append(in_reference_s(wall, before, after))
        before = after
        n, bad, data = check_call(wl, rc, stdout, out, sup_bound, replications)
        # Every call of a run uses one seed, traced or not: outputs must match.
        if reference is None:
            reference = data
        elif data != reference:
            print("output bytes differ from the run's first call", file=sys.stderr)
            bad = n
        attempted += n
        failed += bad
        calls = len(walls) + len(traced_walls)
        if calls >= 2 and time.perf_counter() - start + wall > seconds:
            break

    if trace:
        metrics = layer_metrics(tracer.spans, len(traced_walls), wl.threads)
        metrics["trace.overhead_frac"] = \
            statistics.median(traced_scaled) / statistics.median(scaled) - 1.0
        selected = select(metrics, spec["per_layer"])
        tracer.write_csv(OUT / f"spans-{name}-seed{seed}.csv")
    else:
        wall_s = statistics.median(scaled)
        metrics = {
            "wall_s": wall_s,
            "replications_per_s": replications / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_scaled),
        }
        selected = select(metrics, spec["end_to_end"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": selected}
    record = {
        "environment": environment(name, seed, wl),
        "argv": argv,
        "wall_s_untraced": walls,
        "wall_s_traced": traced_walls,
        "setup_s": setup,
        "wall_reference_s_untraced": scaled,
        "wall_reference_s_traced": traced_scaled,
        "setup_reference_s": setup_scaled,
        "failed_frac": failed / attempted,
        "result": result,
    }
    if trace:
        record["self_s_by_span"] = self_seconds_by_name(tracer.spans, len(traced_walls))
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "brsnis" / "cli.py").is_file():
        print(f"no brsnis sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# environment " + json.dumps(record["environment"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
