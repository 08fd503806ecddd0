"""Command-line front end: bounds evaluation, replicated experiments and
distance diagnostics, all driven by one JSON config document.

Seed discipline: replication r of grid point g derives its generator from
``SeedSequence([seed, g, r])``; so does group r of the sliced-Wasserstein
diagnostic's pool size g.  Auxiliary streams (constant estimation,
diagnostic references, synthetic data) use fixed large stream tags
documented below.  Every replication or group owns its whole stream, so
output is byte-identical regardless of worker count.

Exit codes: 0 on success, 2 on configuration errors, 3 on runtime errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, get_args

import numpy as np

from . import bounds as bounds_mod
from .diagnostics import (fit_geometric_rate, replication_stats, sliced_wasserstein,
                          tv_predictive)
from .isir import RollingConfig, run_chain
from .model import (CountingModel, LogisticPosteriorSpec, ModelSpec, TestFunction,
                    benchmark_mixture, estimate_kappa, estimate_omega,
                    logistic_predictive, make_gaussian_mixture,
                    make_logistic_posterior, mixture_test_function, mixture_truth,
                    row_blocks, synthetic_logistic_data)
from .rolling import bootstrap_br_snis, build_sample_bank, rolling_estimate
from .snis import (normalize_weights, snis_bias_bound, snis_estimate, snis_hpd_bound,
                   snis_mse_bound)

# Reserved stream tags for non-replication generators.
_CONSTANTS_STREAM = 2 ** 31
_REFERENCE_STREAM = 2 ** 31 + 1
_DATA_STREAM = 2 ** 31 + 2
_TEST_POINTS_STREAM = 2 ** 31 + 3

ESTIMATORS = ("snis", "isir-state", "br-snis", "br-snis-bootstrap")
# The most replications of one chunk: a chain estimator's lockstep arrays
# grow with it.  No output depends on the chunk, nor on --threads.
_MAX_CHUNK = 64
MODELS = ("gaussian-mixture", "logistic-synthetic")
DIAGNOSTICS = ("sw", "tv")


class ConfigError(ValueError):
    """Invalid or inconsistent configuration document."""


def replication_rng(seed: int, grid_index: int, replication: int) -> np.random.Generator:
    """The documented seed-splitting rule for one replication."""
    return np.random.default_rng(np.random.SeedSequence([seed, grid_index, replication]))


def seed_fingerprint(seed: int, grid_index: int, replication: int) -> int:
    """Deterministic integer echoed in the CSV seed column."""
    ss = np.random.SeedSequence([seed, grid_index, replication])
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def _set_override(config: dict, key: str, raw: str):
    target = config
    parts = key.split(".")
    for part in parts[:-1]:
        if part not in target or not isinstance(target[part], dict):
            target[part] = {}
        target = target[part]
    try:
        target[parts[-1]] = json.loads(raw)
    except ValueError:  # not JSON, or an int past Python's digit limit
        target[parts[-1]] = raw


def load_config(path: str, overrides: Optional[list[str]] = None,
                seed: Optional[int] = None, out: Optional[str] = None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config document must be a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        key, raw = item.split("=", 1)
        _set_override(config, key, raw)
    if config.get("schema") != 1:
        raise ConfigError("config schema field must equal 1")
    if seed is not None:
        config["seed"] = seed
    if out is not None:
        config["out"] = out
    return config


# The config format: section -> key -> (type, default, least value).  A type is a
# Python type, a list[...] of one or a tuple of allowed strings; None defaults allow null.
REQUIRED = object()
# A subcommand lists only the constants keys its code reads: diagnose tv none, sw omega's.
_COMMON_KEYS = {
    "schema": (int, REQUIRED, 1), "model": (dict, REQUIRED, None), "seed": (int, 0, 0)}
_OMEGA_KEYS = {"omega": (float, None, 1.0), "estimate_draws": (int, 10 ** 6, 2),
               "estimate_restarts": (int, 32, 1)}
_CONSTANTS_KEYS = {**_COMMON_KEYS, **_OMEGA_KEYS, "kappa": (float, None, 1.0)}
_DIAGNOSE_KEYS = {**_COMMON_KEYS, "diagnostic": (dict, REQUIRED, None),
                  "out": (str, REQUIRED, None)}
CONFIG_KEYS = {
    "bounds": {**_CONSTANTS_KEYS, "grid": (list[dict], [], None)},
    "experiment": {**_CONSTANTS_KEYS, "estimator": (ESTIMATORS, "snis", None),
                   "grid": (list[dict], REQUIRED, None), "replications": (int, 1, 1),
                   "batch_size": (int, None, 1), "out": (str, REQUIRED, None)},
    "diagnose sw": {**_DIAGNOSE_KEYS, **_OMEGA_KEYS},
    "diagnose tv": _DIAGNOSE_KEYS,
    "grid": {"N": (int, None, 2), "k": (int, None, 1), "k0": (int, None, 0),
             "rounds": (int, None, 1), "M": (int, None, 1)},
    "gaussian-mixture": {"name": (MODELS, REQUIRED, None), "dim": (int, 2, 2)},
    "logistic-synthetic": {
        "name": (MODELS, REQUIRED, None), "dim": (int, 5, 1), "n_obs": (int, 200, 0),
        "data_seed": (int, 0, 0), "prior_precision": (float, 5e-2, None),
        "theta_star": (list[float], None, None), "component": (int, 0, 0)},
    "sw": {"kind": (DIAGNOSTICS, REQUIRED, None), "N": (list[int], [8, 32, 128], 2),
           "k_max": (int, 10, 3), "chains": (int, 1000, 1), "groups": (int, 8, 2),
           "projections": (int, 100, 1)},
    "tv": {"kind": (DIAGNOSTICS, REQUIRED, None), "budgets": (list[int], [32, 512], 1),
           "replications": (int, 1000, 1), "test_points": (int, 200, 1),
           "reference_draws": (int, 10 ** 6, 1), "N": (int, 9, 2),
           "N_large": (int, 33, 2)}}


def _checked(where: str, value, kind, least):
    """``value`` as a ``kind``, or ConfigError if it is not one or is below
    ``least``.  An int also takes an integral float; true/false is no number,
    and a float must be finite, so an int beyond the float range is none.
    A list is checked item by item, and must not be empty if it has a least."""
    if get_args(kind) and isinstance(value, list) and (value or least is None):
        return [_checked(where, item, get_args(kind)[0], least) for item in value]
    if (kind is int and type(value) is float and value.is_integer()
            or kind is float and type(value) is int):
        try:
            value = kind(value)
        except OverflowError:
            raise ConfigError(f"{where} must be float, not an int beyond its range") \
                from None
    if isinstance(kind, tuple) and value in kind or (
            type(kind) is type and isinstance(value, kind) and type(value) is not bool
            and (kind is not float or np.isfinite(value))
            and (least is None or value >= least)):
        return value
    raise ConfigError(f"{where} must be {getattr(kind, '__name__', kind)}"
                      f"{'' if least is None else f' >= {least}'}, not {value!r}")


def read_section(name: str, section: dict) -> dict:
    """``section`` checked against ``CONFIG_KEYS[name]``, absent keys set to their
    defaults.  ConfigError for unknown keys and for REQUIRED ones absent or empty."""
    keys = CONFIG_KEYS[name]
    if set(section) - set(keys):
        raise ConfigError(f"unknown {name} keys: {sorted(set(section) - set(keys))}")
    out = {}
    for key, (kind, default, least) in keys.items():
        value = section.get(key, default)
        if value is REQUIRED or (default is REQUIRED and not value):
            raise ConfigError(f"{name} needs a non-empty {key}")
        out[key] = (value if value is None and default is None
                    else _checked(f"{name} {key}", value, kind, least))
    return out


def _read_named(where: str, section, key: str, names: tuple) -> dict:
    """``section`` read against the key table that its ``key`` names."""
    name = section.get(key) if isinstance(section, dict) else None
    if name not in names:
        raise ConfigError(f"{where} {key} must be one of {names}, not {name!r}")
    return read_section(name, section)


@dataclass
class BuiltModel:
    """A resolved model plus analytic truth and benchmark test function."""

    model: ModelSpec
    f: TestFunction
    truth: Optional[float]
    label: str


def build_model(section: dict) -> BuiltModel:
    """The model a raw model section names, checked before its data draws."""
    section = _read_named("model", section, "name", MODELS)
    dim = section["dim"]
    if section["name"] == "gaussian-mixture":
        spec = benchmark_mixture(dim)
        return BuiltModel(make_gaussian_mixture(spec), mixture_test_function(spec),
                          mixture_truth(spec), f"gaussian-mixture-d{dim}")
    theta_star, component = section["theta_star"], section["component"]
    if theta_star is None:
        base = np.array([1.0, -1.0, 0.5, -0.5, 0.25])
        theta_star = 1.5 * np.resize(base, dim)
    elif len(theta_star) != dim:
        raise ConfigError(f"theta_star needs dim = {dim} entries")
    if component >= dim:
        raise ConfigError(f"component must be below dim = {dim}")
    if not section["prior_precision"] > 0:
        raise ConfigError("prior_precision must be positive")
    rng = replication_rng(section["data_seed"], _DATA_STREAM, 0)
    x, y = synthetic_logistic_data(rng, dim, section["n_obs"],
                                   np.asarray(theta_star, dtype=float))
    spec = LogisticPosteriorSpec(covariates=x, responses=y,
                                 prior_precision=section["prior_precision"])
    model = make_logistic_posterior(spec)
    # The Student proposal reaches past any bound (3 of 2e7 draws pass 50 at
    # the defaults, where the posterior has no measurable mass); clipping
    # keeps sup|f| <= 50 true.
    f = TestFunction(fn=lambda pts: np.clip(pts[:, component], -50.0, 50.0), sup_bound=50.0)
    return BuiltModel(model, f, None, f"logistic-synthetic-d{dim}")


def resolve_constants(config: dict, built: BuiltModel) -> tuple[float, float, bool]:
    """Config-supplied (omega, kappa), or estimates from the log weights of the
    constants stream's first ``estimate_draws`` proposal draws, which both
    estimates read; omega's ``estimate_restarts`` starts come next."""
    omega, kappa = config["omega"], config["kappa"]
    estimated = omega is None or kappa is None
    if estimated:
        rng, model = replication_rng(config["seed"], _CONSTANTS_STREAM, 0), built.model
        log_weights = model.log_weight(model.propose(rng, config["estimate_draws"]))
        # Both are at least 1 by definition; a Monte Carlo estimate can fall short.
        if kappa is None:
            kappa = max(estimate_kappa(log_weights), 1.0)
        if omega is None:
            omega = max(estimate_omega(model, log_weights, config["estimate_restarts"],
                                       rng), 1.0)
    return float(omega), float(kappa), estimated


# ---------------------------------------------------------------------------
# Estimator dispatch
# ---------------------------------------------------------------------------


def _normalize_grid_point(command: str, point: dict) -> dict:
    """A grid entry of ``bounds`` or of an estimator, checked; a chain
    estimator's entry gets its k, k0, M and rounds filled in.  A key that the
    command never reads is a ConfigError: snis reads only M, the bootstrap
    every key, the others all but rounds, and ``bounds`` k0 only beside k."""
    out = read_section("grid", point)
    unread = set(point) - {"snis": {"M"}, "br-snis-bootstrap": set(out)}.get(
        command, {"N", "k", "k0", "M"})
    if unread:
        raise ConfigError(f"{command} grid entries do not read {sorted(unread)}")
    needed = "M" if command == "snis" else "N"
    if out[needed] is None:
        raise ConfigError(f"{command} grid entries need {needed}")
    if command == "snis" and out["M"] < 2:
        raise ConfigError("snis grid entries need M >= 2")
    if command in ESTIMATORS[1:]:
        n, k = out["N"], out["k"]
        if k is None:
            if out["M"] is None or out["M"] % (n - 1):
                raise ConfigError(f"need k, or M={out['M']} divisible by N - 1 = {n - 1}")
            k = out["k"] = out["M"] // (n - 1)
        declared = (n - 1) * k
        if out["M"] is not None and out["M"] != declared:
            raise ConfigError(f"budget mismatch: M={out['M']} but (N-1)k={declared}")
        out["M"] = declared
        if out["k0"] is None:
            out["k0"] = k - 1 if command == "br-snis-bootstrap" else 0
        if command == "br-snis-bootstrap" and out["rounds"] is None:
            out["rounds"] = k
    elif out["k"] is None and out["k0"] is not None:
        raise ConfigError(f"{command} grid entries read k0 only with k")
    if out["k"] is not None and (out["k0"] or 0) >= out["k"]:
        raise ConfigError("k0 must lie in [0, k)")
    return out


def run_replication(estimator: str, built: BuiltModel, point: dict,
                    rngs: list[np.random.Generator]) -> list[tuple[float, int]]:
    """One estimate plus its instrumented proposal-draw count per generator of
    a chunk.  The chain estimators run the chunk's chains in lockstep, one
    per generator; snis and the bootstrap run one replication per generator."""
    f, counter = built.f, CountingModel(built.model)
    cfg = None if estimator == "snis" else RollingConfig(point["N"], point["k"],
                                                         point["k0"])
    if estimator == "snis":
        estimates = [snis_estimate(counter.log_weight(draws), f(draws))
                     for draws in (counter.propose(rng, point["M"]) for rng in rngs)]
    elif estimator == "br-snis-bootstrap":
        estimates = [bootstrap_br_snis(build_sample_bank(counter, f, point["M"], rng),
                                       cfg, point["rounds"], rng).mean(axis=0)
                     for rng in rngs]
    elif estimator == "br-snis":
        estimates = rolling_estimate(run_chain(counter, f, cfg, rngs)[0], cfg.burn_in)
    else:
        kept = run_chain(counter, f, cfg, rngs)[1][:, cfg.burn_in + 1:]
        estimates = np.mean(f(kept.reshape(-1, kept.shape[-1])).reshape(len(rngs), -1),
                            axis=1)
    draws, uneven = divmod(counter.proposal_draws, len(rngs))
    if uneven:
        raise RuntimeError("the replications of a chunk drew unequal proposal counts")
    return [(float(estimate), draws) for estimate in estimates]


def _grid_bounds(point: dict, omega: float, kappa: float) -> dict:
    """Every bound that a grid point's N, k, k0 and M determine, for sup|f| <= 1."""
    n, k, k0, m = point["N"], point["k"], point["k0"] or 0, point["M"]
    entry = {}
    if n is not None:
        consts = bounds_mod.bound_constants(omega, kappa, n)
        entry.update(consts.as_dict())
        if k is not None:
            entry["pool_bias_bound"] = bounds_mod.pool_bias_bound(consts, k)
            entry["pool_mse_bound"] = bounds_mod.pool_mse_bound(consts)
            entry["rolling_bias_bound"] = bounds_mod.rolling_bias_bound(consts, k0, k)
            entry["rolling_mse_bound"] = bounds_mod.rolling_mse_bound(consts, k0, k)
            entry["rolling_hpd_bound_delta_0.1"] = bounds_mod.rolling_hpd_bound(
                consts, 0.1, k0, k)
    if m is not None:
        entry["snis_bias_bound"] = snis_bias_bound(kappa, m)
        entry["snis_mse_bound"] = snis_mse_bound(kappa, m)
        if m > 1:
            entry["snis_hpd_bound_delta_0.1"] = snis_hpd_bound(omega, m, 0.1)
    return entry


def _point_bounds(estimator: str, point: dict, omega: float, kappa: float,
                  sup_bound: float) -> dict:
    """The grid bounds that match the estimator, scaled by the f bound (the
    MSE bound by its square)."""
    bounds = _grid_bounds(point, omega, kappa)
    if estimator == "isir-state":
        return {"mixing_rate": bounds["mixing_rate"], "mixing_time": bounds["mixing_time"]}
    name = "snis" if estimator == "snis" else "rolling"
    return {"bias_bound": bounds[f"{name}_bias_bound"] * sup_bound,
            "mse_bound": bounds[f"{name}_mse_bound"] * sup_bound ** 2,
            "hpd_bound_delta_0.1": bounds[f"{name}_hpd_bound_delta_0.1"] * sup_bound}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_bounds(config: dict) -> int:
    config = read_section("bounds", config)
    grid = [_normalize_grid_point("bounds", point) for point in config["grid"]]
    built = build_model(config["model"])
    omega, kappa, estimated = resolve_constants(config, built)
    payload = {
        "model": built.label,
        "omega": omega,
        "kappa": kappa,
        "estimated": estimated,
        "entries": [_grid_bounds(point, omega, kappa) for point in grid],
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _format_row(values) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def _check_out(out_path: str):
    """ConfigError, before anything is drawn, if ``out_path`` names a directory
    or lies in a missing one: the run would end unable to write."""
    if os.path.isdir(out_path) or not os.path.isdir(os.path.dirname(out_path) or "."):
        raise ConfigError(f"out {out_path} is a directory or lies in a missing one")


def _write_outputs(out_path: str, lines: list[str], summary: dict):
    """Render the CSV lines and the summary, then write each to a temporary
    file beside its target and rename it into place."""
    rendered = [(out_path, "\n".join(lines) + "\n"),
                (out_path + ".summary.json", json.dumps(summary, indent=2) + "\n")]
    for path, text in rendered:
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


# The job of a forked worker, set by ``_install_job`` when the worker starts.
_worker_job = None


def _install_job(job):
    global _worker_job
    _worker_job = job


def _run_worker_job(rngs):
    return _worker_job(rngs)


def _replicate(seed: int, grid_index: int, replications: int, threads: int, job) -> list:
    """``job(rngs)`` on consecutive chunks of one grid point's replication
    generators, one result per generator in replication order: the fewest
    chunks of at most ``_MAX_CHUNK`` that give each of ``threads`` workers as
    many, sizes within one.  Up to ``threads`` run at once on processes forked
    from this one, off the GIL, which inherit the job unpickled: only
    generators go out and results come back.  One chunk, or no ``fork``, runs here."""
    count = min(replications, threads * math.ceil(replications / (threads * _MAX_CHUNK)))
    chunks = [[replication_rng(seed, grid_index, r) for r in part.tolist()]
              for part in np.array_split(np.arange(replications), count)]
    # A fork pool starts all its workers at once; start none without a chunk.
    workers = min(threads, len(chunks))
    if workers > 1:
        # Imported here, so that importing the CLI does not pay for them.
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=multiprocessing.get_context("fork"),
                                     initializer=_install_job, initargs=(job,)) as pool:
                return [result for part in pool.map(_run_worker_job, chunks)
                        for result in part]
    return [result for rngs in chunks for result in job(rngs)]


def cmd_experiment(config: dict, threads: int) -> int:
    config = read_section("experiment", config)
    estimator, seed, replications = (config["estimator"], config["seed"],
                                     config["replications"])
    batch_size = config["batch_size"] or replications
    if replications % batch_size:
        raise ConfigError("batch_size must divide the number of replications")
    grid = [_normalize_grid_point(estimator, p) for p in config["grid"]]
    _check_out(config["out"])
    built = build_model(config["model"])
    omega, kappa, estimated = resolve_constants(config, built)

    rows = []
    summary_points = []
    for grid_index, point in enumerate(grid):
        results = _replicate(seed, grid_index, replications, threads,
                             lambda rngs: run_replication(estimator, built, point, rngs))
        estimates = np.array([r[0] for r in results])
        draw_counts = sorted({r[1] for r in results})
        for replication, (estimate, _) in enumerate(results):
            rows.append(_format_row([
                replication, estimator, *("" if v is None else v for v in point.values()),
                seed_fingerprint(seed, grid_index, replication), estimate,
            ]))
        entry = {
            "estimator": estimator,
            "grid_index": grid_index,
            **point,
            "replications": replications,
            "proposal_draws_per_replication": draw_counts,
            "mean_estimate": float(estimates.mean()),
            "bounds": _point_bounds(estimator, point, omega, kappa,
                                    built.f.sup_bound),
        }
        if built.truth is not None:
            stats = replication_stats(estimates, built.truth, batch_size)
            entry.update({
                "truth": built.truth,
                "bias": stats.bias,
                "bias_se": stats.bias_se,
                "mse": stats.mse,
                "mse_se": stats.mse_se,
            })
        summary_points.append(entry)

    header = ",".join(["replication", "estimator", *CONFIG_KEYS["grid"]]) + ",seed,estimate"
    summary = {
        "model": built.label,
        "estimator": estimator,
        "seed": seed,
        "omega": omega,
        "kappa": kappa,
        "constants_estimated": estimated,
        "points": summary_points,
    }
    _write_outputs(config["out"], [header] + rows, summary)
    return 0


def _diagnose_sw(config: dict, built: BuiltModel, section: dict,
                 threads: int) -> tuple[list[str], dict]:
    """Group r of the g-th pool size runs off ``replication_rng(seed, g, r)``;
    every distance projects on the one direction set of the reference stream."""
    seed, k_max, groups = config["seed"], section["k_max"], section["groups"]
    model, chains = built.model, section["chains"]
    # A supplied kappa leaves only omega to estimate, from the pass `bounds` draws.
    omega, _, estimated = resolve_constants({**config, "kappa": 1.0}, built)
    directions = replication_rng(seed, _REFERENCE_STREAM, 0).standard_normal(
        (section["projections"], model.dim))
    rows = []
    summary = {"omega": omega, "omega_estimated": estimated, "per_n": []}
    for gi, n in enumerate(section["N"]):
        def one(rng):
            _, states = run_chain(model, built.f, RollingConfig(n, k_max, 0), rng,
                                  starts=model.propose(rng, chains))
            reference = model.target_sample(rng, chains)
            return [sliced_wasserstein(states[:, k], reference, directions)
                    for k in range(k_max + 1)]

        sw_by_k = np.array(_replicate(seed, gi, groups, threads,
                                      lambda rngs: [one(rng) for rng in rngs]))
        means = sw_by_k.mean(axis=0)
        ses = sw_by_k.std(axis=0, ddof=1) / np.sqrt(groups)
        for k in range(k_max + 1):
            rows.append(_format_row(["sw", n, k, float(means[k]), float(ses[k])]))
        rate = bounds_mod.mixing_rate(omega, n)
        # Fit the decay over the descent only; past the equal-sample noise
        # floor the curve flattens and would wash out the slope.
        floor = means[-1]
        descending = np.nonzero(means[1:] > 1.5 * floor)[0]
        last = max(int(descending[-1]) + 1, 3) if descending.size else 3
        last = min(last, k_max)
        slope, intercept = fit_geometric_rate(np.maximum(means[1:last + 1], 1e-12),
                                              ks=np.arange(1, last + 1))
        summary["per_n"].append({
            "N": n, "fitted_slope": slope, "fitted_intercept": intercept,
            "log_mixing_rate": float(np.log(rate)),
            "mixing_time": bounds_mod.mixing_time(rate),
        })
    header = "diagnostic,N,k,value,se"
    return [header] + rows, summary


def _reference_predictive(log_weights: np.ndarray, points: np.ndarray,
                          x_test: np.ndarray) -> np.ndarray:
    """The SNIS predictive ``snis_estimate(log_weights, logistic_predictive(points,
    x_test))`` in O(block x test points) memory: the normalized weights times
    the predictive, summed over row blocks of the draws."""
    weights = normalize_weights(log_weights)
    out = np.zeros(len(x_test))
    for rows in row_blocks(len(weights), len(x_test)):
        out += weights[rows] @ logistic_predictive(points[rows], x_test)
    return out


def _diagnose_tv(config: dict, built: BuiltModel, section: dict,
                 threads: int) -> tuple[list[str], dict]:
    seed, replications, n_test = (config["seed"], section["replications"],
                                  section["test_points"])
    model = built.model
    x_test = replication_rng(seed, _TEST_POINTS_STREAM, 0).standard_normal(
        (n_test, model.dim))

    ref_rng = replication_rng(seed, _REFERENCE_STREAM, 0)
    ref_points = model.propose(ref_rng, section["reference_draws"])
    # A weighted mean of probabilities can round a few ulp above 1.
    reference = np.clip(_reference_predictive(model.log_weight(ref_points), ref_points,
                                              x_test), 0, 1)

    predictive = TestFunction(fn=lambda pts: logistic_predictive(pts, x_test),
                              sup_bound=1.0)
    rows = []
    summary = {"per_budget": []}
    for gi, point in enumerate(section["schedule"]):
        m, n, k, rounds = point["M"], point["N"], point["k"], point["rounds"]
        cfg = RollingConfig(n, k, point["k0"])

        def one(rng):
            bank = build_sample_bank(model, predictive, m, rng)
            return (snis_estimate(bank.log_weights, bank.f_values),
                    bootstrap_br_snis(bank, cfg, rounds, rng).mean(axis=0))

        # (replications, [snis, br-snis-bootstrap], test points)
        predictives = np.array(_replicate(seed, gi, replications, threads,
                                          lambda rngs: [one(rng) for rng in rngs]))
        tv = np.apply_along_axis(tv_predictive, 2, np.clip(predictives, 0, 1), reference)
        for r, (tv_snis, tv_br) in enumerate(tv.tolist()):
            rows.append(_format_row(["tv", "snis", m, r, tv_snis]))
            rows.append(_format_row(["tv", "br-snis-bootstrap", m, r, tv_br]))
        averaged = np.clip(predictives.mean(axis=0), 0, 1)
        summary["per_budget"].append({
            "M": m, "N": n, "k": k, "rounds": rounds,
            "replications": replications,
            "mean_tv_snis": float(tv[:, 0].mean()),
            "mean_tv_br": float(tv[:, 1].mean()),
            "tv_of_averaged_predictive_snis": tv_predictive(averaged[0], reference),
            "tv_of_averaged_predictive_br": tv_predictive(averaged[1], reference),
        })
    header = "diagnostic,estimator,M,replication,tv"
    return [header] + rows, summary


def cmd_diagnose(config: dict, threads: int) -> int:
    section = _read_named("diagnostic", config.get("diagnostic"), "kind", DIAGNOSTICS)
    config = read_section(f"diagnose {section['kind']}", config)
    if section["kind"] == "sw" and config["model"].get("name") != "gaussian-mixture":
        raise ConfigError("sliced Wasserstein diagnostics need an exact target sampler")
    if section["kind"] == "tv":
        if config["model"].get("name") != "logistic-synthetic":
            raise ConfigError("tv diagnostics need the logistic-synthetic model")
        section["schedule"] = [_normalize_grid_point("br-snis-bootstrap", {
            "N": section["N"] if m <= 64 else section["N_large"], "M": m})
            for m in section["budgets"]]
    _check_out(config["out"])
    built = build_model(config["model"])
    run = _diagnose_sw if section["kind"] == "sw" else _diagnose_tv
    lines, summary = run(config, built, section, threads)
    summary["model"] = built.label
    summary["kind"] = section["kind"]
    _write_outputs(config["out"], lines, summary)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brsnis",
        description="Importance sampling estimators, bound evaluators and "
                    "diagnostics driven by a JSON config.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("bounds", "print bound constants and bound values as JSON"),
        ("experiment", "run replicated estimates and write CSV plus summary"),
        ("diagnose", "run distance diagnostics and write CSV plus summary"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--seed", type=int, default=None, help="base seed override")
        cmd.add_argument("--out", default=None, help="output path override")
        cmd.add_argument("--threads", type=int, default=1,
                         help="worker processes for replications")
        cmd.add_argument("--override", action="append", default=[],
                         metavar="KEY=VALUE", help="config override, dotted keys")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        config = load_config(args.config, args.override, args.seed, args.out)
        if args.command == "bounds":
            return cmd_bounds(config)
        if args.command == "experiment":
            return cmd_experiment(config, args.threads)
        return cmd_diagnose(config, args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001  runtime failures map to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
