"""CLI subcommands: config handling, determinism, budgets, exit codes."""

import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import os
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import brsnis.model
from brsnis import (CountingModel, LogisticPosteriorSpec, cli, logistic_predictive,
                    make_logistic_posterior, mixing_rate, normalize_weights,
                    synthetic_logistic_data)
from brsnis.cli import _write_outputs, main, replication_rng, seed_fingerprint

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def experiment_config(tmp_path, **overrides):
    payload = {
        "schema": 1,
        "model": {"name": "gaussian-mixture", "dim": 2},
        "estimator": "snis",
        "grid": [{"M": 64}],
        "replications": 4,
        "batch_size": 2,
        "seed": 77,
        "out": str(tmp_path / "out.csv"),
        "omega": 18.0,
        "kappa": 6.0,
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


def sw_config(tmp_path, **diagnostic):
    section = {"kind": "sw", "N": [4, 8], "k_max": 3, "chains": 200, "groups": 3,
               "projections": 16}
    section.update(diagnostic)
    return write_config(tmp_path, {
        "schema": 1,
        "model": {"name": "gaussian-mixture", "dim": 2},
        "omega": 18.0,
        "seed": 5,
        "out": str(tmp_path / "sw.csv"),
        "diagnostic": section,
    })


def tv_config(tmp_path, model=None, **diagnostic):
    section = {"kind": "tv", "budgets": [16], "replications": 20, "test_points": 10,
               "reference_draws": 20000, "N": 5}
    section.update(diagnostic)
    return write_config(tmp_path, {
        "schema": 1,
        "model": {"name": "logistic-synthetic", "dim": 3, "n_obs": 40,
                  "data_seed": 1, **(model or {})},
        "seed": 9,
        "out": str(tmp_path / "tv.csv"),
        "diagnostic": section,
    })


def fail_if_called(*args, **kwargs):
    raise AssertionError("sampling started before the config check")


def forbid_sampling(monkeypatch):
    """Make every call that draws from a generator in the CLI fail."""
    monkeypatch.setattr(cli, "replication_rng", fail_if_called)


class TestSeedSplitting:
    def test_streams_are_reproducible_and_distinct(self):
        a = replication_rng(7, 0, 3).random(4)
        b = replication_rng(7, 0, 3).random(4)
        c = replication_rng(7, 0, 4).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_fingerprint_deterministic(self):
        assert seed_fingerprint(7, 0, 3) == seed_fingerprint(7, 0, 3)
        assert seed_fingerprint(7, 0, 3) != seed_fingerprint(7, 1, 3)


class TestBoundsCommand:
    def test_reference_values(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "schema": 1,
            "model": {"name": "gaussian-mixture", "dim": 2},
            "omega": 1.0,
            "kappa": 1.0,
            "grid": [{"N": 2, "k": 4, "k0": 1, "M": 100}],
        })
        assert main(["bounds", "--config", config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimated"] is False
        entry = payload["entries"][0]
        assert entry["mixing_rate"] == pytest.approx(0.5)
        assert entry["mixing_time"] == 2
        assert entry["bias_const"] == pytest.approx(12.0)
        assert entry["snis_bias_bound"] == pytest.approx(0.12)

    def test_estimated_flag_when_constants_missing(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "schema": 1,
            "model": {"name": "gaussian-mixture", "dim": 2},
            "estimate_draws": 20000,
            "estimate_restarts": 4,
            "grid": [{"N": 8}],
            "seed": 3,
        })
        assert main(["bounds", "--config", config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimated"] is True
        assert payload["omega"] > 1.0
        assert payload["kappa"] > 1.0

    @pytest.mark.parametrize("constants", [{"omega": 30000.0, "kappa": 1400.0}, {}],
                             ids=["supplied", "estimated"])
    def test_burn_in_checked_before_sampling(self, tmp_path, monkeypatch, capsys,
                                             constants):
        """k0 >= k exits 2 before the model and its constants; it used to exit
        3 from the bound, after estimating any missing constants."""
        forbid_sampling(monkeypatch)
        config = write_config(tmp_path, {
            "schema": 1, "model": {"name": "gaussian-mixture", "dim": 2},
            "grid": [{"N": 8, "k": 4, "k0": 4}], **constants})
        assert main(["bounds", "--config", config]) == 2
        assert "k0 must lie in [0, k)" in capsys.readouterr().err

    @pytest.mark.parametrize("constants, argv, message", [
        ({"omega": 0.2}, [], "omega must be float >= 1.0"),
        ({"kappa": 0.5}, [], "kappa must be float >= 1.0"),
        ({}, ["--out", "bounds.json"], "unknown bounds keys: ['out']"),
        ({}, ["--threads", "0"], "--threads must be at least 1"),
        ({"estimate_draws": 1}, [], "estimate_draws must be int >= 2"),
        ({"omega": float("inf")}, [], "omega must be float >= 1.0, not inf"),
        ({"kappa": float("inf")}, [], "kappa must be float >= 1.0, not inf"),
        ({}, ["--override", "schema=7"], "config schema field must equal 1"),
        ({"omega": 10 ** 400}, [], "omega must be float, not an int beyond its range"),
        ({}, ["--override", "omega=" + "1" * 5000], "omega must be float >= 1.0"),
        ({"grid": [{"N": 8, "k": 4, "rounds": 2}]}, [],
         "bounds grid entries do not read ['rounds']"),
        ({"grid": [{"N": 8, "k0": 5}]}, [], "bounds grid entries read k0 only with k"),
        ({"grid": [{"N": 8, "k0": 5, "M": 70}]}, [],
         "bounds grid entries read k0 only with k"),
    ], ids=["omega-below-one", "kappa-below-one", "out-flag", "no-threads",
            "one-estimate-draw", "infinite-omega", "infinite-kappa", "schema-override",
            "omega-beyond-float", "omega-beyond-int-digits", "grid-rounds",
            "grid-k0-without-k", "grid-k0-with-M-without-k"])
    def test_config_checked_before_sampling(self, tmp_path, monkeypatch, capsys,
                                            constants, argv, message):
        """omega and kappa are at least 1 by definition, bounds writes no file,
        a run needs a thread and kappa two weights; kappa 0.5 used to exit 3
        from the bound, omega 0.2 and --threads 0 ran, --out was read by
        nothing and one estimate draw exited 3 after the model was built.
        An infinite kappa printed ``Infinity``, which is no JSON, an
        infinite omega exited 3 from the mixing rate, a schema set by
        ``--override`` was never checked, an integer omega too large for a
        float, or with more digits than Python parses, exited 3, and a grid
        entry's rounds, which no bound reads, was accepted, as was a k0
        without k, which no bound reads either."""
        forbid_sampling(monkeypatch)
        config = write_config(tmp_path, {
            "schema": 1, "model": {"name": "gaussian-mixture", "dim": 2},
            "grid": [{"N": 8, "k": 4}], **constants})
        assert main(["bounds", "--config", config, *argv]) == 2
        assert message in capsys.readouterr().err

    def test_estimates_floored_at_one(self, tmp_path, monkeypatch, capsys):
        """A Monte Carlo estimate below 1 is reported and used as 1."""
        monkeypatch.setattr(cli, "estimate_kappa", lambda *args: 0.9)
        monkeypatch.setattr(cli, "estimate_omega", lambda *args: 0.8)
        config = write_config(tmp_path, {
            "schema": 1, "model": {"name": "gaussian-mixture", "dim": 2},
            "grid": [{"N": 8, "M": 10}]})
        assert main(["bounds", "--config", config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["omega"], payload["kappa"]) == (1.0, 1.0)
        assert payload["entries"][0]["snis_bias_bound"] == pytest.approx(1.2)


class TestExperimentCommand:
    def test_single_replication_summary(self, tmp_path):
        config = experiment_config(tmp_path, replications=1, batch_size=1)
        assert main(["experiment", "--config", config]) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == "replication,estimator,N,k,k0,rounds,M,seed,estimate"
        assert len(lines) == 2
        summary = json.loads((tmp_path / "out.csv.summary.json").read_text())
        point = summary["points"][0]
        estimate = float(lines[1].split(",")[-1])
        assert point["bias"] == pytest.approx(estimate - point["truth"], rel=1e-12)

    def test_deterministic_across_thread_counts(self, tmp_path):
        """Every estimator writes the same bytes at 1, 2 and 4 threads: its six
        replications run as one chunk in the calling process, as two chunks
        of three on two forked workers and as chunks of 2, 2, 1 and 1 on four."""
        points = {"snis": {"M": 64}, "isir-state": {"N": 5, "k": 6},
                  "br-snis": {"N": 5, "k": 6, "k0": 2},
                  "br-snis-bootstrap": {"N": 5, "k": 6, "rounds": 2}}
        for estimator, point in points.items():
            config = experiment_config(tmp_path, estimator=estimator, grid=[point],
                                       replications=6, batch_size=3)
            outputs = []
            for threads in ("1", "2", "4"):
                assert main(["experiment", "--config", config, "--threads", threads]) == 0
                outputs.append([(tmp_path / name).read_bytes()
                                for name in ("out.csv", "out.csv.summary.json")])
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0], estimator

    @pytest.mark.parametrize("estimator", ["br-snis", "isir-state"])
    def test_chain_chunks_deterministic_across_thread_counts(self, tmp_path, estimator):
        """65 logistic replications run as chunks of 33 and 32 chains at one
        thread, and of 22, 22 and 21 on three forked workers: the bytes are
        the same, and replication 0 reads as it does when it runs alone."""
        def run(replications, threads):
            config = experiment_config(
                tmp_path, model={"name": "logistic-synthetic"}, estimator=estimator,
                grid=[{"N": 2, "k": 8, "k0": 2}], replications=replications,
                batch_size=replications, omega=60.0, kappa=3.0)
            assert main(["experiment", "--config", config, "--threads", threads]) == 0
            return ((tmp_path / "out.csv").read_bytes(),
                    (tmp_path / "out.csv.summary.json").read_bytes())

        outputs = run(65, "1")
        assert run(65, "3") == outputs
        assert outputs[0].splitlines()[1] == run(1, "1")[0].splitlines()[1]

    @pytest.mark.parametrize("estimator", ["br-snis", "isir-state"])
    def test_estimates_do_not_depend_on_the_chunk(self, estimator):
        """Eight d=7 mixture chains give the same bits in one chunk, in eight
        chunks of one and split 3 + 5; for isir-state this covers f on the
        reshaped states of a whole chunk."""
        built = cli.build_model({"name": "gaussian-mixture", "dim": 7})
        point = {"N": 9, "k": 128, "k0": 64}

        def run(sizes):
            rngs = iter([replication_rng(1, 0, r) for r in range(8)])
            return [result for size in sizes for result in cli.run_replication(
                estimator, built, point, [next(rngs) for _ in range(size)])]

        whole = run([8])
        assert run([1] * 8) == whole
        assert run([3, 5]) == whole

    def test_budget_honesty_all_estimators(self, tmp_path):
        cases = {
            "snis": ({"M": 60}, 60),
            "isir-state": ({"N": 5, "k": 6}, 25),
            "br-snis": ({"N": 5, "k": 6, "k0": 2}, 25),
            "br-snis-bootstrap": ({"N": 5, "k": 6, "rounds": 2}, 25),
        }
        for estimator, (point, expected_draws) in cases.items():
            config = experiment_config(tmp_path, estimator=estimator,
                                       grid=[point], replications=2,
                                       batch_size=1)
            assert main(["experiment", "--config", config]) == 0
            summary = json.loads((tmp_path / "out.csv.summary.json").read_text())
            assert summary["points"][0]["proposal_draws_per_replication"] == \
                [expected_draws], estimator

    def test_bootstrap_defaults_burn_in_to_final_window(self, tmp_path):
        config = experiment_config(tmp_path, estimator="br-snis-bootstrap",
                                   grid=[{"N": 5, "M": 24}], replications=1,
                                   batch_size=1)
        assert main(["experiment", "--config", config]) == 0
        summary = json.loads((tmp_path / "out.csv.summary.json").read_text())
        point = summary["points"][0]
        assert point["k"] == 6 and point["k0"] == 5 and point["rounds"] == 6

    def test_override_flag(self, tmp_path):
        config = experiment_config(tmp_path)
        assert main(["experiment", "--config", config,
                     "--override", "replications=2",
                     "--override", "grid=[{\"M\": 32}]"]) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[6] == "32"

    def test_budget_mismatch_rejected(self, tmp_path):
        config = experiment_config(tmp_path, estimator="br-snis",
                                   grid=[{"N": 5, "k": 6, "M": 99}])
        assert main(["experiment", "--config", config]) == 2

    @pytest.mark.parametrize("overrides", [
        {"replication": 50},
        {"grid": [{"M": 64, "k_0": 1}]},
        {"replications": "12"},
        {"model": {"name": "gaussian-mixture", "dim": True}},
        {"model": {"name": "gaussian-mixture", "dim": 7.5}},
        {"model": {"name": "gaussian-mixture", "dim": 2, "n_obs": 10}},
        {"estimator": "br-snis", "grid": [{"N": 1, "k": 4}]},
        {"out": ""},
        {"omega": 0.5},
        {"kappa": 0.5},
        {"grid": [{"M": 1}]},
        {"grid": [{"M": 64, "N": 5, "k": 2, "k0": 2}]},
        {"grid": [{"M": 64, "N": 9, "k0": 3, "rounds": 3}]},
        {"estimator": "br-snis", "grid": [{"N": 5, "k": 6, "rounds": 2}]},
        {"estimator": "isir-state", "grid": [{"N": 5, "k": 6, "rounds": 2}]},
    ], ids=["top-level-typo", "grid-typo", "string-count", "boolean-dim",
            "fractional-dim", "unknown-model-key", "one-candidate", "empty-out",
            "omega-below-one", "kappa-below-one", "snis-one-sample", "snis-burn-in",
            "snis-unread-keys", "br-snis-rounds", "isir-state-rounds"])
    def test_config_checked_before_sampling(self, tmp_path, monkeypatch, overrides):
        """Unknown keys, wrong types and values below their least value exit 2
        before any draw; a mistyped ``replication`` used to run one
        replication and exit 0, kappa 0.5 ran as kappa 1 and SNIS with one
        sample ran every replication before its bound exited 3.  A grid key
        the estimator never reads exits 2 too: snis reads only M, and only
        the bootstrap reads rounds; each used to be echoed into the CSV as a
        schedule that never ran."""
        forbid_sampling(monkeypatch)
        config = experiment_config(tmp_path, **overrides)
        assert main(["experiment", "--config", config]) == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_summary_bounds_match_bounds_command(self, tmp_path, capsys):
        """The summary's bounds are the ``bounds`` entry of the same grid point,
        times sup|f| (the MSE bound times its square)."""
        model = {"name": "logistic-synthetic", "dim": 2, "n_obs": 20}
        sup = cli.build_model(model).f.sup_bound
        assert sup != 1.0
        cases = {"snis": ({"M": 64}, "snis"), "isir-state": ({"N": 5, "k": 6}, None),
                 "br-snis": ({"N": 5, "k": 6, "k0": 2}, "rolling"),
                 "br-snis-bootstrap": ({"N": 5, "k": 6}, "rolling")}
        for estimator, (point, name) in cases.items():
            config = experiment_config(tmp_path, estimator=estimator, model=model,
                                       grid=[point], replications=2, batch_size=1)
            assert main(["experiment", "--config", config]) == 0
            summary = json.loads((tmp_path / "out.csv.summary.json").read_text())["points"][0]
            # bounds reads no rounds, and needs an N that snis does not read.
            grid = {"N": 5, **{key: summary[key] for key in ("k", "k0", "M")}}
            config = write_config(tmp_path, {"schema": 1, "model": model, "omega": 18.0,
                                             "kappa": 6.0, "grid": [grid]}, "bounds.json")
            assert main(["bounds", "--config", config]) == 0
            entry = json.loads(capsys.readouterr().out)["entries"][0]
            if name is None:
                expected = {"mixing_rate": entry["mixing_rate"],
                            "mixing_time": entry["mixing_time"]}
            else:
                expected = {
                    "bias_bound": entry[f"{name}_bias_bound"] * sup,
                    "mse_bound": entry[f"{name}_mse_bound"] * sup ** 2,
                    "hpd_bound_delta_0.1": entry[f"{name}_hpd_bound_delta_0.1"] * sup}
            assert summary["bounds"] == expected, estimator

    def test_integral_float_counts_accepted(self, tmp_path):
        """``1e6``-style counts are converted to integers, as before."""
        config = experiment_config(tmp_path, replications=4.0, batch_size=2.0,
                                   grid=[{"M": 64.0}])
        assert main(["experiment", "--config", config]) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 5 and lines[1].split(",")[6] == "64"

    def test_batch_size_checked_before_sampling(self, tmp_path):
        """The config error comes before the constants' 10^6 draws."""
        config = experiment_config(tmp_path, replications=10, batch_size=3,
                                   omega=None, kappa=None)
        assert main(["experiment", "--config", config]) == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


class TestDiagnoseCommand:
    ROWS = {q: brsnis.model._block_rows(q) for q in (200, 7, 1)}

    def test_sliced_wasserstein_curves(self, tmp_path):
        config = sw_config(tmp_path)
        assert main(["diagnose", "--config", config]) == 0
        lines = (tmp_path / "sw.csv").read_text().splitlines()
        assert lines[0] == "diagnostic,N,k,value,se"
        assert len(lines) == 1 + 2 * 4
        first_rows = [line.split(",") for line in lines[1:] if line.split(",")[2] == "0"]
        assert all(float(row[3]) > 0 for row in first_rows)  # cold start, k=0
        summary = json.loads((tmp_path / "sw.csv.summary.json").read_text())
        assert {e["N"] for e in summary["per_n"]} == {4, 8}
        for entry in summary["per_n"]:
            assert entry["log_mixing_rate"] < 0

    def test_tv_ordering_fields(self, tmp_path):
        config = tv_config(tmp_path)
        assert main(["diagnose", "--config", config]) == 0
        lines = (tmp_path / "tv.csv").read_text().splitlines()
        assert lines[0] == "diagnostic,estimator,M,replication,tv"
        assert len(lines) == 1 + 2 * 20
        summary = json.loads((tmp_path / "tv.csv.summary.json").read_text())
        entry = summary["per_budget"][0]
        for key in ("mean_tv_snis", "mean_tv_br",
                    "tv_of_averaged_predictive_snis",
                    "tv_of_averaged_predictive_br"):
            assert 0.0 <= entry[key] <= 1.0

    def test_tv_summary_means_match_csv_rows(self, tmp_path):
        """The rows alternate snis and br-snis-bootstrap by replication, and
        the summary means are exactly the means of the written values."""
        config = tv_config(tmp_path, budgets=[16, 32], replications=40)
        assert main(["diagnose", "--config", config]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "tv.csv").read_text().splitlines()[1:]]
        summary = json.loads((tmp_path / "tv.csv.summary.json").read_text())
        assert len(rows) == 2 * 2 * 40
        for b, entry in enumerate(summary["per_budget"]):
            block = rows[b * 80:(b + 1) * 80]
            assert [row[:4] for row in block] == [
                ["tv", estimator, str(entry["M"]), str(r)]
                for r in range(40) for estimator in ("snis", "br-snis-bootstrap")]
            values = [float(row[4]) for row in block]
            assert entry["mean_tv_snis"] == np.mean(values[0::2])
            assert entry["mean_tv_br"] == np.mean(values[1::2])

    @pytest.mark.parametrize("model, diagnostic", [
        ({}, {"budgets": [18]}),
        ({}, {"replications": 0}),
        ({}, {"test_points": 0}),
        ({}, {"reference_draws": 0}),
        ({"component": 3}, {}),
        ({"theta_star": [1.0, 2.0]}, {}),
        ({"prior_precision": 0}, {}),
        ({}, {"budgets": []}),
        ({"prior_precision": float("inf")}, {}),
        ({"theta_star": [float("inf"), 1.0, 2.0]}, {}),
    ], ids=["budget-not-split-by-pool", "no-replications", "no-test-points",
            "no-reference-draws", "component-not-below-dim", "theta-star-length",
            "flat-prior", "no-budgets", "infinite-prior", "infinite-theta-star"])
    def test_tv_schedule_checked_before_sampling(self, tmp_path, monkeypatch,
                                                 model, diagnostic):
        """Budget 18 is not a multiple of N - 1 = 4, zero replications, test
        points or reference draws leave nothing to average, a component or
        theta_star outside the dim = 3 model cannot be used, a zero prior
        precision leaves no prior, no budgets leave nothing to run and an
        infinite prior precision or theta_star entry is no number to compute
        with; all are rejected before the model draws its data."""
        forbid_sampling(monkeypatch)
        config = tv_config(tmp_path, model, **diagnostic)
        assert main(["diagnose", "--config", config]) == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("diagnostic", [{"groups": 1}, {"k_max": 2},
                                            {"projections": 0}, {"N": [4, 1]},
                                            {"N": []}],
                             ids=["one-group", "too-few-iterations", "no-projections",
                                  "one-candidate", "no-pool-sizes"])
    def test_sw_section_checked_before_sampling(self, tmp_path, monkeypatch,
                                                diagnostic):
        """One group has no standard error, k_max < 3 leaves too few points to
        fit a rate, no projections average nothing, a pool needs two
        candidates and no pool sizes leave nothing to run; all are rejected
        before any chain runs."""
        forbid_sampling(monkeypatch)
        config = sw_config(tmp_path, **diagnostic)
        assert main(["diagnose", "--config", config]) == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_sw_model_checked_before_data_draws(self, tmp_path, monkeypatch, capsys):
        """The logistic model has no exact target sampler; sw used to find
        that out only after the model had drawn its data and fit its mode."""
        monkeypatch.setattr(cli, "synthetic_logistic_data", fail_if_called)
        config = json.loads(Path(sw_config(tmp_path)).read_text())
        config["model"] = {"name": "logistic-synthetic", "dim": 3, "n_obs": 40}
        assert main(["diagnose", "--config", write_config(tmp_path, config)]) == 2
        assert "need an exact target sampler" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("config, key", [
        (tv_config, "omega"), (tv_config, "kappa"), (tv_config, "estimate_draws"),
        (tv_config, "estimate_restarts"), (sw_config, "kappa")],
        ids=["tv-omega", "tv-kappa", "tv-estimate-draws", "tv-estimate-restarts",
             "sw-kappa"])
    def test_unread_constants_keys_rejected_before_sampling(self, tmp_path, monkeypatch,
                                                            capsys, config, key):
        """tv reads no weight constant and sw only omega; each used to take
        every constants key and ignore the ones it does not read."""
        forbid_sampling(monkeypatch)
        assert main(["diagnose", "--config", config(tmp_path),
                     "--override", f"{key}=2"]) == 2
        kind = "tv" if config is tv_config else "sw"
        assert f"unknown diagnose {kind} keys: ['{key}']" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_sw_estimates_constants_as_bounds_does(self, tmp_path, monkeypatch, capsys):
        """Without a supplied omega, sw and ``bounds`` draw the constants
        once each, ``estimate_draws`` weights then ``estimate_restarts``
        starts, and sw's summary reports the omega ``bounds`` reports at the
        same seed, flagged estimated, with the mixing rates it gives.  sw
        estimates no kappa, and given omega it draws nothing on the
        constants stream and reports that omega."""
        drawn = []
        kappa_estimates = []
        resolve, estimate_kappa = cli.resolve_constants, cli.estimate_kappa

        def counted(config, built):
            counter = CountingModel(built.model)
            result = resolve(config, dataclasses.replace(built, model=counter))
            drawn.append(counter.proposal_draws)
            return result

        def counted_kappa(log_weights):
            kappa_estimates.append(len(log_weights))
            return estimate_kappa(log_weights)

        monkeypatch.setattr(cli, "resolve_constants", counted)
        monkeypatch.setattr(cli, "estimate_kappa", counted_kappa)
        estimate = ["--override", "estimate_draws=2000",
                    "--override", "estimate_restarts=2"]
        config = write_config(tmp_path, {
            "schema": 1, "model": {"name": "gaussian-mixture", "dim": 2}, "seed": 5,
            "grid": [{"N": 4}]}, "bounds.json")
        assert main(["bounds", "--config", config, *estimate]) == 0
        omega = json.loads(capsys.readouterr().out)["omega"]
        assert main(["diagnose", "--config", sw_config(tmp_path), *estimate,
                     "--override", "omega=null"]) == 0
        summary = json.loads((tmp_path / "sw.csv.summary.json").read_text())
        assert (summary["omega"], summary["omega_estimated"]) == (omega, True)
        assert [entry["log_mixing_rate"] for entry in summary["per_n"]] == \
            [float(np.log(mixing_rate(omega, n))) for n in (4, 8)]
        assert main(["diagnose", "--config", sw_config(tmp_path), *estimate]) == 0
        summary = json.loads((tmp_path / "sw.csv.summary.json").read_text())
        assert (summary["omega"], summary["omega_estimated"]) == (18.0, False)
        assert drawn == [2002, 2002, 0]
        assert kappa_estimates == [2000]

    def test_tv_reference_clipped_to_probabilities(self, tmp_path, monkeypatch):
        """With a sharp posterior the SNIS reference predictive rounds a few
        ulp above 1 at some test points; the run used to exit 3 with
        "probabilities must be finite and lie in [0, 1]".  At seed 2 the
        reference reads 1 + 2.2e-16 at one test point."""
        references = []
        reference = cli._reference_predictive
        monkeypatch.setattr(cli, "_reference_predictive",
                            lambda *args: references.append(reference(*args)) or references[-1])
        assert main(["diagnose", "--config", str(ROOT / "configs" / "logistic_tv.json"),
                     "--seed", "2", "--out", str(tmp_path / "tv.csv"),
                     "--override", "model.theta_star=[20,20,20,20,20]",
                     "--override", "model.n_obs=2000",
                     "--override", "diagnostic.replications=3",
                     "--override", "diagnostic.reference_draws=20000",
                     "--override", "diagnostic.budgets=[32]"]) == 0
        assert references[0].max() > 1.0
        summary = json.loads((tmp_path / "tv.csv.summary.json").read_text())
        entry = summary["per_budget"][0]
        assert all(0.0 <= entry[key] <= 1.0 for key in (
            "mean_tv_snis", "mean_tv_br", "tv_of_averaged_predictive_snis",
            "tv_of_averaged_predictive_br"))

    def test_tv_output_identical_across_thread_counts(self, tmp_path):
        config = tv_config(tmp_path, replications=6)
        outputs = []
        for threads in ("1", "2"):
            assert main(["diagnose", "--config", config, "--threads", threads]) == 0
            outputs.append([(tmp_path / name).read_bytes()
                            for name in ("tv.csv", "tv.csv.summary.json")])
        assert outputs[0] == outputs[1]

    def test_sw_output_identical_across_thread_counts(self, tmp_path):
        """Each group owns its stream, so running the groups on workers does
        not change a byte."""
        config = sw_config(tmp_path)
        outputs = []
        for threads in ("1", "2"):
            assert main(["diagnose", "--config", config, "--threads", threads]) == 0
            outputs.append([(tmp_path / name).read_bytes()
                            for name in ("sw.csv", "sw.csv.summary.json")])
        assert outputs[0] == outputs[1]

    def test_tv_test_points_are_not_the_covariates(self, tmp_path, monkeypatch):
        """With seed == data_seed the test points used to be the training
        covariates bit for bit: both came off the data stream."""
        config = tv_config(tmp_path, model={"data_seed": 9, "n_obs": 10}, replications=2,
                           reference_draws=100)
        seen, cli_reference = {}, cli._reference_predictive

        def data(rng, dim, n_obs, theta):
            seen["x"], y = synthetic_logistic_data(rng, dim, n_obs, theta)
            return seen["x"], y

        def reference(log_weights, points, x_test):
            seen["x_test"] = x_test
            return cli_reference(log_weights, points, x_test)

        monkeypatch.setattr(cli, "synthetic_logistic_data", data)
        monkeypatch.setattr(cli, "_reference_predictive", reference)
        assert main(["diagnose", "--config", config]) == 0
        assert seen["x_test"].shape == seen["x"].shape == (10, 3)
        assert not np.isin(seen["x_test"], seen["x"]).any()

    def test_tv_reference_memory_bounded(self, tmp_path):
        """The reference runs in row blocks: 5e4 draws against 200 data rows
        and 200 test points would need two 80 MB matrices at once."""
        config = tv_config(tmp_path, model={"n_obs": 200}, replications=2,
                           test_points=200, reference_draws=50000)
        tracemalloc.start()
        try:
            assert main(["diagnose", "--config", config]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("draws, test_points", [
        (2 * ROWS[200] + 3, 200), (ROWS[7] + 1, 7), (ROWS[1] + 5, 1),
        (8195, 200), (4097, 7), (4101, 1)])
    def test_tv_reference_matches_snis_estimate(self, draws, test_points):
        """Within 1e-14 of the exact weighted sum of the SNIS reference, with
        a last block of three rows, a lone last row (blocks of
        ``_block_rows(test points)`` rows), a single column, and batches of a
        few to a few dozen blocks."""
        rng = np.random.default_rng(31)
        x, y = synthetic_logistic_data(rng, 3, 40, np.array([1.0, -1.0, 0.5]))
        model = make_logistic_posterior(LogisticPosteriorSpec(x, y, 0.05))
        points = model.propose(rng, draws)
        x_test = rng.standard_normal((test_points, 3))
        log_weights = model.log_weight(points)
        terms = normalize_weights(log_weights)[:, None] * logistic_predictive(points, x_test)
        exact = np.array([math.fsum(column) for column in terms.T])
        np.testing.assert_allclose(cli._reference_predictive(log_weights, points, x_test),
                                   exact, rtol=0, atol=1e-14)

    def test_sw_requires_target_sampler(self, tmp_path):
        config = write_config(tmp_path, {
            "schema": 1,
            "model": {"name": "logistic-synthetic", "dim": 2, "n_obs": 10},
            "out": str(tmp_path / "x.csv"),
            "diagnostic": {"kind": "sw"},
        })
        assert main(["diagnose", "--config", config]) == 2


class TestLogisticConstants:
    """The logistic model's Student proposal has a bounded weight, so
    ``bounds`` and ``experiment`` estimate omega and kappa and give finite
    bounds; under its old Gaussian proposal both exited 3."""

    MODEL = {"name": "logistic-synthetic", "dim": 3, "n_obs": 40}
    ESTIMATE = {"omega": None, "kappa": None, "estimate_draws": 20000,
                "estimate_restarts": 8}

    def test_bounds_without_constants(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "schema": 1, "model": self.MODEL, "seed": 3,
            "grid": [{"N": 8, "k": 6, "k0": 2, "M": 64}], **self.ESTIMATE})
        assert main(["bounds", "--config", config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimated"] is True
        assert 1.0 < payload["kappa"] < np.inf and 1.0 < payload["omega"] < np.inf
        entry = payload["entries"][0]
        assert "rolling_bias_bound" in entry and "snis_hpd_bound_delta_0.1" in entry
        assert np.all(np.isfinite(np.hstack(list(entry.values()))))

    def test_component_clipped_at_sup_bound(self):
        """The Student proposal reaches past 50, where the unclipped
        coordinate failed the test function's sup-bound check."""
        points = np.zeros((3, 3))
        points[:, 0] = [1e3, -1e3, 0.5]
        assert np.array_equal(cli.build_model(self.MODEL).f(points), [50.0, -50.0, 0.5])

    def test_experiment_without_constants(self, tmp_path):
        config = experiment_config(tmp_path, model=self.MODEL, **self.ESTIMATE)
        assert main(["experiment", "--config", config]) == 0
        summary = json.loads((tmp_path / "out.csv.summary.json").read_text())
        assert summary["constants_estimated"] is True
        assert np.isfinite(summary["omega"]) and np.isfinite(summary["kappa"])
        bounds = summary["points"][0]["bounds"]
        assert set(bounds) == {"bias_bound", "mse_bound", "hpd_bound_delta_0.1"}
        assert all(np.isfinite(value) for value in bounds.values())


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["bounds", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_schema(self, tmp_path):
        config = write_config(tmp_path, {"schema": 2, "model": {}})
        assert main(["bounds", "--config", config]) == 2

    def test_unknown_estimator(self, tmp_path):
        config = experiment_config(tmp_path, estimator="magic")
        assert main(["experiment", "--config", config]) == 2

    def test_render_failure_keeps_existing_outputs(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_text("old csv\n")
        summary = tmp_path / "out.csv.summary.json"
        summary.write_text("{}\n")
        with pytest.raises(TypeError):
            _write_outputs(str(out), ["new"], {"unserializable": object()})
        assert (out.read_text(), summary.read_text()) == ("old csv\n", "{}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["out.csv", "out.csv.summary.json"]

    @pytest.mark.parametrize("command", ["experiment", "diagnose"])
    @pytest.mark.parametrize("out", ["missing/out.csv", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_output_is_config_error(self, tmp_path, monkeypatch, capsys,
                                               command, out):
        """An output in a missing directory, or one that names a directory, is
        a config error before the model is built, not a failed write at the
        end of the run."""
        out = str(tmp_path / out)
        config = (experiment_config if command == "experiment" else tv_config)(tmp_path)
        monkeypatch.setattr(cli, "build_model", fail_if_called)
        assert main([command, "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err == \
            f"config error: out {out} is a directory or lies in a missing one\n"

    def test_unwritable_output_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        """A directory that vanishes after the check fails the write: exit 3."""
        build = cli.build_model

        def remove_directory(section):
            (tmp_path / "gone").rmdir()
            return build(section)

        (tmp_path / "gone").mkdir()
        monkeypatch.setattr(cli, "build_model", remove_directory)
        config = experiment_config(tmp_path, out=str(tmp_path / "gone" / "out.csv"))
        assert main(["experiment", "--config", config]) == 3
        assert "No such file or directory" in capsys.readouterr().err

    def test_unbounded_weight_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        """A model whose weight grows without bound: omega's search stops with
        its own message before the surface overflows (RuntimeWarnings are
        errors in this suite, and used to end the run with an overflow
        message).  No built-in model has such a weight."""
        build = cli.build_model

        def unbounded(section):
            built = build(section)
            model = dataclasses.replace(built.model,
                                        log_weight=lambda x: (x ** 2).sum(axis=1))
            return dataclasses.replace(built, model=model)

        monkeypatch.setattr(cli, "build_model", unbounded)
        config = experiment_config(tmp_path, omega=None, estimate_draws=2000)
        assert main(["experiment", "--config", config]) == 3
        assert capsys.readouterr().err.startswith(
            "runtime error: weight maximization diverged")

    def test_nan_sw_curve_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        """A NaN distance reaches the rate fit, which used to write a NaN slope."""
        monkeypatch.setattr(cli, "sliced_wasserstein", lambda *args: float("nan"))
        assert main(["diagnose", "--config", sw_config(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(
            "runtime error: values must be finite")
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_parse_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestWorkerProcesses:
    """``--threads`` above 1 runs the chunks on forked worker processes, or in
    the calling process where ``fork`` is missing.  Every output and exit
    code is the one of a single-worker run, and no worker outlives ``main``."""

    BOOTSTRAP = {"estimator": "br-snis-bootstrap", "grid": [{"N": 5, "k": 6, "rounds": 2}],
                 "replications": 4, "batch_size": 2}

    @pytest.fixture
    def pools(self, monkeypatch):
        """The ``max_workers`` of every process pool the CLI opens.  A pool
        asked for more than four workers fails before it starts any."""
        opened = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                opened.append(max_workers)
                assert max_workers <= 4, "too many workers"
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        return opened

    @pytest.mark.parametrize("replications, threads, sizes", [
        (130, 1, [44, 43, 43]), (130, 2, [33, 33, 32, 32]), (200, 2, [50] * 4),
        (65, 2, [33, 32]), (12, 2, [6, 6]), (3, 64, [1, 1, 1]), (1, 4, [1])])
    def test_chunk_rule(self, pools, replications, threads, sizes):
        """The fewest chunks of at most 64 generators that give each of the
        ``threads`` workers as many, sizes within one of each other, on up to
        ``threads`` forked workers; the results come back in replication order."""
        def job(rngs):
            return [(len(rngs), rng.bit_generator.state["state"]) for rng in rngs]

        results = cli._replicate(3, 1, replications, threads, job)
        assert [size for size, _ in results] == [size for size in sizes
                                                 for _ in range(size)]
        assert [state for _, state in results] == [
            replication_rng(3, 1, r).bit_generator.state["state"]
            for r in range(replications)]
        workers = min(threads, len(sizes))
        assert pools == ([workers] if workers > 1 else [])
        assert multiprocessing.active_children() == []

    def test_no_idle_workers(self, tmp_path, pools):
        """--threads 64 on three one-replication chunks forks three workers;
        a single chunk runs in the calling process."""
        for replications in (3, 1):
            config = experiment_config(tmp_path, replications=replications, batch_size=1)
            assert main(["experiment", "--config", config, "--threads", "64"]) == 0
            assert multiprocessing.active_children() == []
        assert pools == [3]

    @pytest.mark.parametrize("error, code, message", [
        (RuntimeError("replication failed"), 3, "runtime error: replication failed\n"),
        (cli.ConfigError("point rejected"), 2, "config error: point rejected\n"),
    ], ids=["runtime-error", "config-error"])
    def test_worker_error_exit_codes(self, tmp_path, monkeypatch, capsys, pools,
                                     error, code, message):
        """An error raised inside a worker exits with the code and message it
        gives at one thread, and writes no output; the workers inherit the
        patched ``run_replication``."""
        def fail(*args):
            raise error

        monkeypatch.setattr(cli, "run_replication", fail)
        config = experiment_config(tmp_path, **self.BOOTSTRAP)
        for threads in ("1", "2"):
            assert main(["experiment", "--config", config, "--threads", threads]) == code
            assert capsys.readouterr().err == message
            assert multiprocessing.active_children() == []
        assert pools == [2]
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_calling_process_without_fork(self, tmp_path, monkeypatch, pools):
        """Without the ``fork`` start method, --threads 2 opens no pool and
        writes the bytes of --threads 1 and of forked workers."""
        config = experiment_config(tmp_path, **self.BOOTSTRAP)

        def run(threads):
            assert main(["experiment", "--config", config, "--threads", threads]) == 0
            assert multiprocessing.active_children() == []
            return [(tmp_path / name).read_bytes()
                    for name in ("out.csv", "out.csv.summary.json")]

        serial, forked = run("1"), run("2")
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
        assert run("2") == forked == serial
        assert pools == [2]


class TestShippedInputs:
    """Every shipped config and every benchmark workload passes the checks of
    its subcommand.  The first draw is stopped, so nothing is sampled; a key
    the checks rejected would fail every benchmark operation."""

    COMMANDS = {"logistic_tv.json": "diagnose", "mixture_bounds.json": "bounds",
                "mixture_fixed_budget.json": "experiment",
                "mixture_snis_baseline.json": "experiment",
                "mixture_sw_mixing.json": "diagnose"}

    @staticmethod
    def stopped_at_first_draw(monkeypatch, capsys, argv):
        with monkeypatch.context() as patch:
            forbid_sampling(patch)
            assert main(argv) == 3
        assert capsys.readouterr().err == \
            "runtime error: sampling started before the config check\n"

    def test_shipped_configs(self, monkeypatch, capsys):
        configs = sorted((ROOT / "configs").glob("*.json"))
        assert [path.name for path in configs] == sorted(self.COMMANDS)
        for path in configs:
            self.stopped_at_first_draw(monkeypatch, capsys,
                                       [self.COMMANDS[path.name], "--config", str(path)])

    def test_benchmark_workloads(self, tmp_path, monkeypatch, capsys):
        """Each workload also passes the config reads of the benchmark's own
        output checks, which build its model and read its counts."""
        with mock.patch.dict(os.environ):  # run.py pins the BLAS thread variables
            run = runpy.run_path(str(ROOT / "perfbench" / "run.py"))
        assert run["WORKLOADS"]
        for workload in run["WORKLOADS"].values():
            self.stopped_at_first_draw(monkeypatch, capsys,
                                       workload.argv(1001, tmp_path / "out.csv"))
            sup_bound, replications = run["expectations"](workload)
            assert sup_bound > 0 and replications >= 1
        assert list(tmp_path.iterdir()) == []


class TestImportPath:
    """No command loads scipy: the Student normalizer uses ``math.lgamma``,
    the box probabilities ``math.erfc``, and the weight constants sum
    max-shifted weights."""

    def test_build_model_loads_no_scipy_optimize(self, tmp_path):
        """Both models, ``bounds`` estimating omega and kappa, and a mixture
        ``experiment`` (truth and estimated constants) in one fresh
        interpreter load no scipy module at all."""
        small = ["--override", "estimate_draws=2000", "--override", "estimate_restarts=2"]
        experiment = ["experiment", "--config", "configs/mixture_snis_baseline.json",
                      "--override", "grid=[{\"M\": 64}]", "--override", "replications=2",
                      "--override", "batch_size=1", "--out", str(tmp_path / "out.csv"),
                      *small]
        code = (
            "import sys\n"
            "from brsnis import cli\n"
            "for name in ('logistic_tv', 'mixture_bounds'):\n"
            "    cli.build_model(cli.load_config(f'configs/{name}.json', [])['model'])\n"
            f"assert cli.main(['bounds', '--config', 'configs/mixture_bounds.json', *{small!r}]) == 0\n"
            f"assert cli.main({experiment!r}) == 0\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n")
        src = str(Path(brsnis.model.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / "out.csv.summary.json").read_text())
        assert summary["constants_estimated"] and "truth" in summary["points"][0]

    def test_cli_import_loads_no_pool(self):
        """``from brsnis import cli`` loads neither process pools nor
        ``concurrent.futures``: only a run that forks imports them."""
        code = ("import sys\n"
                "from brsnis import cli\n"
                "loaded = [m for m in ('concurrent.futures', 'multiprocessing',\n"
                "                      'concurrent.futures.process') if m in sys.modules]\n"
                "assert not loaded, loaded\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestTraceHooks:
    """perfbench/tracer.py patches package names that must keep existing."""

    @staticmethod
    def traced_spans(tmp_path, experiments, tv_diagnostic=None):
        """Spans from tiny experiments ``(estimator, grid point)`` and,
        given its section overrides, a tiny ``diagnose tv`` run, all under
        the benchmark's tracer."""
        tracer_mod = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))
        tracer = tracer_mod["Tracer"]()
        with tracer_mod["installed"](tracer):
            for estimator, point in experiments:
                config = experiment_config(tmp_path, estimator=estimator,
                                           grid=[point], replications=2,
                                           batch_size=1)
                assert main(["experiment", "--config", config]) == 0
            if tv_diagnostic is not None:
                config = tv_config(tmp_path, **tv_diagnostic)
                assert main(["diagnose", "--config", config]) == 0
        return tracer.spans

    def test_tracer_records_chain_and_bootstrap_spans(self, tmp_path):
        spans = self.traced_spans(tmp_path, [("br-snis", {"N": 5, "k": 6}),
                                             ("br-snis-bootstrap", {"N": 5, "k": 6})])
        names = {span.name for span in spans}
        assert {"isir.run_chain", "rolling.rolling_estimate",
                "rolling.build_sample_bank", "rolling.bootstrap_br_snis"} <= names
        # The tracer reads a chain's steps from the schedule's n_iters.
        assert [span.work["steps"] for span in spans if span.name == "isir.run_chain"] \
            == [6]

    def test_tracer_records_estimator_and_diagnostic_spans(self, tmp_path):
        tv = {"replications": 2, "test_points": 4, "reference_draws": 2000}
        spans = self.traced_spans(tmp_path, [("snis", {"M": 32}),
                                             ("isir-state", {"N": 5, "k": 6})], tv)
        names = {span.name for span in spans}
        assert {"snis.snis_estimate", "isir.run_chain", "cli.run_replication",
                "diagnostics.replication_stats", "rolling.build_sample_bank",
                "diagnostics.tv_predictive", "model.f", "model.log_weight"} <= names
        # Only the TV reference's 2000 draws lift either count that high, so
        # the reference must reach the model through the names the tracer wraps.
        for layer in ("model.f", "model.log_weight"):
            points = sum(span.work["points"] for span in spans if span.name == layer)
            assert points >= 2000

    def test_tracer_records_sw_chain_spans(self, tmp_path):
        """``diagnose sw`` runs its chains through ``cli.run_chain``: one
        span of k_max steps per group and pool size."""
        tracer_mod = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))
        tracer = tracer_mod["Tracer"]()
        config = sw_config(tmp_path, N=[4, 8], k_max=3, chains=20, groups=2)
        with tracer_mod["installed"](tracer):
            assert main(["diagnose", "--config", config]) == 0
        assert [span.work["steps"] for span in tracer.spans
                if span.name == "isir.run_chain"] == [3] * 4
