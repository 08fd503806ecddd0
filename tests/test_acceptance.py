"""End-to-end acceptance suite.

Each test verifies one headline guarantee at its stated tolerance and prints
one [PASS]/[FAIL] line (run with ``pytest -s`` to see them as they happen).
The suite shares one base seed; statistical checks carry explicit
standard-error allowances for their own Monte Carlo resolution.
"""

import json

import numpy as np
import pytest
from oracles import isir_step, key_relation_check
from scipy.optimize import minimize, minimize_scalar
from scipy.stats import chisquare

from brsnis import (benchmark_mixture, bootstrap_br_snis, bound_constants,
                    build_sample_bank, coverage_check,
                    estimate_kappa, estimate_omega, fit_geometric_rate,
                    lag_covariance, make_gaussian_mixture,
                    make_logistic_posterior, mixture_test_function,
                    mixture_truth, pool_bias_bound, pool_cov_bound, pool_mse_bound,
                    replication_stats, rolling_bias_bound, rolling_estimate,
                    rolling_hpd_bound, rolling_mse_bound, run_chain, sliced_wasserstein,
                    snis_bias_bound, snis_estimate, snis_hpd_bound,
                    snis_mse_bound, synthetic_logistic_data)
from brsnis import (CachedSampleBank, LogisticPosteriorSpec, ModelSpec,
                    RollingConfig, TestFunction)
from brsnis.cli import main as cli_main

ACCEPTANCE_SEED = 1234


def rng_for(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([ACCEPTANCE_SEED, tag]))


def report(label: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def replicated_snis(model, f, m: int, reps: int, rng, chunk: int = 200) -> np.ndarray:
    """``snis_estimate`` of ``reps`` samples of size ``m`` from one shared
    stream, drawn ``chunk`` samples at a time; each row of a chunk is one
    replication's sample."""
    out = []
    while len(out) < reps:
        take = min(chunk, reps - len(out))
        draws = model.propose(rng, take * m)
        out += map(snis_estimate, model.log_weight(draws).reshape(take, m),
                   f(draws).reshape(take, m))
    return np.array(out)


def exact_mixture_constants(spec, model, draws: int, rng):
    """Weight constants of a built-in mixture model, computed from its
    densities and exact target draws, never from the estimators under test.

    ``log_weight`` is the difference of two normalized log densities, so
    lambda(w) = 1 exactly: omega is sup w, and kappa = lambda(w^2) = pi(w).
    Each component is isotropic and the Student proposal radially
    symmetric, so the weight mode next to component j lies on the ray
    t * means[j]; a bounded line search finds it and BFGS in R^d polishes
    off the pull of the other component.  Returns omega and the weights of
    ``draws`` exact target draws, whose mean is kappa.
    """
    def neg_log_weight(v):
        return -float(model.log_weight(v[None, :])[0])

    best = -np.inf
    for mean in spec.means:
        line = minimize_scalar(lambda t: neg_log_weight(t * mean),
                               bounds=(0.0, 4.0), method="bounded",
                               options={"xatol": 1e-10})
        polish = minimize(neg_log_weight, line.x * mean, method="BFGS")
        best = max(best, -polish.fun)
    target_weights = np.exp(model.log_weight(model.target_sample(rng, draws)))
    return float(np.exp(best)), target_weights


@pytest.fixture(scope="module")
def constants2(mixture2):
    """Estimated weight constants for the two-dimensional benchmark."""
    _, model, _, _ = mixture2
    rng = rng_for(100)
    log_weights = model.log_weight(model.propose(rng, 10 ** 6))
    return estimate_omega(model, log_weights, 32, rng), estimate_kappa(log_weights)


@pytest.fixture(scope="module")
def cold_chain_runs(mixture2):
    """Recycled estimates of 10^4 cold-start chains for N in {8, 32, 128}."""
    _, model, f, _ = mixture2
    runs = {}
    for tag, n in enumerate((8, 32, 128)):
        rng = rng_for(200 + tag)
        runs[n], _ = run_chain(model, f, RollingConfig(n, 20, 0), rng,
                               starts=model.propose(rng, 10 ** 4))
    return runs


class TestStationaryUnbiasedness:
    def test_single_step_recycled_estimates_center_on_truth(self, mixture2):
        _, model, f, truth = mixture2
        rng = rng_for(1)
        recycled, _ = run_chain(model, f, RollingConfig(32, 1, 0), rng,
                                starts=model.target_sample(rng, 10 ** 5))
        values = recycled[:, 0]
        se = values.std(ddof=1) / np.sqrt(len(values))
        gap = abs(values.mean() - truth)
        report("stationary-start unbiasedness",
               gap <= 3.0 * se, f"|mean-truth|={gap:.2e} vs 3se={3 * se:.2e}")


class TestPoolBiasBound:
    def test_empirical_bias_under_closed_form_bound(self, mixture2, constants2,
                                                    cold_chain_runs):
        _, _, f, truth = mixture2
        omega, kappa = constants2
        worst = -np.inf
        ok = True
        for n, recycled in cold_chain_runs.items():
            consts = bound_constants(max(omega, 1.0), max(kappa, 1.0), n)
            bias = recycled.mean(axis=0) - truth
            se = recycled.std(axis=0, ddof=1) / np.sqrt(recycled.shape[0])
            for step in range(recycled.shape[1]):
                bound = pool_bias_bound(consts, step + 1) * f.sup_bound
                margin = abs(bias[step]) - (bound + 4.0 * se[step])
                worst = max(worst, margin)
                ok = ok and margin <= 0
        report("recycled-estimate bias bound (N in {8,32,128}, k 1..20)", ok,
               f"worst excess over bound+4se = {worst:.2e}")


class TestBiasDecayRate:
    def test_fitted_decay_no_slower_than_theory(self, mixture2, constants2,
                                                cold_chain_runs):
        _, _, _, truth = mixture2
        omega, _ = constants2
        recycled = cold_chain_runs[32]
        bias = np.abs(recycled.mean(axis=0) - truth)
        se = recycled.std(axis=0, ddof=1) / np.sqrt(recycled.shape[0])
        # Fit over the initial run of iterations where the signal clears the
        # replication noise; past that point |bias| flattens into noise.
        usable = bias > 3.0 * se
        limit = int(np.argmax(~usable)) if not usable.all() else len(usable)
        limit = max(limit, 3)
        ks = np.arange(1, limit + 1, dtype=float)
        slope, _ = fit_geometric_rate(bias[:limit], ks)
        log_rate = np.log((2 * omega - 1) / (2 * omega + 30))
        report("geometric bias decay at N=32",
               slope <= log_rate,
               f"fitted slope {slope:.3f} vs log rate {log_rate:.3f} "
               f"({limit} usable iterations)")


class TestPoolMseAndRollingBounds:
    def test_sampled_moments_under_closed_form_bounds(self, mixture2, constants2,
                                                      cold_chain_runs):
        """The cold-chain runs of the bias check, reused: for N in {8, 32, 128}
        each step's MSE stays under ``pool_mse_bound`` sup|f|^2, and the
        rolling estimate at k0 in {0, 5, 10} under the rolling bias bound
        (times sup|f|) and MSE bound (times its square), each plus 3
        standard errors.  At N = 128 with k0 >= 5 the rolling bias bound is
        at most 6.7e-5, below the sampling resolution of 10^4 chains, so
        there the bias check holds by its noise allowance alone."""
        _, _, f, truth = mixture2
        omega, kappa = constants2
        sup = f.sup_bound
        ok = True
        details = []
        for n, recycled in cold_chain_runs.items():
            consts = bound_constants(max(omega, 1.0), max(kappa, 1.0), n)
            k, chains = recycled.shape[1], recycled.shape[0]
            sq = (recycled - truth) ** 2
            excess = sq.mean(axis=0) - (pool_mse_bound(consts) * sup ** 2
                                        + 3.0 * sq.std(axis=0, ddof=1) / np.sqrt(chains))
            ok = ok and (excess <= 0).all()
            details.append(f"N={n}: worst pool mse excess {excess.max():.2e}")
            for k0 in (0, 5, 10):
                values = rolling_estimate(recycled, k0)
                bias = abs(values.mean() - truth)
                bias_se = values.std(ddof=1) / np.sqrt(chains)
                sq = (values - truth) ** 2
                mse, mse_se = sq.mean(), sq.std(ddof=1) / np.sqrt(chains)
                bias_bound = rolling_bias_bound(consts, k0, k) * sup
                mse_bound = rolling_mse_bound(consts, k0, k) * sup ** 2
                ok = (ok and bias <= bias_bound + 3.0 * bias_se
                      and mse <= mse_bound + 3.0 * mse_se)
                details.append(f"k0={k0}: |bias|={bias:.2e}<={bias_bound:.2g}"
                               f"+{3 * bias_se:.1e}, mse={mse:.2e}<={mse_bound:.3g}")
        report("pool MSE and rolling bounds (N in {8,32,128}, k=20)", ok,
               "; ".join(details))

    def test_lag_covariance_under_closed_form_bound(self, mixture2, constants2,
                                                    cold_chain_runs):
        """The same runs: for N in {8, 32, 128} and lags 1, 2 and 5, the
        cross moment of the first recycled estimate with the one ``lag``
        steps later stays under ``pool_cov_bound`` sup|f|^2 plus 3 standard
        errors."""
        _, _, f, truth = mixture2
        omega, kappa = constants2
        ok = True
        details = []
        for n, recycled in cold_chain_runs.items():
            consts = bound_constants(max(omega, 1.0), max(kappa, 1.0), n)
            for lag in (1, 2, 5):
                cov = abs(lag_covariance(recycled, truth, lag, base_index=0))
                products = (recycled[:, 0] - truth) * (recycled[:, lag] - truth)
                se = products.std(ddof=1) / np.sqrt(len(products))
                bound = pool_cov_bound(consts, lag) * f.sup_bound ** 2
                ok = ok and cov <= bound + 3.0 * se
                details.append(f"N={n} lag={lag}: |cov|={cov:.2e}<={bound:.3g}"
                               f"+{3 * se:.1e}")
        report("lag covariance bound (N in {8,32,128}, lags 1, 2, 5)", ok,
               "; ".join(details))


class TestFixedBudgetComparison:
    def test_bootstrap_cuts_bias_order_of_magnitude(self):
        spec = benchmark_mixture(7)
        model = make_gaussian_mixture(spec)
        f = mixture_test_function(spec)
        truth = mixture_truth(spec)
        m, n = 16384, 129
        k = m // (n - 1)
        rounds = m // (n - 1)
        reps, chunk = 5000, 250
        cfg = RollingConfig(n, k, k - 1)
        rng = rng_for(4)
        snis_est = np.empty(reps)
        br_est = np.empty(reps)
        done = 0
        while done < reps:
            take = min(chunk, reps - done)
            draws = model.propose(rng, take * (m + 1))
            lw = model.log_weight(draws).reshape(take, m + 1)
            fv = f(draws).reshape(take, m + 1)
            # One bank per replication; column m is its reserved entry.
            for i in range(take):
                bank = CachedSampleBank(lw[i, :m], fv[i, :m], float(lw[i, m]),
                                        fv[i, m])
                snis_est[done + i] = snis_estimate(bank.log_weights, bank.f_values)
                br_est[done + i] = bootstrap_br_snis(bank, cfg, rounds, rng).mean(axis=0)
            done += take
        stats_snis = replication_stats(snis_est, truth, batch_size=100)
        stats_br = replication_stats(br_est, truth, batch_size=100)
        bias_ok = abs(stats_br.bias) <= \
            0.1 * abs(stats_snis.bias) + 3.0 * stats_br.bias_se
        mse_ok = stats_br.mse <= 2.0 * stats_snis.mse + 3.0 * stats_br.mse_se
        report("fixed-budget bias reduction (M=16384, N=129)",
               bias_ok and mse_ok,
               f"|bias| {abs(stats_snis.bias):.5f}->{abs(stats_br.bias):.5f} "
               f"(3se={3 * stats_br.bias_se:.5f}), "
               f"mse {stats_snis.mse:.5f}->{stats_br.mse:.5f} "
               f"({len(stats_br.batch_bias)} batches of 100)")


class TestSnisClosedFormBounds:
    def test_bias_and_mse_under_bounds(self, mixture2, constants2):
        _, model, f, truth = mixture2
        _, kappa = constants2
        rng = rng_for(5)
        ok = True
        details = []
        for m in (100, 1000, 10000):
            estimates = replicated_snis(model, f, m, 10 ** 4, rng,
                                        chunk=max(1, 10 ** 6 // m))
            bias = estimates.mean() - truth
            bias_se = estimates.std(ddof=1) / np.sqrt(len(estimates))
            sq = (estimates - truth) ** 2
            mse, mse_se = sq.mean(), sq.std(ddof=1) / np.sqrt(len(sq))
            bias_ok = abs(bias) <= snis_bias_bound(kappa, m) + 3.0 * bias_se
            mse_ok = mse <= snis_mse_bound(kappa, m) + 3.0 * mse_se
            ok = ok and bias_ok and mse_ok
            details.append(
                f"M={m}: |bias|={abs(bias):.4f}<={snis_bias_bound(kappa, m):.4f}"
                f", mse={mse:.4f}<={snis_mse_bound(kappa, m):.4f}")
        report("closed-form estimator bounds", ok, "; ".join(details))


class TestLogisticSnisBounds:
    def test_bias_and_mse_under_bounds(self):
        """SNIS on ``logistic-synthetic`` with its CLI test function, the
        clipped first coordinate (sup bound 50): bias and MSE stay under the
        closed-form bounds at the estimated kappa, scaled by the sup bound
        and its square, plus 3 standard errors.  The truth is the SNIS
        estimate of 10^6 draws, whose log weights also give kappa."""
        from brsnis.cli import build_model
        built = build_model({"name": "logistic-synthetic"})
        model, f, sup = built.model, built.f, built.f.sup_bound
        rng = rng_for(18)
        draws = model.propose(rng, 10 ** 6)
        log_weights = model.log_weight(draws)
        truth = snis_estimate(log_weights, f(draws))
        kappa = estimate_kappa(log_weights)
        ok = True
        details = [f"kappa={kappa:.3f}"]
        for m in (10, 100, 1000):
            estimates = replicated_snis(model, f, m, 2000, rng,
                                        chunk=max(1, 10 ** 5 // m))
            bias = estimates.mean() - truth
            bias_se = estimates.std(ddof=1) / np.sqrt(len(estimates))
            sq = (estimates - truth) ** 2
            mse, mse_se = sq.mean(), sq.std(ddof=1) / np.sqrt(len(sq))
            bias_bound = snis_bias_bound(kappa, m) * sup
            mse_bound = snis_mse_bound(kappa, m) * sup ** 2
            ok = (ok and abs(bias) <= bias_bound + 3.0 * bias_se
                  and mse <= mse_bound + 3.0 * mse_se)
            details.append(f"M={m}: |bias|={abs(bias):.2e}<={bias_bound:.3g}"
                           f", mse={mse:.2e}<={mse_bound:.3g}")
        report("logistic closed-form SNIS bounds", ok, "; ".join(details))


class TestHighProbabilityCoverage:
    def test_deviation_bounds_cover_at_level(self, mixture2, constants2,
                                             gauss_student_1d):
        _, model, f, truth = mixture2
        omega, kappa = constants2
        n, k, k0, delta = 32, 20, 10, 0.1
        rng = rng_for(6)
        recycled, _ = run_chain(model, f, RollingConfig(n, k, 0), rng,
                                starts=model.propose(rng, 10 ** 4))
        rolling = rolling_estimate(recycled, k0)
        consts = bound_constants(max(omega, 1.0), max(kappa, 1.0), n)
        bound = rolling_hpd_bound(consts, delta, k0, k) * f.sup_bound
        rolling_cov = coverage_check(rolling, truth, bound, delta)

        _, model1, f1, truth1 = gauss_student_1d
        rng = rng_for(7)
        log_weights1 = model1.log_weight(model1.propose(rng, 2 * 10 ** 5))
        omega1 = estimate_omega(model1, log_weights1, 8, rng)
        estimates = replicated_snis(model1, f1, 1000, 10 ** 4, rng)
        bound1 = snis_hpd_bound(max(omega1, 1.0), 1000, delta) * f1.sup_bound
        snis_cov = coverage_check(estimates, truth1, bound1, delta)
        report("high-probability coverage at delta=0.1",
               rolling_cov.passed and snis_cov.passed,
               f"rolling violations {rolling_cov.violation_fraction:.4f}, "
               f"plain violations {snis_cov.violation_fraction:.4f}")


class TestWeightConstantsReproduction:
    def test_benchmark_constants_within_factor_three(self):
        spec = benchmark_mixture(7)
        model = make_gaussian_mixture(spec)
        rng = rng_for(8)
        log_weights = model.log_weight(model.propose(rng, 10 ** 6))
        kappa = estimate_kappa(log_weights)
        omega = estimate_omega(model, log_weights, 32, rng)
        omega_star, weights = exact_mixture_constants(spec, model, 10 ** 6,
                                                      rng_for(15))
        kappa_star = weights.mean()
        kappa_ok = kappa_star / 3.0 <= kappa <= kappa_star * 3.0
        omega_ok = omega_star / 3.0 <= omega <= omega_star * 3.0
        report("weight-constant reproduction (d=7 benchmark)",
               kappa_ok and omega_ok,
               f"kappa_hat={kappa:.4g} vs exact {kappa_star:.4g} "
               f"(ratio {kappa / kappa_star:.3f}, within 3x), "
               f"omega_hat={omega:.4g} vs exact {omega_star:.4g} "
               f"(ratio {omega / omega_star:.3f}, within 3x)")

    def test_estimators_match_exact_constants_two_dimensional(self):
        spec = benchmark_mixture(2)
        model = make_gaussian_mixture(spec)
        n = 10 ** 6
        rng = rng_for(16)
        log_weights = model.log_weight(model.propose(rng, n))
        kappa = estimate_kappa(log_weights)
        omega = estimate_omega(model, log_weights, 32, rng)
        omega_star, w = exact_mixture_constants(spec, model, n, rng_for(17))
        kappa_star = w.mean()
        # Under the proposal w has mean 1, and each pi-moment of w is the
        # proposal moment one order up.  omega_hat divides the exact sup by
        # a mean weight of variance (kappa - 1) / n; kappa_hat =
        # mean(w^2) / mean(w)^2 has delta-method variance
        # Var_q(w^2 - 2 kappa w) / n, and kappa_star its own sampling error.
        omega_se = omega_star * np.sqrt((kappa_star - 1.0) / n)
        kappa_hat_var = (np.mean(w ** 3) - 4.0 * kappa_star * np.mean(w ** 2)
                         + 4.0 * kappa_star ** 3 - kappa_star ** 2) / n
        kappa_se = np.sqrt(kappa_hat_var + w.var() / len(w))
        omega_gap = abs(omega - omega_star)
        kappa_gap = abs(kappa - kappa_star)
        report("weight-constant estimators against exact values (d=2)",
               omega_gap <= 4.0 * omega_se and kappa_gap <= 4.0 * kappa_se,
               f"omega_hat={omega:.4f} vs exact {omega_star:.4f} "
               f"(gap {omega_gap:.3f}, 4se={4 * omega_se:.3f}), "
               f"kappa_hat={kappa:.4f} vs exact {kappa_star:.4f} "
               f"(gap {kappa_gap:.4f}, 4se={4 * kappa_se:.4f})")


class TestKernelInvariants:
    def test_insertion_retention_key_relation_duality(self, mixture2):
        spec, model, f, _ = mixture2
        rng = rng_for(9)

        slots = np.empty(10 ** 5, dtype=int)
        y = np.zeros(2)
        for i in range(len(slots)):
            _, pool = isir_step(model, y, f, 8, rng, y_log_weight=0.0,
                                y_f_value=0.0)
            slots[i] = pool.insertion_index
        chi_p = chisquare(np.bincount(slots, minlength=8)).pvalue

        flat = ModelSpec(dim=1, log_weight=lambda x: np.zeros(len(x)),
                         propose=lambda r, c: r.standard_normal((c, 1)),
                         target_sample=lambda r, c: r.standard_normal((c, 1)))
        unit = TestFunction(fn=lambda pts: np.ones(len(pts)), sup_bound=1.0)
        n_flat, steps = 16, 10 ** 5
        rng = rng_for(10)
        _, states = run_chain(flat, unit, RollingConfig(n_flat, 1, 0), rng,
                              starts=flat.propose(rng, steps))
        kept = np.all(states[:, 1] == states[:, 0], axis=1)
        p_keep = 1.0 / n_flat
        retention_gap = abs(kept.mean() - p_keep)
        retention_se = np.sqrt(p_keep * (1 - p_keep) / steps)

        key = key_relation_check(model, f, spec.means[0], n_candidates=16,
                                 replications=10 ** 5, rng=rng_for(11),
                                 mc_draws=10 ** 6)

        dual = self._duality_gap(model, f, n_pool=8, reps=10 ** 5,
                                 rng=rng_for(12))
        ok = (chi_p > 0.001 and retention_gap <= 4.0 * retention_se
              and abs(key.z_score) <= 3.0 and dual <= 4.0)
        report("kernel-level invariants",
               ok,
               f"slot chi-square p={chi_p:.4f}, retention gap={retention_gap:.2e} "
               f"(4se={4 * retention_se:.2e}), key-relation z={key.z_score:.2f}, "
               f"max duality z={dual:.2f}")

    @staticmethod
    def _duality_gap(model, f, n_pool, reps, rng):
        """Both factorizations of the extended target must agree on the first
        two moments of (f(state), unnormalized pool mean).

        Route one samples the state from the target and surrounds it with
        fresh candidates.  Route two draws whole pools from the proposal
        product, tilts them by their mean weight, and takes the state's
        moments as weight-normalized within-pool averages; its standard
        errors use the usual normalized-weights delta approximation.
        """
        y = model.target_sample(rng, reps)
        fy = f(y)
        wy = np.exp(model.log_weight(y))
        fresh = model.propose(rng, reps * (n_pool - 1))
        wf = np.exp(model.log_weight(fresh)) * f(fresh)
        u_pool = (wy * fy + wf.reshape(reps, -1).sum(axis=1)) / n_pool

        pool_draws = model.propose(rng, reps * n_pool)
        w_all = np.exp(model.log_weight(pool_draws)).reshape(reps, n_pool)
        f_all = f(pool_draws).reshape(reps, n_pool)
        u1 = w_all.mean(axis=1)
        tilt = u1 / u1.sum()
        uf = (w_all * f_all).mean(axis=1)
        state_mean = uf / u1
        state_sq = (w_all * f_all ** 2).mean(axis=1) / u1

        gaps = []
        route_one = (fy, u_pool, fy ** 2, u_pool ** 2, fy * u_pool)
        route_two = (state_mean, uf, state_sq, uf ** 2, state_mean * uf)
        for a, b in zip(route_one, route_two):
            mean_a = a.mean()
            se_a = a.std(ddof=1) / np.sqrt(reps)
            mean_b = float(tilt @ b)
            se_b = float(np.sqrt(np.sum(tilt ** 2 * (b - mean_b) ** 2)))
            gaps.append(abs(mean_a - mean_b) / np.sqrt(se_a ** 2 + se_b ** 2))
        return max(gaps)


class TestSlicedWassersteinMixing:
    def test_decay_and_pool_size_ordering(self, mixture2, constants2):
        _, model, f, _ = mixture2
        omega, kappa = constants2
        chains, groups = 4000, 6
        # One shared projection set for every slice comparison: the distance
        # floor then cancels across k and N.
        directions = np.random.default_rng(
            np.random.SeedSequence([ACCEPTANCE_SEED, 777])).standard_normal((100, model.dim))
        curves = {}
        for tag, n in enumerate((8, 32, 128)):
            consts = bound_constants(max(omega, 1.0), max(kappa, 1.0), n)
            k_max = max(2 * consts.t_mix + 2, 6)
            rng = rng_for(300 + tag)
            sw = np.empty((groups, k_max + 1))
            for g in range(groups):
                _, states = run_chain(model, f, RollingConfig(n, k_max, 0), rng,
                                      starts=model.propose(rng, chains))
                reference = model.target_sample(rng, chains)
                for k in range(k_max + 1):
                    sw[g, k] = sliced_wasserstein(states[:, k], reference, directions)
            curves[n] = (sw.mean(axis=0),
                         sw.std(axis=0, ddof=1) / np.sqrt(groups),
                         consts.t_mix)
        decay_ok = True
        for n, (mean, se, _) in curves.items():
            for k in range(1, len(mean)):
                decay_ok = decay_ok and \
                    mean[k] <= mean[k - 1] + 2.0 * (se[k] + se[k - 1])
        order_ok = True
        for small, large in ((8, 32), (32, 128)):
            m_s, se_s, t_s = curves[small]
            m_l, se_l, t_l = curves[large]
            k_s, k_l = min(2 * t_s, len(m_s) - 1), min(2 * t_l, len(m_l) - 1)
            order_ok = order_ok and \
                m_l[k_l] <= m_s[k_s] + 2.0 * (se_l[k_l] + se_s[k_s])
        report("sliced Wasserstein mixing curves",
               decay_ok and order_ok,
               "; ".join(f"N={n}: sw(0)={c[0][0]:.3f}->sw(end)={c[0][-1]:.3f} "
                         f"(T={c[2]})" for n, c in curves.items()))


class TestLogisticPredictiveOrdering:
    def test_bootstrap_reduces_predictive_tv(self):
        dim, n_obs, tau2 = 5, 200, 5e-2
        theta_star = 1.5 * np.array([1.0, -1.0, 0.5, -0.5, 0.25])
        data_rng = rng_for(13)
        x, y = synthetic_logistic_data(data_rng, dim, n_obs, theta_star)
        spec = LogisticPosteriorSpec(x, y, prior_precision=tau2)
        model = make_logistic_posterior(spec)
        x_test = data_rng.standard_normal((200, dim))
        predictive = TestFunction(
            fn=lambda pts: 1.0 / (1.0 + np.exp(-(pts @ x_test.T))),
            sup_bound=1.0)

        reference = self._reference_predictive(model, predictive, rng_for(14))

        ok = True
        details = []
        reps = 10 ** 3
        for tag, (m, n) in enumerate(((32, 9), (512, 33))):
            k = m // (n - 1)
            cfg = RollingConfig(n, k, k - 1)
            rng = rng_for(400 + tag)
            snis_sum = np.zeros(len(x_test))
            br_sum = np.zeros(len(x_test))
            for _ in range(reps):
                bank = build_sample_bank(model, predictive, m, rng)
                snis_sum += snis_estimate(bank.log_weights, bank.f_values)
                br_sum += bootstrap_br_snis(bank, cfg, rounds=k, rng=rng).mean(axis=0)
            tv_snis = np.abs(snis_sum / reps - reference).mean()
            tv_br = np.abs(br_sum / reps - reference).mean()
            ok = ok and tv_br <= tv_snis
            details.append(f"M={m}: tv_snis={tv_snis:.5f} tv_br={tv_br:.5f}")
        report("logistic predictive distance ordering", ok, "; ".join(details))

    @staticmethod
    def _reference_predictive(model, predictive, rng, draws=10 ** 6,
                              chunk=50000):
        points = model.propose(rng, draws)
        lw = model.log_weight(points)
        w = np.exp(lw - lw.max())
        acc = None
        for start in range(0, draws, chunk):
            block = predictive(points[start:start + chunk])
            part = w[start:start + chunk] @ block
            acc = part if acc is None else acc + part
        return acc / w.sum()


class TestOutputDeterminism:
    def test_byte_identical_csv_across_thread_counts(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "schema": 1,
            "model": {"name": "gaussian-mixture", "dim": 2},
            "estimator": "br-snis",
            "grid": [{"N": 9, "k": 8, "k0": 4}],
            "replications": 8,
            "batch_size": 4,
            "seed": ACCEPTANCE_SEED,
            "out": str(tmp_path / "run.csv"),
            "omega": 18.0,
            "kappa": 6.0,
        }), encoding="utf-8")
        outputs = []
        for threads in ("1", "4"):
            assert cli_main(["experiment", "--config", str(config_path),
                             "--threads", threads]) == 0
            outputs.append(((tmp_path / "run.csv").read_bytes(),
                            (tmp_path / "run.csv.summary.json").read_bytes()))
        ok = outputs[0] == outputs[1]
        report("byte-identical output across thread counts", ok,
               f"csv bytes {len(outputs[0][0])}, match={ok}")
