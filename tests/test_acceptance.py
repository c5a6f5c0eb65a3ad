"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts as the
criteria execute.
"""

import time

import numpy as np
import pytest
from scipy import stats

from limfb.estimators import estimate_gmm, estimate_lmmse
from limfb.evaluate import (Experiment, ExperimentConfig, emit_csv, run_sweep,
                            sum_rate)
from limfb.feedback import (build_dft_codebook, build_pilot_matrix,
                            select_codebook_index)
from limfb.gmm import GmmModel, param_count, project_to_observation
from limfb.precoding import (PrecoderSet, SwmmseOptions,
                             directional_representatives, swmmse_precoders)
from limfb.scene import ArrayGeometry
from limfb.toeplitz import check_structure
from wmmse_oracle import deterministic_wmmse

SNR_10_DB = 0.1  # sigma_n2 at rho=1


def _verdict(number, name, ok):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def _random_mixture(n_components, dim, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, n_components)
    weights /= weights.sum()
    means = rng.standard_normal((n_components, dim)) \
        + 1j * rng.standard_normal((n_components, dim))
    covs = np.empty((n_components, dim, dim), dtype=complex)
    for k in range(n_components):
        raw = rng.standard_normal((dim, dim)) \
            + 1j * rng.standard_normal((dim, dim))
        covs[k] = raw @ raw.conj().T / dim + 0.2 * np.eye(dim)
    return GmmModel(weights, means, covs)


@pytest.fixture(scope="module")
def fig3_config():
    return ExperimentConfig.desk_profile(
        users=4, constellations=100, seed=2026, snr_db=(10.0,),
        schemes=("gmm-obs", "dft:lmmse", "dft:omp"))


@pytest.fixture(scope="module")
def fig3_sweep(fig3_config, desk_train, desk_eval, desk_model):
    experiment = Experiment(fig3_config, train_dataset=desk_train,
                            eval_dataset=desk_eval,
                            models={("full", 4): desk_model})
    return run_sweep(experiment, "pilots", values=[2, 4, 8])


def test_criterion_1_table_exactness():
    """Model-transfer parameter counts match the published table exactly."""
    expected_full = {4: 33_280, 6: 133_120, 8: 532_480}
    expected_toeplitz = {4: 4_096, 6: 16_384, 8: 65_536}
    magnitudes_full = {4: 3.3e4, 6: 1.3e5, 8: 5.3e5}
    magnitudes_toeplitz = {4: 4.1e3, 6: 1.6e4, 8: 6.6e4}

    def two_sig(x):
        return float(f"{x:.2g}")

    ok = True
    for bits in (4, 6, 8):
        full = param_count(2 ** bits, 64, "full")
        toep = param_count(2 ** bits, 64, "toeplitz")
        ok &= full == expected_full[bits]
        ok &= toep == expected_toeplitz[bits]
        ok &= two_sig(full) == magnitudes_full[bits]
        ok &= two_sig(toep) == magnitudes_toeplitz[bits]
    assert _verdict(1, "parameter-count table exactness", ok)


def test_criterion_2_probabilistic_soundness(desk_model, desk_tmodel,
                                             desk_geometry):
    """Responsibility simplex, EM monotonicity, structured covariances."""
    rng = np.random.default_rng(0)
    simplex_ok = True
    for n_comp in (1, 2, 16):
        model = _random_mixture(n_comp, 8, seed=n_comp)
        for _ in range(1000):
            x = 10.0 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
            resp = model.responsibilities(x)
            simplex_ok &= abs(resp.sum() - 1.0) < 1e-9 and np.all(resp >= 0)

    lls = np.asarray(desk_model.fit_log_likelihoods)
    em_ok = len(lls) == 50 and bool(
        np.all(np.diff(lls) >= -1e-8 * np.abs(lls[:-1])))

    structure_ok = all(check_structure(cov, desk_geometry)
                       for cov in desk_tmodel.covariances)

    ok = simplex_ok and em_ok and structure_ok
    assert _verdict(2, "probabilistic soundness suite", ok)


def test_criterion_3_oracle_equivalence(desk_geometry):
    """Independent dense-algebra oracles agree with the implementations."""
    rng = np.random.default_rng(1)

    # estimate_gmm with one component is exactly the LMMSE filter
    lmmse_ok = True
    for trial in range(20):
        mean = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        cov = raw @ raw.conj().T / 16 + np.eye(16)
        model = GmmModel([1.0], [mean], [cov])
        setup = build_pilot_matrix(desk_geometry, 6, sigma_n2=0.4)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a = estimate_gmm(model, project_to_observation(model, setup), y)
        b = estimate_lmmse(mean, cov, setup, y)
        lmmse_ok &= bool(np.max(np.abs(a - b))
                         <= 1e-10 * max(1.0, np.max(np.abs(b))))

    codebook = build_dft_codebook(desk_geometry, 4)
    scan_ok = True
    for _ in range(100):
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        scores = [abs(np.vdot(entry, h)) for entry in codebook.entries]
        scan_ok &= select_codebook_index(codebook, h).index \
            == int(np.argmax(scores)) + 1

    eig_ok = True
    for _ in range(20):
        raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        cov = raw @ raw.conj().T
        mean = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        model = GmmModel([1.0], [mean], [cov + np.eye(6)])
        got = directional_representatives(model, [1])[0]
        _, vecs = np.linalg.eigh(cov + np.eye(6) + np.outer(mean, mean.conj()))
        ref = vecs[:, -1]
        phase = np.vdot(ref, got)
        eig_ok &= bool(np.max(np.abs(got - ref * phase / abs(phase))) <= 1e-8)

    rate_ok = True
    for _ in range(100):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v *= np.sqrt(1.0 / np.sum(np.abs(v) ** 2))
        sigma_n2 = rng.uniform(0.05, 1.0)
        oracle = sum(
            np.log2(1.0 + abs(h[j] @ v[j]) ** 2
                    / (sum(abs(h[j] @ v[m]) ** 2 for m in range(2) if m != j)
                       + sigma_n2))
            for j in range(2))
        got = sum_rate(h, PrecoderSet(v, 1.0, "rci"), sigma_n2)
        rate_ok &= abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))

    ok = lmmse_ok and scan_ok and eig_ok and rate_ok
    assert _verdict(3, "oracle-equivalence suite", ok)


def test_criterion_4_swmmse_sanity():
    """Single-user capacity, power feasibility, deterministic-WMMSE match."""
    rho, sigma_n2 = 1.0, SNR_10_DB
    rng = np.random.default_rng(2)

    mean = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    single = GmmModel([1.0], [mean], [1e-12 * np.eye(4)])
    out1 = swmmse_precoders(single, [1], sigma_n2, rho,
                            SwmmseOptions(max_iters=300, seed=0))
    capacity = np.log2(1.0 + rho * np.sum(np.abs(mean) ** 2) / sigma_n2)
    achieved = sum_rate(mean[None, :], out1, sigma_n2)
    single_ok = achieved >= 0.99 * capacity

    channels = np.random.default_rng(0).standard_normal((2, 2)) \
        + 1j * np.random.default_rng(0).standard_normal((2, 2))
    channels = channels[:2]
    two = GmmModel([0.5, 0.5], channels, np.stack([1e-12 * np.eye(2)] * 2))
    out2 = swmmse_precoders(two, [1, 2], sigma_n2, rho,
                            SwmmseOptions(max_iters=300, seed=1))
    oracle_vectors = deterministic_wmmse(channels, sigma_n2, rho)
    oracle = sum_rate(channels, PrecoderSet(oracle_vectors, rho, "o"),
                      sigma_n2)
    got = sum_rate(channels, out2, sigma_n2)
    two_user_ok = abs(got - oracle) <= 0.02 * oracle

    power_ok = bool(np.all(out1.metadata["power"] <= rho + 1e-6)
                    and np.all(out2.metadata["power"] <= rho + 1e-6))

    ok = single_ok and two_user_ok and power_ok
    assert _verdict(4, "stochastic WMMSE sanity", ok)


def test_criterion_5_pilot_trend(fig3_sweep):
    """Observation-domain mixture feedback beats estimated-CSI codebooks."""
    ok = True
    for v_idx, n_pilots in enumerate(fig3_sweep.values):
        gmm_mean = fig3_sweep.means["gmm-obs"][v_idx]
        gmm_se = fig3_sweep.std_errors["gmm-obs"][v_idx]
        for other in ("dft:omp", "dft:lmmse"):
            other_mean = fig3_sweep.means[other][v_idx]
            other_se = fig3_sweep.std_errors[other][v_idx]
            pooled = np.hypot(gmm_se, other_se)
            margin = (gmm_mean - other_mean) / pooled
            print(f"  n_p={n_pilots}: gmm-obs vs {other}: "
                  f"{gmm_mean:.3f} vs {other_mean:.3f} "
                  f"(margin {margin:.1f} pooled SE)")
            ok &= margin > 2.0
    assert _verdict(5, "pilot-sweep ordering", ok)


def test_criterion_6_snr_point_hierarchy(desk_train, desk_eval, desk_model,
                                         desk_tmodel):
    """Generated-sample precoding beats directional, both beat codebooks."""
    config = ExperimentConfig.desk_profile(
        users=8, constellations=100, seed=2027, snr_db=(10.0,),
        schemes=("gmm-obs+swmmse", "gmm-obs+rci", "dft:gmm", "dft:tgmm",
                 "dft:lmmse", "dft:omp"))
    experiment = Experiment(config, train_dataset=desk_train,
                            eval_dataset=desk_eval,
                            models={("full", 4): desk_model,
                                    ("toeplitz", 4): desk_tmodel})
    result = run_sweep(experiment, "snr", values=[10.0])
    means = {tag: result.means[tag][0] for tag in result.schemes}
    ses = {tag: result.std_errors[tag][0] for tag in result.schemes}

    pooled = np.hypot(ses["gmm-obs+swmmse"], ses["gmm-obs+rci"])
    margin = (means["gmm-obs+swmmse"] - means["gmm-obs+rci"]) / pooled
    print(f"  swmmse {means['gmm-obs+swmmse']:.3f} vs "
          f"rci {means['gmm-obs+rci']:.3f} (margin {margin:.1f} pooled SE)")
    ok = margin > 1.0
    for tag in ("dft:gmm", "dft:tgmm", "dft:lmmse", "dft:omp"):
        print(f"  {tag}: {means[tag]:.3f}")
        ok &= means["gmm-obs+swmmse"] > means[tag]
        ok &= means["gmm-obs+rci"] > means[tag]
    assert _verdict(6, "SNR-point scheme hierarchy", ok)


def test_criterion_7_feedback_latency_independent_of_antennas():
    """Cached-observation feedback latency does not scale with N."""
    dims = {16: ArrayGeometry(2, 8), 64: ArrayGeometry(4, 16),
            256: ArrayGeometry(8, 32)}
    rng = np.random.default_rng(3)
    observations = {}
    for n, geometry in dims.items():
        model = _random_mixture(16, n, seed=n)
        setup = build_pilot_matrix(geometry, 8, sigma_n2=SNR_10_DB)
        observations[n] = project_to_observation(model, setup)
    ys = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))

    for obs in observations.values():  # warm up caches and JIT-free paths
        for y in ys[:8]:
            obs.responsibilities(y)

    rounds = 30
    calls = 200
    sizes, medians = [], []
    for _ in range(rounds):
        for n, obs in observations.items():
            times = np.empty(calls)
            for c in range(calls):
                y = ys[c % len(ys)]
                t0 = time.perf_counter()
                obs.responsibilities(y)
                times[c] = time.perf_counter() - t0
            sizes.append(n)
            medians.append(np.median(times))
    fit = stats.linregress(sizes, medians)
    half_width = stats.t.ppf(0.975, len(sizes) - 2) * fit.stderr
    ci = (fit.slope - half_width, fit.slope + half_width)
    print(f"  slope {fit.slope:.3e} s/antenna, 95% CI [{ci[0]:.3e}, "
          f"{ci[1]:.3e}], mean latency {np.mean(medians) * 1e6:.1f} us")
    ok = ci[0] <= 0.0 <= ci[1]
    assert _verdict(7, "feedback latency independent of antenna count", ok)


def test_criterion_8_sweep_determinism(tmp_path, fig3_config, fig3_sweep,
                                       desk_train, desk_eval, desk_model):
    """A re-run with the same config and seed is byte-identical."""
    rerun_experiment = Experiment(fig3_config, train_dataset=desk_train,
                                  eval_dataset=desk_eval,
                                  models={("full", 4): desk_model})
    rerun = run_sweep(rerun_experiment, "pilots", values=[2, 4, 8])
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(fig3_sweep, first)
    emit_csv(rerun, second)
    ok = first.read_bytes() == second.read_bytes()
    assert _verdict(8, "byte-identical sweep reruns", ok)
