import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular

from limfb import gmm
from limfb.feedback import PilotSetup, build_pilot_matrix
from limfb.formats import BadMagicError, TruncatedError
from limfb.gmm import (EmOptions, GmmModel, fit_em, load_model, log_density,
                       param_count, project_to_observation, sample_component,
                       sample_moments, save_model)
from limfb.scene import (ArrayGeometry, ChannelDataset, SceneConfig,
                         generate_channels, normalize_dataset)
from limfb.toeplitz import check_structure, realize_spectral, toeplitz_mstep


def _random_model(n_components, dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, n_components)
    weights /= weights.sum()
    means = scale * (rng.standard_normal((n_components, dim))
                     + 1j * rng.standard_normal((n_components, dim)))
    covs = np.empty((n_components, dim, dim), dtype=complex)
    for k in range(n_components):
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        covs[k] = raw @ raw.conj().T / dim + 0.1 * np.eye(dim)
    return GmmModel(weights, means, covs)


# -- densities ---------------------------------------------------------------

def test_log_density_unit_scalar_peak():
    assert abs(log_density(0.0, 0.0, 1.0) - (-np.log(np.pi))) < 1e-12


def test_log_density_determinant_scaling():
    s = 2.5
    expected = -np.log(np.pi) - np.log(s)
    assert abs(log_density(0.0, 0.0, s) - expected) < 1e-12


def test_log_density_matches_dense_oracle():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    cov = raw @ raw.conj().T + np.eye(3)
    mean = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    diff = x - mean
    quad = (diff.conj() @ np.linalg.inv(cov) @ diff).real
    oracle = -3 * np.log(np.pi) - np.log(np.linalg.det(cov).real) - quad
    assert abs(log_density(x, mean, cov) - oracle) < 1e-10


def test_log_density_rejects_non_pd():
    with pytest.raises(np.linalg.LinAlgError):
        log_density(np.zeros(2), np.zeros(2), -np.eye(2))


# -- responsibilities --------------------------------------------------------

def test_responsibilities_single_component():
    model = _random_model(1, 3, seed=1)
    x = np.ones(3) + 0j
    np.testing.assert_allclose(model.responsibilities(x), [1.0])


def test_responsibilities_identical_components_reduce_to_weights():
    rng = np.random.default_rng(2)
    mean = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    cov = np.eye(2) * 0.7
    model = GmmModel([0.3, 0.7], [mean, mean], [cov, cov])
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    np.testing.assert_allclose(model.responsibilities(x), [0.3, 0.7],
                               atol=1e-12)


def test_responsibilities_match_scalar_bayes_oracle():
    model = GmmModel([0.4, 0.6], [[0.0], [2.0]], [[[1.0]], [[2.0]]])
    x = np.array([1.0 + 0.5j])

    def scalar_density(x, mu, var):
        return np.exp(-abs(x - mu) ** 2 / var) / (np.pi * var)

    num = np.array([0.4 * scalar_density(x[0], 0.0, 1.0),
                    0.6 * scalar_density(x[0], 2.0, 2.0)])
    np.testing.assert_allclose(model.responsibilities(x), num / num.sum(),
                               rtol=1e-12)


def test_responsibilities_form_a_simplex():
    rng = np.random.default_rng(3)
    for n_comp in (1, 2, 16):
        model = _random_model(n_comp, 4, seed=n_comp)
        for _ in range(50):
            x = 10 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            r = model.responsibilities(x)
            assert abs(r.sum() - 1.0) < 1e-9
            assert np.all(r >= 0)


def test_responsibilities_invariant_to_common_score_scale():
    # multiplying every unnormalized score by a constant cancels in the
    # normalization; equivalent to shifting all log scores
    model = _random_model(4, 3, seed=4)
    x = np.ones(3) * (1 + 1j)
    scores = np.log(model.weights) + model.component_log_densities(x)
    shifted = scores + np.log(123.456)

    def softmax(s):
        e = np.exp(s - s.max())
        return e / e.sum()

    np.testing.assert_allclose(softmax(scores), softmax(shifted), rtol=1e-12)
    np.testing.assert_allclose(model.responsibilities(x), softmax(scores),
                               rtol=1e-9)
    assert np.argmax(softmax(shifted)) == np.argmax(model.responsibilities(x))


# -- EM ----------------------------------------------------------------------

def _toy_dataset(samples):
    arr = np.asarray(samples, dtype=complex)
    scale = np.sqrt(arr.shape[1] / np.mean(np.sum(np.abs(arr) ** 2, axis=1)))
    return ChannelDataset(arr * scale, normalized=True)


def test_fit_em_single_component_closed_form():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((400, 3)) + 1j * rng.standard_normal((400, 3))
    ds = normalize_dataset(ChannelDataset(x))
    model = fit_em(ds, 1, options=EmOptions(max_iters=5, seed=0))
    data = ds.samples.astype(complex)
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered.conj() / len(data)
    np.testing.assert_allclose(model.weights, [1.0])
    np.testing.assert_allclose(model.means[0], mean, atol=1e-10)
    np.testing.assert_allclose(model.covariances[0], cov, atol=1e-8)


def test_fit_em_recovers_separated_clusters():
    rng = np.random.default_rng(6)
    n_per, dim, std = 600, 4, 0.3
    mu_a = np.array([4.0, 0, 0, 0], dtype=complex)
    mu_b = np.array([0, 0, 0, -4.0], dtype=complex)
    noise = (rng.standard_normal((2 * n_per, dim))
             + 1j * rng.standard_normal((2 * n_per, dim))) * std / np.sqrt(2)
    x = np.concatenate([mu_a + noise[:n_per], mu_b + noise[n_per:]])
    scale = np.sqrt(dim / np.mean(np.sum(np.abs(x) ** 2, axis=1)))
    ds = ChannelDataset(x * scale, normalized=True)
    model = fit_em(ds, 2, options=EmOptions(max_iters=100, seed=1))
    targets = np.array([mu_a, mu_b]) * scale
    tol = 3 * std / np.sqrt(n_per)
    # match components to targets up to permutation
    dists = np.array([[np.linalg.norm(model.means[k] - targets[t])
                       for t in range(2)] for k in range(2)])
    best = min(dists[0, 0] + dists[1, 1], dists[0, 1] + dists[1, 0])
    assert best / 2 < tol


def test_fit_em_full_loglik_is_nondecreasing(desk_model):
    lls = np.asarray(desk_model.fit_log_likelihoods)
    assert len(lls) == 50
    assert np.all(np.diff(lls) >= -1e-8 * np.abs(lls[:-1]))


def test_fit_em_toeplitz_structure_and_stability(desk_tmodel, desk_geometry):
    for cov in desk_tmodel.covariances:
        assert check_structure(cov, desk_geometry)
    lls = np.asarray(desk_tmodel.fit_log_likelihoods)
    # approximate M-step: small decreases allowed, bounded at 1e-3 relative
    assert np.all(np.diff(lls) >= -1e-3 * np.abs(lls[:-1]))


def test_fit_em_is_deterministic(desk_train):
    opts = EmOptions(max_iters=5, seed=12)
    small = ChannelDataset(desk_train.samples[:1500], normalized=True)
    a = fit_em(small, 4, options=opts)
    b = fit_em(small, 4, options=opts)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.covariances, b.covariances)


def test_fit_em_reseeds_collapsed_components(caplog):
    # tight specular clusters make the structured M-step starve components;
    # collapse handling re-seeds them and the fit completes
    import logging

    from limfb.scene import ArrayGeometry, SceneConfig, generate_channels

    geom = ArrayGeometry(2, 8, 1.0, 0.5)
    scene = SceneConfig(geom, num_clusters=4, paths_per_cluster=2,
                        azimuth_spread=0.01, elevation_spread=0.005,
                        diffuse_power=0.02, seed=5)
    ds = normalize_dataset(generate_channels(scene, 600, sample_seed=8))
    with caplog.at_level(logging.WARNING, logger="limfb.gmm"):
        model = fit_em(ds, 8, constraint="toeplitz",
                       options=EmOptions(max_iters=20, seed=0))
    reseeds = [rec.args for rec in caplog.records
               if rec.getMessage().startswith("re-seeding")]
    assert reseeds
    assert abs(model.weights.sum() - 1.0) < 1e-12
    assert np.all(model.weights > 0)

    # stopped right after the first re-seeding M-step, every component it
    # re-seeded holds the projection of the global sample covariance
    first = reseeds[0][1]
    stopped = fit_em(ds, 8, constraint="toeplitz",
                     options=EmOptions(max_iters=first + 1, seed=0))
    x = ds.samples.astype(complex)
    _, global_cov = sample_moments(x)
    floor = gmm._FLOOR_SCALE * np.trace(global_cov).real / geom.n
    spectrum = toeplitz_mstep(global_cov, geom, floor=floor)
    for k in [k for k, it in reseeds if it == first]:
        np.testing.assert_array_equal(stopped.spectral[k], spectrum)
        np.testing.assert_array_equal(stopped.covariances[k],
                                      realize_spectral(spectrum, geom))
        assert np.any(np.all(x == stopped.means[k], axis=1))


def test_fit_em_validates_inputs(desk_train):
    unnormalized = ChannelDataset(desk_train.samples, normalized=False)
    with pytest.raises(ValueError):
        fit_em(unnormalized, 2)
    tiny = ChannelDataset(desk_train.samples[:3], normalized=True)
    with pytest.raises(ValueError):
        fit_em(tiny, 8)


# -- lifted EM pass ----------------------------------------------------------
# fit_em scores and accumulates through the second-order lift; these pin the
# lift, its packing and the EM step to direct per-sample evaluation.

def _complex_normal(rng, shape):
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _lifted(x):
    dim = x.shape[1]
    return gmm._lift(x, np.empty((len(x), dim * dim + 2 * dim + 1)))


def _conditioned_covariance(rng, dim, cond):
    """Random Hermitian PD matrix, trace N, condition number ``cond``."""
    basis, _ = np.linalg.qr(_complex_normal(rng, (dim, dim)))
    eigvals = np.logspace(0.0, -np.log10(cond), dim)
    eigvals *= dim / eigvals.sum()
    return (basis * eigvals) @ basis.conj().T


_SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(1, 7), rows=st.integers(1, 9), seed=_SEEDS)
def test_lift_packs_hermitian_quadratic_forms(dim, rows, seed):
    rng = np.random.default_rng(seed)
    raw = _complex_normal(rng, (dim, dim))
    herm = raw + raw.conj().T
    x = 3.0 * _complex_normal(rng, (rows, dim))
    phi = _lifted(x)
    quad = np.einsum("ri,ij,rj->r", x.conj(), herm, x).real
    scale = np.sum(np.abs(x) ** 2, axis=1) * np.abs(herm).max()
    assert np.all(np.abs(phi[:, :dim * dim] @ gmm._pack_hermitian(herm) - quad)
                  <= 1e-12 * scale)
    np.testing.assert_array_equal(phi[:, dim * dim:-1].view(complex), x)
    np.testing.assert_array_equal(phi[:, -1], 1.0)


# at these dimensions a chunk holds _EM_CHUNK rows; the sample counts
# straddle its multiples
@settings(max_examples=20, deadline=None)
@given(dim=st.integers(1, 4), n_comp=st.integers(1, 4),
       n_samples=st.sampled_from([1, 7, gmm._EM_CHUNK - 1, gmm._EM_CHUNK,
                                  gmm._EM_CHUNK + 1, 2 * gmm._EM_CHUNK + 37]),
       seed=_SEEDS)
def test_lift_sums_unpack_to_weighted_moments(dim, n_comp, n_samples, seed):
    rng = np.random.default_rng(seed)
    model = _random_model(n_comp, dim, seed=seed)
    x = 2.0 * _complex_normal(rng, (n_samples, dim))
    score_matrix = gmm._score_matrix(model.weights, model.means,
                                     *gmm._inverse_factors(model.covariances))
    log_norm, sums = gmm._em_pass(x, score_matrix)

    # direct evaluation: per-component densities and weighted scatters
    scores = np.log(model.weights) + np.array(
        [model.component_log_densities(row) for row in x])
    resp = np.exp(scores - log_norm[:, None])
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=1e-10)
    mass = resp.sum(axis=0)
    n_quad = dim * dim
    np.testing.assert_allclose(sums[:, -1], mass, rtol=1e-10)
    means = sums[:, n_quad:-1].view(complex) / mass[:, None]
    second = gmm._unpack_second_moments(sums[:, :n_quad], dim)
    for k in range(n_comp):
        direct_mean = resp[:, k] @ x / mass[k]
        diff = x - direct_mean
        direct_scatter = (resp[:, k] * diff.T) @ diff.conj() / mass[k]
        scatter = second[k] / mass[k] - np.outer(means[k], means[k].conj())
        np.testing.assert_allclose(means[k], direct_mean, rtol=1e-10,
                                   atol=1e-10)
        # the moment form E[x x^H] - mu mu^H is exact up to rounding of
        # E[x x^H], which sets the absolute scale
        np.testing.assert_allclose(scatter, direct_scatter, rtol=1e-10,
                                   atol=1e-10 * np.abs(second[k]).max()
                                   / mass[k])


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(1, 8), log_cond=st.floats(0.0, 6.0), seed=_SEEDS)
def test_lifted_scores_match_log_density(dim, log_cond, seed):
    # condition numbers up to 1e6 are the regime of the covariance floor
    rng = np.random.default_rng(seed)
    weights = np.array([0.3, 0.7])
    means = 2.0 * _complex_normal(rng, (2, dim))
    covs = np.array([_conditioned_covariance(rng, dim, 10.0 ** log_cond)
                     for _ in range(2)])
    score_matrix = gmm._score_matrix(weights, means,
                                     *gmm._inverse_factors(covs))
    # points drawn from the first component and unit-power points
    near = means[0] + _complex_normal(rng, (3, dim)) @ np.linalg.cholesky(
        covs[0]).T
    x = np.concatenate([near, _complex_normal(rng, (3, dim))])
    got = _lifted(x) @ score_matrix
    for j, row in enumerate(x):
        for k in range(2):
            ref = np.log(weights[k]) + log_density(row, means[k], covs[k])
            assert abs(got[j, k] - ref) <= 1e-9 * max(1.0, abs(ref))


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(1, 8), n_comp=st.integers(1, 4),
       log_cond=st.floats(0.0, 8.0), seed=_SEEDS)
def test_inverse_factors_match_per_matrix_triangular_solve(dim, n_comp,
                                                           log_cond, seed):
    # fitted models and their log-likelihood traces are pinned to the
    # rounding of cholesky + solve_triangular; the stacked factors, and the
    # precisions EM scores with, must reproduce it bit for bit
    rng = np.random.default_rng(seed)
    weights = np.full(n_comp, 1.0 / n_comp)
    means = _complex_normal(rng, (n_comp, dim))
    covs = np.array([_conditioned_covariance(rng, dim, 10.0 ** log_cond)
                     for _ in range(n_comp)])
    inv_chols, logdets = gmm._inverse_factors(covs)
    precisions = np.empty_like(covs)
    for k, cov in enumerate(covs):
        chol = cholesky(cov, lower=True)
        inv_chol = solve_triangular(chol, np.eye(dim), lower=True)
        np.testing.assert_array_equal(inv_chols[k], inv_chol)
        assert logdets[k] == 2.0 * np.sum(np.log(np.diag(chol).real))
        precisions[k] = inv_chol.conj().T @ inv_chol
    score_matrix = gmm._score_matrix(weights, means, inv_chols, logdets)
    np.testing.assert_array_equal(score_matrix[:dim * dim].T,
                                  -gmm._pack_hermitian(precisions))


def _naive_em_step(x, n_comp, constraint, geometry, options):
    """One EM iteration from fit_em's initialisation, scored per sample."""
    rng = np.random.default_rng(options.seed)
    means = x[_exact_kmeanspp_indices(x, n_comp, rng)]
    mean = x.mean(axis=0)
    global_cov = (x - mean).T @ (x - mean).conj() / len(x)
    floor = gmm._FLOOR_SCALE * np.trace(global_cov).real / x.shape[1]

    def project(scatter):
        if constraint == "toeplitz":
            return realize_spectral(
                toeplitz_mstep(scatter, geometry, floor=floor), geometry)
        eigvals, eigvecs = np.linalg.eigh(0.5 * (scatter + scatter.conj().T))
        return (eigvecs * np.maximum(eigvals, floor)) @ eigvecs.conj().T

    cov = project(global_cov)
    scores = np.array([[np.log(1.0 / n_comp) + log_density(row, mu, cov)
                        for mu in means] for row in x])
    log_norm = np.logaddexp.reduce(scores, axis=1)
    resp = np.exp(scores - log_norm[:, None])
    mass = resp.sum(axis=0)
    new_means = resp.T @ x / mass[:, None]
    covs = []
    for k in range(n_comp):
        diff = x - new_means[k]
        covs.append(project((resp[:, k] * diff.T) @ diff.conj() / mass[k]))
    return log_norm.mean(), mass / len(x), new_means, np.array(covs)


@pytest.mark.parametrize("constraint", ["full", "toeplitz"])
def test_fit_em_iteration_matches_naive_em_step(constraint):
    geometry = ArrayGeometry(2, 2)
    scene = SceneConfig(geometry, seed=3)
    ds = normalize_dataset(generate_channels(scene, 300, sample_seed=4))
    options = EmOptions(max_iters=1, rel_loglik_tol=0.0, seed=5)
    model = fit_em(ds, 3, constraint, options, geometry=geometry)
    x = ds.samples.astype(complex)
    avg_ll, weights, means, covs = _naive_em_step(x, 3, constraint, geometry,
                                                  options)
    assert abs(model.fit_log_likelihoods[0] - avg_ll) <= 1e-10 * abs(avg_ll)
    np.testing.assert_allclose(model.weights, weights, rtol=1e-10)
    np.testing.assert_allclose(model.means, means, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(model.covariances, covs, rtol=1e-10,
                               atol=1e-10 * np.abs(covs).max())


def _exact_kmeanspp_indices(x, n_components, rng):
    """k-means++ seeding on directly computed squared distances."""
    chosen = [int(rng.integers(len(x)))]
    dist_sq = np.sum(np.abs(x - x[chosen[0]]) ** 2, axis=1)
    for _ in range(n_components - 1):
        idx = int(rng.choice(len(x), p=dist_sq / dist_sq.sum()))
        chosen.append(idx)
        dist_sq = np.minimum(dist_sq, np.sum(np.abs(x - x[idx]) ** 2, axis=1))
    return chosen


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_kmeanspp_matches_exact_distance_seeding(desk_train, seed):
    x = desk_train.samples[:3000].astype(complex)
    got = gmm._kmeanspp_indices(x, 16, np.random.default_rng(seed))
    assert got == _exact_kmeanspp_indices(x, 16, np.random.default_rng(seed))


def test_fit_em_logs_each_iteration(caplog):
    import logging

    rng = np.random.default_rng(20)
    ds = normalize_dataset(ChannelDataset(_complex_normal(rng, (200, 3))))
    with caplog.at_level(logging.INFO, logger="limfb.gmm"):
        model = fit_em(ds, 2, options=EmOptions(max_iters=4, seed=0))
    lines = [rec.getMessage() for rec in caplog.records
             if rec.message.startswith("EM iteration")]
    assert len(lines) == len(model.fit_log_likelihoods) == 4
    assert "re-seeded" in lines[-1]


def test_sample_moments_match_definition():
    rng = np.random.default_rng(21)
    x = _complex_normal(rng, (50, 3)) + 1.0
    mean, cov = sample_moments(x.astype(np.complex64))
    ref = x.astype(np.complex64).astype(complex)
    np.testing.assert_array_equal(mean, ref.mean(axis=0))
    centered = ref - ref.mean(axis=0)
    np.testing.assert_array_equal(cov, centered.T @ centered.conj() / 50)


# -- observation domain ------------------------------------------------------

def test_identity_pilot_matches_channel_model(desk_geometry):
    model = _random_model(3, desk_geometry.n, seed=7)
    eye_setup = PilotSetup(np.eye(desk_geometry.n), 1.0, 0.0)
    obs = project_to_observation(model, eye_setup)
    x = np.ones(desk_geometry.n) * (0.3 - 0.1j)
    np.testing.assert_allclose(obs.responsibilities(x),
                               model.responsibilities(x), rtol=1e-9)


def test_single_pilot_row_variance():
    model = GmmModel([1.0], np.zeros((1, 4)), [np.eye(4)])
    rng = np.random.default_rng(8)
    row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    row *= np.sqrt(1.0 / np.sum(np.abs(row) ** 2))
    setup = PilotSetup(row[None, :], 1.0, 0.25)
    obs = project_to_observation(model, setup)
    expected = np.sum(np.abs(row) ** 2) + 0.25
    np.testing.assert_allclose(obs.covariances[0], [[expected]], rtol=1e-12)


def test_projection_matches_dense_oracle():
    model = _random_model(2, 4, seed=9)
    rng = np.random.default_rng(9)
    pilot = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    pilot /= np.linalg.norm(pilot, axis=1, keepdims=True)
    setup = PilotSetup(pilot, 1.0, 0.3)
    obs = project_to_observation(model, setup)
    for k in range(2):
        oracle = pilot @ model.covariances[k] @ pilot.conj().T + 0.3 * np.eye(2)
        np.testing.assert_allclose(obs.covariances[k], oracle, rtol=1e-12)
        np.testing.assert_allclose(obs.means[k], pilot @ model.means[k],
                                   rtol=1e-12)


def test_projection_requires_pd_at_zero_noise():
    # rank-deficient channel covariance makes P C P^H singular at sigma=0
    model = GmmModel([1.0], np.zeros((1, 4)),
                     [np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)])
    setup = build_pilot_matrix(ArrayGeometry(2, 2), 2, sigma_n2=0.0)
    with pytest.raises(ValueError, match="sigma_n2"):
        project_to_observation(model, setup)


def test_single_component_observation_responsibility(desk_geometry):
    model = _random_model(1, desk_geometry.n, seed=10)
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.5)
    obs = project_to_observation(model, setup)
    rng = np.random.default_rng(10)
    for _ in range(10):
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_allclose(obs.responsibilities(y), [1.0])


# -- batched scoring ---------------------------------------------------------
# GmmModel and ObservationGmm score a (J, d) batch against the stacked
# (K, d, d) factors; the per-row triangular solve of _log_gaussian_batch is
# the reference.

def _conditioned_mixtures(rng, n_comp, dim, cond):
    weights = rng.uniform(0.5, 1.5, n_comp)
    weights /= weights.sum()
    means = 2.0 * _complex_normal(rng, (n_comp, dim))
    covs = np.array([_conditioned_covariance(rng, dim, cond)
                     for _ in range(n_comp)])
    return (GmmModel(weights, means, covs),
            gmm.ObservationGmm(weights, means, covs))


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(1, 8), n_comp=st.integers(1, 5),
       rows=st.integers(1, 6), log_cond=st.floats(0.0, 6.0), seed=_SEEDS)
def test_batched_scores_match_per_row_oracle(dim, n_comp, rows, log_cond,
                                             seed):
    rng = np.random.default_rng(seed)
    model, obs = _conditioned_mixtures(rng, n_comp, dim, 10.0 ** log_cond)
    near = model.means[0] + _complex_normal(rng, (rows, dim)) @ np.linalg.cholesky(
        model.covariances[0]).T
    x = np.concatenate([near, 3.0 * _complex_normal(rng, (rows, dim))])
    ref = np.empty((len(x), n_comp))
    for k in range(n_comp):
        chol, logdet = gmm._chol_logdet(model.covariances[k])
        ref[:, k] = gmm._log_gaussian_batch(x, model.means[k], chol, logdet)
    bound = 1e-9 * np.maximum(1.0, np.abs(ref))
    for mixture in (model, obs):
        got = mixture.component_log_densities(x)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= bound)
        single = np.array([mixture.component_log_densities(row) for row in x])
        assert np.all(np.abs(single - ref) <= bound)


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(1, 6), n_comp=st.integers(1, 6),
       rows=st.integers(1, 5), seed=_SEEDS)
def test_batched_responsibilities_are_permutation_equivariant(dim, n_comp,
                                                              rows, seed):
    rng = np.random.default_rng(seed)
    model, obs = _conditioned_mixtures(rng, n_comp, dim, 100.0)
    perm = rng.permutation(n_comp)
    x = 3.0 * _complex_normal(rng, (rows, dim))
    for mixture, cls in ((model, GmmModel), (obs, gmm.ObservationGmm)):
        permuted = cls(mixture.weights[perm], mixture.means[perm],
                       mixture.covariances[perm])
        resp = mixture.responsibilities(x)
        assert resp.shape == (rows, n_comp) and np.all(resp >= 0)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(permuted.log_responsibilities(x),
                                   mixture.log_responsibilities(x)[:, perm],
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(mixture.responsibilities(x[0]), resp[0],
                                   rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("shape", [(2, 3, 4), (5,), (3, 5), (1, 3)])
def test_scoring_rejects_wrong_shapes(shape):
    model = _random_model(3, 4, seed=11)
    obs = gmm.ObservationGmm(model.weights, model.means, model.covariances)
    for mixture in (model, obs):
        with pytest.raises(ValueError, match="dimension 4"):
            mixture.log_responsibilities(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_scoring_rejects_non_finite_input(value):
    model = _random_model(3, 4, seed=12)
    obs = gmm.ObservationGmm(model.weights, model.means, model.covariances)
    x = np.ones((3, 4), dtype=complex)
    x[1, 2] = value
    for mixture in (model, obs):
        with pytest.raises(ValueError, match="infs or NaNs"):
            mixture.log_responsibilities(x)
        with pytest.raises(ValueError, match="infs or NaNs"):
            mixture.log_responsibilities(x[1])


def test_projection_stores_lmmse_filters():
    model = _random_model(3, 6, seed=13)
    rng = np.random.default_rng(13)
    pilot = _complex_normal(rng, (2, 6))
    pilot /= np.linalg.norm(pilot, axis=1, keepdims=True)
    obs = project_to_observation(model, PilotSetup(pilot, 1.0, 0.2))
    assert obs.filters.shape == (3, 6, 2)
    for k in range(3):
        oracle = model.covariances[k] @ pilot.conj().T @ np.linalg.inv(
            obs.covariances[k])
        np.testing.assert_allclose(obs.filters[k], oracle, rtol=1e-10)


# -- sampling ----------------------------------------------------------------

def test_sampling_degenerate_covariance_returns_mean():
    mean = np.array([1.0 + 2.0j, -0.5j, 0.25, 1.0])
    model = GmmModel([1.0], [mean], [1e-12 * np.eye(4)])
    draws = sample_component(model, 1, 100, seed=0)
    assert np.max(np.abs(draws - mean)) < 1e-5


def test_sampling_is_deterministic():
    model = _random_model(2, 3, seed=11)
    a = sample_component(model, 2, 50, seed=4)
    b = sample_component(model, 2, 50, seed=4)
    assert np.array_equal(a, b)


def test_sampling_moments():
    model = _random_model(1, 4, seed=12)
    count = 100_000
    draws = sample_component(model, 1, count, seed=5)
    mean_err = np.linalg.norm(draws.mean(axis=0) - model.means[0])
    assert mean_err < 5.0 / np.sqrt(count) * np.sqrt(
        np.trace(model.covariances[0]).real)
    centered = draws - draws.mean(axis=0)
    emp = centered.T @ centered.conj() / count
    rel = np.linalg.norm(emp - model.covariances[0]) \
        / np.linalg.norm(model.covariances[0])
    assert rel < 0.05


def test_sampling_falls_back_to_eigen_root(caplog):
    import logging

    # rank-one covariance: Cholesky fails, eigen square root takes over and
    # all draws stay in the span of the single eigenvector
    direction = np.array([1.0, 1j, -1.0, 0.5]) / np.sqrt(3.25)
    cov = np.outer(direction, direction.conj())
    model = GmmModel([1.0], [np.zeros(4)], [cov])
    with caplog.at_level(logging.WARNING, logger="limfb.gmm"):
        draws = sample_component(model, 1, 200, seed=1)
    assert any("eigen" in rec.message for rec in caplog.records)
    projector = np.eye(4) - np.outer(direction, direction.conj())
    # leakage out of the span is sqrt(clipped eigenvalue noise) ~ 1e-8
    assert np.max(np.abs(draws @ projector.T)) < 1e-6


def test_component_sqrt_fallback_logs_exact_message(caplog):
    import logging

    # the benchmark tracer counts fallbacks by this message
    cov = np.diag([1.0, -1e-3, 2.0]).astype(complex)
    with caplog.at_level(logging.WARNING, logger="limfb.gmm"):
        root = gmm._component_sqrt(cov)
    assert [rec.getMessage() for rec in caplog.records] == [
        "covariance Cholesky failed; using clipped eigen square root"]
    np.testing.assert_allclose(root @ root.conj().T,
                               np.diag([1.0, 0.0, 2.0]), atol=1e-12)


def test_component_sqrt_rejects_non_finite_covariance(caplog):
    import logging

    cov = np.eye(3, dtype=complex)
    cov[1, 1] = np.nan
    with caplog.at_level(logging.WARNING, logger="limfb.gmm"):
        with pytest.raises(ValueError):
            gmm._component_sqrt(cov)
    assert not caplog.records


def test_sampling_validates_component_index():
    model = _random_model(2, 3, seed=13)
    with pytest.raises(ValueError):
        sample_component(model, 0, 1, seed=0)
    with pytest.raises(ValueError):
        sample_component(model, 3, 1, seed=0)


# -- parameter counting and serialization ------------------------------------

def test_param_count_table_values():
    assert param_count(16, 64, "full") == 33_280
    assert param_count(64, 64, "full") == 133_120
    assert param_count(256, 64, "full") == 532_480
    assert param_count(16, 64, "toeplitz") == 4_096
    assert param_count(64, 64, "toeplitz") == 16_384
    assert param_count(256, 64, "toeplitz") == 65_536


def test_param_count_matches_serialized_scalars(tmp_path, desk_geometry):
    n_comp, dim = 4, desk_geometry.n
    model = _random_model(n_comp, dim, seed=14)
    path = tmp_path / "model.lfbm"
    save_model(model, path)
    header = 4 + struct.calcsize("<HBIB")
    per_comp = path.stat().st_size - header
    cov_bytes = per_comp - n_comp * (8 + 16 * dim)
    assert cov_bytes // 16 == param_count(n_comp, dim, "full")

    spectral = np.random.default_rng(0).uniform(0.1, 1.0, (n_comp, 4 * dim))
    from limfb.toeplitz import realize_spectral
    covs = np.array([realize_spectral(c, desk_geometry) for c in spectral])
    tmodel = GmmModel(model.weights, model.means, covs, constraint="toeplitz",
                      spectral=spectral, geometry=desk_geometry)
    tpath = tmp_path / "tmodel.lfbm"
    save_model(tmodel, tpath)
    cov_bytes = tpath.stat().st_size - header - n_comp * (8 + 16 * dim)
    assert cov_bytes // 8 == param_count(n_comp, dim, "toeplitz")


def test_model_roundtrip_full(tmp_path):
    model = _random_model(4, 5, seed=15)
    path = tmp_path / "m.lfbm"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    np.testing.assert_array_equal(loaded.means, model.means)
    np.testing.assert_allclose(loaded.covariances, model.covariances,
                               atol=1e-15)
    assert loaded.constraint == "full"


def test_model_roundtrip_toeplitz(tmp_path, desk_tmodel, desk_geometry):
    path = tmp_path / "t.lfbm"
    save_model(desk_tmodel, path)
    with pytest.raises(ValueError, match="geometry"):
        load_model(path)
    loaded = load_model(path, geometry=desk_geometry)
    np.testing.assert_array_equal(loaded.spectral, desk_tmodel.spectral)
    np.testing.assert_allclose(loaded.covariances, desk_tmodel.covariances,
                               atol=1e-12)


def test_model_requires_power_of_two_components(tmp_path):
    model = _random_model(3, 2, seed=16)
    with pytest.raises(ValueError):
        save_model(model, tmp_path / "bad.lfbm")


def test_model_bad_magic(tmp_path):
    path = tmp_path / "x.lfbm"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        load_model(path)


def test_model_truncation_detected(tmp_path):
    from limfb.formats import TruncatedError
    model = _random_model(4, 3, seed=17)
    path = tmp_path / "m.lfbm"
    save_model(model, path)
    clipped = tmp_path / "clipped.lfbm"
    clipped.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(TruncatedError):
        load_model(clipped)


def test_model_validation(desk_geometry):
    with pytest.raises(ValueError):
        GmmModel([0.5, 0.6], np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
    with pytest.raises(ValueError):
        GmmModel([1.0], np.zeros((1, 2)), [np.eye(2)], constraint="toeplitz")
    eyes = np.stack([np.eye(2, dtype=complex)] * 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            GmmModel([bad, 0.5], np.zeros((2, 2)), eyes)
        means = np.zeros((2, 2), dtype=complex)
        means[1, 0] = complex(0.0, bad)
        with pytest.raises(ValueError):
            GmmModel([0.5, 0.5], means, eyes)
        covs = eyes.copy()
        covs[0, 0, 1] = bad
        with pytest.raises(ValueError):
            GmmModel([0.5, 0.5], np.zeros((2, 2)), covs)
        spectral = np.ones((1, 4 * desk_geometry.n))
        covs = [realize_spectral(spectral[0], desk_geometry)]
        spectral[0, 3] = bad
        with pytest.raises(ValueError):
            GmmModel([1.0], np.zeros((1, desk_geometry.n)), covs,
                     constraint="toeplitz", spectral=spectral,
                     geometry=desk_geometry)


def _packed_model(model, bits, flag):
    """The LFBM bytes of ``model``, packed field by field with struct."""
    dim = model.dim
    out = gmm.MODEL_MAGIC + struct.pack("<HBIB", gmm.MODEL_VERSION, bits, dim,
                                        flag)
    rows, cols = np.triu_indices(dim)
    for k in range(model.n_components):
        out += struct.pack("<d", model.weights[k])
        out += struct.pack(f"<{2 * dim}d", *model.means[k].view(float))
        if flag == 0:
            tri = model.covariances[k][rows, cols]
            out += struct.pack(f"<{2 * len(tri)}d", *tri.view(float))
        else:
            out += struct.pack(f"<{4 * dim}d", *model.spectral[k])
    return out


def test_save_model_writes_the_documented_layout(tmp_path, desk_geometry):
    model = _random_model(4, 3, seed=21)
    save_model(model, tmp_path / "full.lfbm")
    assert (tmp_path / "full.lfbm").read_bytes() == _packed_model(model, 2, 0)
    spectral = np.random.default_rng(22).uniform(0.1, 1.0, (2, 64))
    tmodel = GmmModel([0.25, 0.75], model.means[:2, :1].repeat(16, axis=1),
                      [realize_spectral(c, desk_geometry) for c in spectral],
                      constraint="toeplitz", spectral=spectral,
                      geometry=desk_geometry)
    save_model(tmodel, tmp_path / "toeplitz.lfbm")
    assert ((tmp_path / "toeplitz.lfbm").read_bytes()
            == _packed_model(tmodel, 1, 1))


def test_load_model_refuses_a_count_beyond_the_file(tmp_path):
    # B = 60 declares 2^60 components; the file holds one
    model = _random_model(1, 2, seed=23)
    raw = _packed_model(model, 0, 0)
    path = tmp_path / "huge.lfbm"
    path.write_bytes(raw[:6] + bytes([60]) + raw[7:])
    with pytest.raises(TruncatedError, match="expected"):
        load_model(path)


def test_load_model_rejects_nan_weight(tmp_path):
    # hand-written LFBM container: K = 2^1 full components of dimension 2,
    # each a weight, a mean and the upper triangle of an identity covariance
    tri = np.array([1.0, 0.0, 1.0], dtype="<c16").tobytes()
    payload = b"".join(struct.pack("<d", weight)
                       + np.zeros(2, dtype="<c16").tobytes() + tri
                       for weight in (np.nan, 1.0))
    path = tmp_path / "nan.lfbm"
    path.write_bytes(gmm.MODEL_MAGIC + struct.pack("<HBIB", gmm.MODEL_VERSION,
                                                   1, 2, 0) + payload)
    with pytest.raises(ValueError, match="positive"):
        load_model(path)
