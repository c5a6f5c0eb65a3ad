import logging
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular
from scipy.special import logsumexp

from limfb import gmm
from limfb.feedback import PilotSetup, build_pilot_matrix
from limfb.formats import BadMagicError, TruncatedError
from limfb.gmm import (EmOptions, GmmModel, fit_em, load_model, param_count,
                       project_to_observation, sample_moments, save_model)
from limfb.scene import (ArrayGeometry, ChannelDataset, SceneConfig,
                         generate_channels, normalize_dataset)
from limfb.toeplitz import check_structure, realize_spectral, toeplitz_start

from gmm_oracle import (_chol_logdet, _log_gaussian_batch,
                        blocked_sample_moments, log_density, sample_component)
from scene_oracle import reference_save_model
from toeplitz_oracle import (dense_dictionary, reference_ascent_step,
                             reference_start)


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
    scores = np.log(model.weights) + np.array(
        [log_density(x, mean, cov)
         for mean, cov in zip(model.means, model.covariances)])
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
    # the M-step is an ascent step: the trace falls by rounding at most
    assert np.all(np.diff(lls) >= -1e-8 * np.abs(lls[:-1]))


def test_fit_em_is_deterministic(desk_train):
    opts = EmOptions(max_iters=5, seed=12)
    small = ChannelDataset(desk_train.samples[:1500], normalized=True)
    a = fit_em(small, 4, options=opts)
    b = fit_em(small, 4, options=opts)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.covariances, b.covariances)


def _collapse_scene():
    """Tight specular clusters on which Toeplitz fits starve components."""
    geom = ArrayGeometry(2, 8, 1.0, 0.5)
    scene = SceneConfig(geom, num_clusters=4, paths_per_cluster=2,
                        azimuth_spread=0.01, elevation_spread=0.005,
                        diffuse_power=0.02, seed=5)
    return geom, normalize_dataset(generate_channels(scene, 600,
                                                     sample_seed=8))


def _reseeds(records):
    """(component, iteration) of every re-seed warning."""
    return [rec.args for rec in records
            if rec.getMessage().startswith("re-seeding")]


def test_fit_em_reseeds_collapsed_components(caplog, monkeypatch):
    # a collapse weight of 0.1 makes components of the collapse scene
    # collapse at once; each restarts at a training sample with the start
    # spectrum, the block-Toeplitz fit of the global sample covariance
    import logging

    geom, ds = _collapse_scene()
    monkeypatch.setattr(gmm, "_COLLAPSE_WEIGHT", 0.1)
    with caplog.at_level(logging.WARNING, logger="limfb.gmm"):
        model = fit_em(ds, 8, constraint="toeplitz",
                       options=EmOptions(max_iters=20, seed=0))
    reseeds = _reseeds(caplog.records)
    assert reseeds
    assert abs(model.weights.sum() - 1.0) < 1e-12
    assert np.all(model.weights > 0)

    first = reseeds[0][1]
    stopped = fit_em(ds, 8, constraint="toeplitz",
                     options=EmOptions(max_iters=first + 1, seed=0))
    x = ds.samples.astype(complex)
    _, global_cov = sample_moments(x)
    floor = gmm._FLOOR_SCALE * np.trace(global_cov).real / geom.n
    spectrum, _ = toeplitz_start(global_cov, geom, floor=floor)
    for k in [k for k, it in reseeds if it == first]:
        np.testing.assert_array_equal(stopped.spectral[k], spectrum)
        np.testing.assert_array_equal(stopped.covariances[k],
                                      realize_spectral(spectrum, geom))
        assert np.any(np.all(x == stopped.means[k], axis=1))


def test_toeplitz_fit_of_the_collapse_scene_never_reseeds(caplog):
    # the Frobenius projection this M-step replaced starved components
    # here: 28 re-seeds and a trace that fell to -35,260
    import logging

    _, ds = _collapse_scene()
    with caplog.at_level(logging.WARNING, logger="limfb.gmm"):
        model = fit_em(ds, 8, constraint="toeplitz",
                       options=EmOptions(max_iters=20, seed=0))
    assert _reseeds(caplog.records) == []
    lls = np.asarray(model.fit_log_likelihoods)
    assert len(lls) == 20
    assert np.all(np.diff(lls) >= -1e-8 * np.abs(lls[:-1]))
    assert lls[-1] > 0.0


class _ReseedLog(logging.Handler):
    """Iterations whose M-step re-seeded a component."""

    def __init__(self):
        super().__init__()
        self.iterations = set()

    def emit(self, record):
        if record.getMessage().startswith("re-seeding"):
            self.iterations.add(record.args[1])


@settings(max_examples=30, deadline=None)
@given(n_vert=st.integers(1, 2), n_horiz=st.integers(1, 4),
       n_samples=st.integers(20, 300), n_comp=st.integers(1, 6),
       spread=st.floats(0.002, 0.2), diffuse=st.floats(0.01, 0.5),
       seed=st.integers(0, 1000))
def test_toeplitz_fit_trace_never_falls_except_at_a_reseed(
        n_vert, n_horiz, n_samples, n_comp, spread, diffuse, seed):
    geom = ArrayGeometry(n_vert, n_horiz)
    scene = SceneConfig(geom, num_clusters=3, paths_per_cluster=2,
                        azimuth_spread=spread, elevation_spread=spread / 2,
                        diffuse_power=diffuse, seed=seed)
    ds = normalize_dataset(generate_channels(scene, n_samples,
                                             sample_seed=seed + 1))
    handler = _ReseedLog()
    logger = logging.getLogger("limfb.gmm")
    logger.addHandler(handler)
    try:
        model = fit_em(ds, n_comp, "toeplitz", EmOptions(
            max_iters=8, rel_loglik_tol=0.0, seed=seed), geometry=geom)
    finally:
        logger.removeHandler(handler)
    lls = np.asarray(model.fit_log_likelihoods)
    for it in np.flatnonzero(np.diff(lls) < -1e-10 * np.abs(lls[:-1])):
        assert it in handler.iterations  # M-step `it` set lls[it + 1]


def test_fit_em_validates_inputs(desk_train):
    unnormalized = ChannelDataset(desk_train.samples, normalized=False)
    with pytest.raises(ValueError):
        fit_em(unnormalized, 2)
    tiny = ChannelDataset(desk_train.samples[:3], normalized=True)
    with pytest.raises(ValueError):
        fit_em(tiny, 8)


@pytest.mark.parametrize("n_components", [0, -2, 0.5, 3.0, "4", None])
def test_fit_em_rejects_a_component_count_that_is_not_a_positive_integer(
        desk_train, n_components):
    small = ChannelDataset(desk_train.samples[:50], normalized=True)
    with pytest.raises(ValueError, match="n_components must be an integer"):
        fit_em(small, n_components)


def test_fit_em_accepts_a_numpy_integer_component_count(desk_train):
    small = ChannelDataset(desk_train.samples[:50], normalized=True)
    model = fit_em(small, np.int64(2), options=EmOptions(max_iters=1))
    assert model.n_components == 2


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
_CHUNK_COUNTS = st.sampled_from([1, 7, gmm._EM_CHUNK - 1, gmm._EM_CHUNK,
                                 gmm._EM_CHUNK + 1, 2 * gmm._EM_CHUNK + 37])


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(1, 4), n_comp=st.integers(1, 4),
       n_samples=_CHUNK_COUNTS, seed=_SEEDS)
def test_lift_sums_unpack_to_weighted_moments(dim, n_comp, n_samples, seed):
    rng = np.random.default_rng(seed)
    model = _random_model(n_comp, dim, seed=seed)
    x = 2.0 * _complex_normal(rng, (n_samples, dim))
    inv_chols, logdets = gmm._inverse_factors(model.covariances)
    score_matrix = gmm._score_matrix(model.weights, model.means,
                                     gmm._precisions(inv_chols), logdets)
    log_norm, sums = gmm._em_pass(x, score_matrix)

    # direct evaluation: per-component oracle densities, the mixture's
    # responsibilities and the weighted scatters
    scores = np.log(model.weights) + np.column_stack(
        [_log_gaussian_batch(x, mean, *_chol_logdet(cov))
         for mean, cov in zip(model.means, model.covariances)])
    np.testing.assert_allclose(np.exp(scores - log_norm[:, None]).sum(axis=1),
                               1.0, rtol=1e-10)
    resp = model.responsibilities(x)
    np.testing.assert_allclose(
        resp, np.exp(scores - logsumexp(scores, axis=1, keepdims=True)),
        rtol=1e-10, atol=1e-300)
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


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(1, 4), n_comp=st.integers(1, 4),
       n_samples=_CHUNK_COUNTS, seed=_SEEDS)
def test_em_pass_on_complex64_rows_equals_their_upcast(dim, n_comp, n_samples,
                                                       seed):
    # fit_em passes the dataset's complex64 rows and reuses its buffers
    rng = np.random.default_rng(seed)
    model = _random_model(n_comp, dim, seed=seed)
    rows = (2.0 * _complex_normal(rng, (n_samples, dim))).astype(np.complex64)
    inv_chols, logdets = gmm._inverse_factors(model.covariances)
    score_matrix = gmm._score_matrix(model.weights, model.means,
                                     gmm._precisions(inv_chols), logdets)
    expected = gmm._em_pass(rows.astype(complex), score_matrix)
    buffers = gmm._em_buffers(n_samples, dim)
    for _ in range(2):  # the second pass starts from dirty buffers
        got = gmm._em_pass(rows, score_matrix, buffers)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(1, 8), log_cond=st.floats(0.0, 6.0), seed=_SEEDS)
def test_lifted_scores_match_log_density(dim, log_cond, seed):
    # condition numbers up to 1e6 are the regime of the covariance floor
    rng = np.random.default_rng(seed)
    weights = np.array([0.3, 0.7])
    means = 2.0 * _complex_normal(rng, (2, dim))
    covs = np.array([_conditioned_covariance(rng, dim, 10.0 ** log_cond)
                     for _ in range(2)])
    inv_chols, logdets = gmm._inverse_factors(covs)
    score_matrix = gmm._score_matrix(weights, means,
                                     gmm._precisions(inv_chols), logdets)
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
    score_matrix = gmm._score_matrix(weights, means,
                                     gmm._precisions(inv_chols), logdets)
    np.testing.assert_array_equal(score_matrix[:dim * dim].T,
                                  -gmm._pack_hermitian(precisions))


def _naive_em_step(x, n_comp, constraint, geometry, options):
    """One EM iteration from fit_em's initialisation, scored per sample."""
    rng = np.random.default_rng(options.seed)
    means = x[_exact_kmeanspp_indices(x, n_comp, rng)]
    mean = x.mean(axis=0)
    global_cov = (x - mean).T @ (x - mean).conj() / len(x)
    floor = gmm._FLOOR_SCALE * np.trace(global_cov).real / x.shape[1]

    if constraint == "toeplitz":
        dictionary = dense_dictionary(geometry)
        start = reference_start(global_cov, dictionary, floor)
        cov = realize_spectral(start, geometry)

        def project(scatter):
            return realize_spectral(reference_ascent_step(
                start, scatter, dictionary, floor), geometry)
    else:
        def project(scatter):
            eigvals, eigvecs = np.linalg.eigh(
                0.5 * (scatter + scatter.conj().T))
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


# -- EM kernels against plain references -------------------------------------
# fit_em factors its first-iteration covariances once, tests the eigenvalue
# floor by Cholesky and flushes subnormal responsibilities; the plain
# kernels below, which do none of that, are the oracles.

def _reference_floor_eigenvalues(matrix, floor):
    """Hermitian matrix with eigenvalues clipped from below at ``floor``."""
    matrix = 0.5 * (matrix + matrix.conj().T)
    eigvals = np.linalg.eigvalsh(matrix)
    if eigvals[0] >= floor:
        return matrix
    eigvals, eigvecs = np.linalg.eigh(matrix)
    floored = (eigvecs * np.clip(eigvals, floor, None)) @ eigvecs.conj().T
    return 0.5 * (floored + floored.conj().T)


def _reference_em_pass(x, score_matrix):
    """One pass of the EM E-step over the rows of ``x``, a chunk at a time.

    Returns each row's log mixture density and the responsibility-weighted
    sums of the lift, shape (K, N^2+2N+1), from which the M-step reads every
    component's mass, first moment and second moment. Each chunk is lifted
    in complex128, so complex64 rows are scored as their upcast.
    """
    n_samples, width = x.shape[0], score_matrix.shape[0]
    chunk = max(1, min(gmm._EM_CHUNK, gmm._EM_CHUNK_BYTES // (8 * width),
                       n_samples))
    lifted = np.empty((chunk, width))
    log_norm = np.empty(n_samples)
    sums = np.zeros(score_matrix.shape[::-1])
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
        phi = gmm._lift(x[start:stop].astype(complex), lifted[:stop - start])
        scores = phi @ score_matrix
        log_norm[start:stop] = logsumexp(scores, axis=1)
        sums += np.exp(scores - log_norm[start:stop, None]).T @ phi
    return log_norm, sums


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 8) | st.sampled_from([16, 64]),
       log_scale=st.floats(-3.0, 3.0),
       spread=st.just(0.0) | st.floats(-0.5, 1.5),
       tie=st.just(0.0) | st.floats(-4.0, 4.0), seed=_SEEDS)
# a tie: the floor is the least eigenvalue, eigvalsh keeps the matrix and
# zpotrf finds the shifted matrix singular
@example(dim=8, log_scale=0.0, spread=0.0, tie=0.0, seed=0)
def test_floor_eigenvalues_match_eigvalsh_reference(dim, log_scale, spread,
                                                    tie, seed):
    # the floor sits at the least eigenvalue (spread 0), between the
    # eigenvalues, or outside them, moved by up to four rounding units
    rng = np.random.default_rng(seed)
    raw = _complex_normal(rng, (dim, dim + 2))
    matrix = 10.0 ** log_scale * (raw @ raw.conj().T / dim
                                  - rng.uniform(0.0, 1.5) * np.eye(dim))
    eigvals = np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))
    norm = np.abs(eigvals).max()
    unit = 8.0 * dim * np.finfo(float).eps
    floor = (eigvals[0] + spread * (eigvals[-1] - eigvals[0])
             + tie * unit * norm)
    band = unit * (norm + abs(floor))
    got = gmm._floor_eigenvalues(matrix, floor)
    expected = _reference_floor_eigenvalues(matrix, floor)
    if abs(eigvals[0] - floor) > band:
        assert got.tobytes() == expected.tobytes()
        return
    # a tie: zpotrf and eigvalsh may decide differently, and the matrix
    # is returned as it is or with its least eigenvalues moved to the floor
    for out in (got, expected):
        assert np.abs(out - out.conj().T).max() <= band
        assert np.linalg.eigvalsh(out)[0] >= floor - band
    assert np.abs(got - expected).max() <= band


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(1, 8) | st.sampled_from([16, 64]),
       n_comp=st.integers(1, 6), log_cond=st.floats(0.0, 8.0), seed=_SEEDS)
def test_inverse_factors_of_copies_equal_the_tiled_single_factor(
        dim, n_comp, log_cond, seed):
    # fit_em's first iteration factors the initial covariance once
    cov = _conditioned_covariance(np.random.default_rng(seed), dim,
                                  10.0 ** log_cond)
    inv_chols, logdets = gmm._inverse_factors(np.tile(cov, (n_comp, 1, 1)))
    inv_chol, logdet = gmm._inverse_factors(cov[None])
    assert inv_chols.tobytes() == np.tile(inv_chol, (n_comp, 1, 1)).tobytes()
    assert logdets.tobytes() == np.tile(logdet, n_comp).tobytes()


@pytest.mark.parametrize("fit", ["desk-full", "desk-toeplitz",
                                 "collapse-full", "collapse-toeplitz"])
def test_fit_em_matches_reference_kernels_bit_for_bit(
        fit, desk_train, desk_geometry, monkeypatch):
    if fit.startswith("collapse"):  # 20 iterations that re-seed
        (geometry, data), n_comp, budget = _collapse_scene(), 8, 20
    else:
        geometry, data, n_comp, budget = desk_geometry, desk_train, 16, 6
    constraint = fit.split("-")[1]
    options = EmOptions(max_iters=budget, rel_loglik_tol=0.0, seed=3)
    fast = fit_em(data, n_comp, constraint, options, geometry=geometry)

    subnormal = []

    def reference_pass(x, score_matrix, buffers=None):
        log_norm, sums = _reference_em_pass(x, score_matrix)
        resp = np.exp(_lifted(x.astype(complex)) @ score_matrix
                      - log_norm[:, None])
        subnormal.append(np.count_nonzero(
            (resp > 0.0) & (resp < np.finfo(float).tiny)))
        return log_norm, sums

    monkeypatch.setattr(gmm, "_floor_eigenvalues",
                        _reference_floor_eigenvalues)
    monkeypatch.setattr(gmm, "_em_pass", reference_pass)
    reference = fit_em(data, n_comp, constraint, options, geometry=geometry)
    assert len(subnormal) == budget
    if fit.startswith("collapse"):  # at N=16 only these fits underflow
        assert sum(subnormal) > 0  # so the flush is exercised
    for name in ("weights", "means", "covariances", "spectral",
                 "fit_log_likelihoods"):
        assert (np.asarray(getattr(fast, name)).tobytes()
                == np.asarray(getattr(reference, name)).tobytes()), name


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


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 8), n_samples=_CHUNK_COUNTS,
       offset=st.floats(-3.0, 3.0), seed=_SEEDS)
def test_blocked_sample_moments_match_oracle_and_definition(dim, n_samples,
                                                            offset, seed):
    rng = np.random.default_rng(seed)
    x = (_complex_normal(rng, (n_samples, dim)) + offset).astype(np.complex64)
    mean, cov = sample_moments(x)
    ref_mean, ref_cov = blocked_sample_moments(x, gmm._EM_CHUNK)
    assert mean.tobytes() == ref_mean.tobytes()
    assert cov.tobytes() == ref_cov.tobytes()
    # the dense definition sums the scatter in one product
    centered = x.astype(complex) - mean
    dense = centered.T @ centered.conj() / n_samples
    assert np.abs(cov - dense).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize("n_samples", [4096, 16384])
def test_fit_em_memory_is_one_copy_of_the_rows(n_samples):
    # beyond the complex64 dataset, a fit holds one complex128 copy during
    # initialization, a few float64 per row (k-means++ distances, log
    # densities) and buffers whose size does not depend on L; a centred
    # full-size copy for the sample moments would break the bound
    import tracemalloc

    rng = np.random.default_rng(40)
    ds = normalize_dataset(ChannelDataset(_complex_normal(rng,
                                                          (n_samples, 16))))
    tracemalloc.start()
    try:
        fit_em(ds, 4, options=EmOptions(max_iters=1, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    copy = n_samples * 16 * np.dtype(np.complex128).itemsize
    assert peak <= copy + 8 * 8 * n_samples + (1 << 20)


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
    # rank-deficient LMMSE moments make P C P^H singular at sigma=0
    from limfb.estimators import estimate_lmmse

    cov = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    setup = build_pilot_matrix(ArrayGeometry(2, 2), 2, sigma_n2=0.0)
    with pytest.raises(ValueError, match="sigma_n2"):
        estimate_lmmse(np.zeros(4), cov, setup, np.ones(2))


def test_single_component_observation_responsibility(desk_geometry):
    model = _random_model(1, desk_geometry.n, seed=10)
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.5)
    obs = project_to_observation(model, setup)
    rng = np.random.default_rng(10)
    for _ in range(10):
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_allclose(obs.responsibilities(y), [1.0])


# -- batched scoring ---------------------------------------------------------
# GmmModel and ObservationGmm score each row of a (J, d) batch through the
# lifted score matrix; the per-row triangular solve of _log_gaussian_batch is
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
    densities = np.empty((len(x), n_comp))
    for k in range(n_comp):
        chol, logdet = _chol_logdet(model.covariances[k])
        densities[:, k] = _log_gaussian_batch(x, model.means[k], chol, logdet)
    scores = np.log(model.weights) + densities
    ref = scores - logsumexp(scores, axis=1, keepdims=True)
    # each score is held to 1e-9 of its own density; to first order the
    # normalizer's error is the responsibility-weighted mean of those errors
    tol = 1e-9 * np.maximum(1.0, np.abs(densities))
    bound = tol + (np.exp(ref) * tol).sum(axis=1, keepdims=True)
    for mixture in (model, obs):
        got = mixture.log_responsibilities(x)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= bound)
        single = np.array([mixture.log_responsibilities(row) for row in x])
        np.testing.assert_array_equal(single, got)


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
        np.testing.assert_allclose(
            obs.offsets[k], model.means[k] - oracle @ pilot @ model.means[k],
            rtol=1e-10)


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


def test_full_fit_survives_save_and_load_bit_for_bit(tmp_path, desk_train,
                                                     desk_geometry):
    # 3 of these 16 covariances are floored by eigh; an eigh product that is
    # Hermitian only to rounding loses its lower triangle in the file and
    # moves log-responsibilities by up to 8e-3
    data = ChannelDataset(desk_train.samples[:3000], scene=desk_train.scene,
                          normalized=True)
    model = fit_em(data, 16, "full", EmOptions(max_iters=10,
                                               rel_loglik_tol=0.0, seed=3),
                   geometry=desk_geometry)
    path = tmp_path / "desk.lfbm"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.covariances.tobytes() == model.covariances.tobytes()
    assert (loaded.log_responsibilities(data.samples).tobytes()
            == model.log_responsibilities(data.samples).tobytes())


@pytest.mark.parametrize("fixture", ["desk_model", "desk_tmodel"])
def test_save_model_writes_the_reference_bytes(tmp_path, request, fixture):
    model = request.getfixturevalue(fixture)
    save_model(model, tmp_path / "new.lfbm")
    reference_save_model(model, tmp_path / "old.lfbm")
    assert ((tmp_path / "new.lfbm").read_bytes()
            == (tmp_path / "old.lfbm").read_bytes())


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


def test_model_rejects_a_covariance_that_is_not_hermitian():
    # scoring reads the lower triangle only, so this matrix used to score
    # as the identity
    cov = np.eye(4, dtype=complex)
    cov[0, 3] = 5.0
    with pytest.raises(ValueError, match="Hermitian"):
        GmmModel([1.0], np.zeros((1, 4)), [cov])
    # GEMM products are Hermitian to rounding only, and are accepted
    rng = np.random.default_rng(30)
    raw = _complex_normal(rng, (4, 9))
    GmmModel([1.0], np.zeros((1, 4)), [raw @ raw.conj().T / 9])


def test_model_rejects_an_indefinite_covariance():
    # every component must be positive definite, as scoring and sampling
    # factor it: indefinite, zero, rank-one and NaN covariances are refused
    direction = np.array([1.0, 1j, -1.0]) / np.sqrt(3.0)
    nan = np.eye(3, dtype=complex)
    nan[1, 1] = np.nan
    for cov, message in [
            (np.diag([1.0, -1e-3, 2.0]), "positive definite"),
            (np.zeros((3, 3)), "positive definite"),
            (np.outer(direction, direction.conj()), "positive definite"),
            (nan, "finite")]:
        with pytest.raises(ValueError, match=message) as info:
            GmmModel([1.0], np.zeros((1, 3)), [cov])
        assert "\n" not in str(info.value)
    GmmModel([1.0], np.zeros((1, 3)), [1e-300 * np.eye(3)])


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 8), ulps=st.integers(-8, 8), seed=_SEEDS)
@example(dim=4, ulps=-2, seed=0)
@example(dim=4, ulps=2, seed=0)
def test_model_accepts_a_covariance_exactly_when_it_factors(dim, ulps, seed):
    # least eigenvalue a few rounding units of the largest above or below 0:
    # the model holds exactly the covariances its sampling factors
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(_complex_normal(rng, (dim, dim)))[0]
    eigvals = rng.uniform(0.5, 2.0, dim)
    eigvals[0] = ulps * np.finfo(float).eps
    cov = (basis * eigvals) @ basis.conj().T
    cov = 0.5 * (cov + cov.conj().T)
    try:
        cholesky(cov, lower=True)
        factors = True
    except np.linalg.LinAlgError:
        factors = False
    try:
        GmmModel([1.0], np.zeros((1, dim)), [cov])
        accepted = True
    except ValueError as exc:
        assert str(exc) == "covariances must be positive definite"
        accepted = False
    assert accepted == factors


def test_fitted_fixtures_stay_positive_definite_after_save_and_load(
        tmp_path, desk_model, desk_tmodel, desk_geometry):
    for model in (desk_model, desk_tmodel):
        path = tmp_path / f"{model.constraint}.lfbm"
        save_model(model, path)
        loaded = load_model(path, geometry=desk_geometry)
        for cov in loaded.covariances:
            cholesky(cov, lower=True)


def test_model_rejects_a_negative_spectral_entry(desk_geometry):
    spectral = np.ones((1, 4 * desk_geometry.n))
    spectral[0, 5] = -1e-3
    covs = realize_spectral(spectral, desk_geometry)
    with pytest.raises(ValueError, match="nonnegative"):
        GmmModel([1.0], np.zeros((1, desk_geometry.n)), covs,
                 constraint="toeplitz", spectral=spectral,
                 geometry=desk_geometry)


def test_lmmse_accepts_a_singular_sample_covariance(desk_train,
                                                    desk_geometry):
    # fewer training channels than antennas: the sample covariance is
    # singular, but only its observation projection is factored
    from limfb.estimators import estimate_lmmse

    mean, cov = sample_moments(desk_train.samples[:5])
    assert np.linalg.matrix_rank(cov) < desk_geometry.n
    setup = build_pilot_matrix(desk_geometry, 6, sigma_n2=0.1)
    h = desk_train.samples[5:8].astype(complex)
    y = h @ setup.pilot_matrix.T
    estimate = estimate_lmmse(mean, cov, setup, y)
    assert estimate.shape == h.shape and np.all(np.isfinite(estimate))


def test_toeplitz_fit_survives_save_and_load_bit_for_bit(tmp_path,
                                                         desk_tmodel,
                                                         desk_train,
                                                         desk_geometry):
    # the fit and the loader realize all K spectra in one batched call
    path = tmp_path / "desk-t.lfbm"
    save_model(desk_tmodel, path)
    loaded = load_model(path, geometry=desk_geometry)
    assert loaded.spectral.tobytes() == desk_tmodel.spectral.tobytes()
    assert loaded.covariances.tobytes() == desk_tmodel.covariances.tobytes()
    rows = desk_train.samples[:500]
    assert (loaded.log_responsibilities(rows).tobytes()
            == desk_tmodel.log_responsibilities(rows).tobytes())


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
