import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp

from limfb.estimators import (build_omp_dictionary, estimate_gmm,
                              estimate_lmmse, estimate_omp, omp_support)
from limfb.feedback import PilotSetup, build_pilot_matrix, observe
from limfb.gmm import (GmmModel, ObservationGmm, log_density,
                       project_to_observation)


def _unit_rows(matrix, rho=1.0):
    return np.sqrt(rho) * matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


# -- mixture estimator -------------------------------------------------------

def test_gmm_estimate_inverts_identity_pilots():
    model = GmmModel([1.0], np.zeros((1, 4)), [np.eye(4)])
    setup = PilotSetup(np.eye(4, dtype=complex), 1.0, 1e-12)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    obs = project_to_observation(model, setup)
    np.testing.assert_allclose(estimate_gmm(model, obs, y), y, atol=1e-4)


def test_gmm_estimate_zero_innovation_returns_mean(desk_geometry):
    rng = np.random.default_rng(1)
    mean = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    model = GmmModel([1.0], [mean], [np.eye(16)])
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.5)
    y = setup.pilot_matrix @ mean
    obs = project_to_observation(model, setup)
    np.testing.assert_allclose(estimate_gmm(model, obs, y), mean, atol=1e-12)


def test_gmm_estimate_matches_dense_oracle():
    rng = np.random.default_rng(2)
    means = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    covs = []
    for _ in range(2):
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        covs.append(raw @ raw.conj().T + np.eye(2))
    weights = np.array([0.35, 0.65])
    model = GmmModel(weights, means, covs)
    row = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    setup = PilotSetup(_unit_rows(row[None, :]), 1.0, 0.4)
    pilot = setup.pilot_matrix
    y = rng.standard_normal(1) + 1j * rng.standard_normal(1)

    dens, parts = [], []
    for k in range(2):
        cov_y = pilot @ covs[k] @ pilot.conj().T + 0.4 * np.eye(1)
        diff = y - pilot @ means[k]
        quad = (diff.conj() @ np.linalg.inv(cov_y) @ diff).real
        dens.append(weights[k] * np.exp(-quad)
                    / (np.pi * np.linalg.det(cov_y).real))
        parts.append(means[k]
                     + covs[k] @ pilot.conj().T @ np.linalg.inv(cov_y) @ diff)
    resp = np.array(dens) / np.sum(dens)
    oracle = resp[0] * parts[0] + resp[1] * parts[1]
    obs = project_to_observation(model, setup)
    np.testing.assert_allclose(estimate_gmm(model, obs, y), oracle, rtol=1e-10)


def _loop_estimate_gmm(model, setup, y):
    """Reference: one LMMSE solve per component for one observation."""
    pilot, eye = setup.pilot_matrix, np.eye(setup.n_pilots)
    obs_covs = [pilot @ cov @ pilot.conj().T + setup.sigma_n2 * eye
                for cov in model.covariances]
    scores = np.array([np.log(w) + log_density(y, pilot @ mean, obs_cov)
                       for w, mean, obs_cov in zip(model.weights, model.means,
                                                   obs_covs)])
    resp = np.exp(scores - logsumexp(scores))
    h_hat = np.zeros(model.dim, dtype=complex)
    for k in range(model.n_components):
        weight = cho_solve(cho_factor(obs_covs[k], lower=True),
                           y - pilot @ model.means[k])
        h_hat += resp[k] * (model.means[k] + model.covariances[k]
                            @ (pilot.conj().T @ weight))
    return h_hat


def _random_mixture(rng, n_comp, dim):
    weights = rng.uniform(0.5, 1.5, n_comp)
    means = rng.standard_normal((n_comp, dim)) + 1j * rng.standard_normal(
        (n_comp, dim))
    raw = rng.standard_normal((n_comp, dim, dim)) + 1j * rng.standard_normal(
        (n_comp, dim, dim))
    covs = raw @ raw.conj().transpose(0, 2, 1) / dim + 1e-3 * np.eye(dim)
    return GmmModel(weights / weights.sum(), means, covs)


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(1, 8), n_comp=st.integers(1, 5),
       pilot_frac=st.floats(0.0, 1.0), users=st.integers(1, 6),
       log_noise=st.floats(-3.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_batched_gmm_estimate_matches_component_loop(dim, n_comp, pilot_frac,
                                                     users, log_noise, seed):
    rng = np.random.default_rng(seed)
    model = _random_mixture(rng, n_comp, dim)
    n_pilots = 1 + int(pilot_frac * (dim - 1))
    rows = _unit_rows(rng.standard_normal((n_pilots, dim))
                      + 1j * rng.standard_normal((n_pilots, dim)))
    setup = PilotSetup(rows, 1.0, 10.0 ** log_noise)
    obs = project_to_observation(model, setup)
    y = 2.0 * (rng.standard_normal((users, n_pilots))
               + 1j * rng.standard_normal((users, n_pilots)))
    ref = np.array([_loop_estimate_gmm(model, setup, row) for row in y])
    bound = 1e-10 * max(1.0, np.abs(ref).max())
    batched = estimate_gmm(model, obs, y)
    assert batched.shape == (users, dim)
    assert np.abs(batched - ref).max() <= bound
    assert np.abs(estimate_gmm(model, obs, y[0]) - ref[0]).max() <= bound


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_gmm_estimate_rejects_non_finite_observations(desk_geometry, value):
    rng = np.random.default_rng(7)
    model = _random_mixture(rng, 3, 16)
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.1)
    obs = project_to_observation(model, setup)
    y = np.ones((3, 4), dtype=complex)
    y[2, 1] = value
    with pytest.raises(ValueError, match="infs or NaNs"):
        estimate_gmm(model, obs, y)
    with pytest.raises(ValueError, match="infs or NaNs"):
        estimate_gmm(model, obs, y[2])
    for rows in (y, y[2]):
        with pytest.raises(ValueError, match="infs or NaNs"):
            estimate_lmmse(model.means[0], model.covariances[0], setup, rows)


def test_gmm_estimate_needs_projected_filters(desk_geometry):
    model = _random_mixture(np.random.default_rng(8), 2, 16)
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.1)
    projected = project_to_observation(model, setup)
    bare = ObservationGmm(projected.weights, projected.means,
                          projected.covariances)
    with pytest.raises(ValueError, match="project_to_observation"):
        estimate_gmm(model, bare, np.ones(4))


# -- LMMSE ---------------------------------------------------------------------

def test_lmmse_equals_single_component_gmm(desk_geometry):
    rng = np.random.default_rng(3)
    mean = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    cov = raw @ raw.conj().T / 16 + np.eye(16)
    model = GmmModel([1.0], [mean], [cov])
    setup = build_pilot_matrix(desk_geometry, 6, sigma_n2=0.7)
    y = observe(setup, mean + rng.standard_normal(16), seed=4)
    obs = project_to_observation(model, setup)
    np.testing.assert_allclose(estimate_lmmse(mean, cov, setup, y),
                               estimate_gmm(model, obs, y), rtol=1e-10)


def test_lmmse_zero_innovation(desk_geometry):
    rng = np.random.default_rng(5)
    mean = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.2)
    y = setup.pilot_matrix @ mean
    np.testing.assert_allclose(estimate_lmmse(mean, np.eye(16), setup, y),
                               mean, atol=1e-12)


def test_lmmse_matches_dense_oracle():
    rng = np.random.default_rng(6)
    dim, n_pilots, sigma_n2 = 4, 2, 0.3
    mean = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    cov = raw @ raw.conj().T / dim + np.eye(dim)
    rows = _unit_rows(rng.standard_normal((n_pilots, dim))
                      + 1j * rng.standard_normal((n_pilots, dim)))
    setup = PilotSetup(rows, 1.0, sigma_n2)
    y = rng.standard_normal((5, n_pilots)) + 1j * rng.standard_normal(
        (5, n_pilots))
    pilot = setup.pilot_matrix
    gain = cov @ pilot.conj().T @ np.linalg.inv(
        pilot @ cov @ pilot.conj().T + sigma_n2 * np.eye(n_pilots))
    oracle = mean + (y - pilot @ mean) @ gain.T
    batched = estimate_lmmse(mean, cov, setup, y)
    assert batched.shape == (5, dim)
    np.testing.assert_allclose(batched, oracle, rtol=1e-10)
    for row, h_hat in zip(y, batched):
        np.testing.assert_allclose(estimate_lmmse(mean, cov, setup, row),
                                   h_hat, rtol=1e-12, atol=1e-14)


# -- OMP -----------------------------------------------------------------------

def test_omp_recovers_single_atom(desk_geometry):
    dictionary = build_omp_dictionary(desk_geometry)
    setup = build_pilot_matrix(desk_geometry, desk_geometry.n, sigma_n2=0.0)
    coefficient = 0.8 - 0.3j
    truth = coefficient * dictionary[:, 17]
    y = setup.pilot_matrix @ truth
    estimate = estimate_omp(setup, dictionary, y)
    assert np.linalg.norm(setup.pilot_matrix @ estimate - y) < 1e-8
    np.testing.assert_allclose(estimate, truth, atol=1e-8)


def test_omp_zero_observation_returns_zero(desk_geometry):
    dictionary = build_omp_dictionary(desk_geometry)
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.1)
    estimate = estimate_omp(setup, dictionary, np.zeros(4, dtype=complex))
    np.testing.assert_array_equal(estimate, np.zeros(16))


def test_omp_two_sparse_support_matches_exhaustive_search(desk_geometry):
    dictionary = build_omp_dictionary(desk_geometry)
    setup = build_pilot_matrix(desk_geometry, 8, sigma_n2=1e-20)
    sensing = setup.pilot_matrix @ dictionary
    atoms = (5, 40)  # well separated on the oversampled grid
    y = sensing[:, atoms[0]] * (1.0 + 0.5j) + sensing[:, atoms[1]] * (-0.7j)

    best, best_res = None, np.inf
    for pair in itertools.combinations(range(dictionary.shape[1]), 2):
        sub = sensing[:, pair]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        res = np.linalg.norm(y - sub @ coef)
        if res < best_res:
            best, best_res = set(pair), res

    support, _ = omp_support(setup, dictionary, y)
    assert len(support) == 2 and set(support) == best
    estimate = estimate_omp(setup, dictionary, y)
    assert np.linalg.norm(setup.pilot_matrix @ estimate - y) < 1e-8


def test_omp_dictionary_shape_and_norms(desk_geometry):
    dictionary = build_omp_dictionary(desk_geometry)
    assert dictionary.shape == (16, 64)
    np.testing.assert_allclose(np.linalg.norm(dictionary, axis=0),
                               np.ones(64), atol=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_omp_rejects_non_finite_observations(desk_geometry, value):
    dictionary = build_omp_dictionary(desk_geometry)
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.1)
    y = np.ones(4, dtype=complex)
    y[1] = value
    with pytest.raises(ValueError, match="infs or NaNs"):
        estimate_omp(setup, dictionary, y)
