import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp

from limfb import estimators
from limfb.estimators import (build_omp_dictionary, estimate_gmm,
                              estimate_lmmse, estimate_omp, omp_support)
from limfb.feedback import PilotSetup, build_pilot_matrix, observe
from limfb.gmm import GmmModel, ObservationGmm, project_to_observation
from limfb.scene import (ArrayGeometry, SceneConfig, generate_channels,
                         normalize_dataset)

from gmm_oracle import log_density


def _unit_rows(matrix, rho=1.0):
    return np.sqrt(rho) * matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


# -- mixture estimator -------------------------------------------------------

def test_gmm_estimate_inverts_identity_pilots():
    model = GmmModel([1.0], np.zeros((1, 4)), [np.eye(4)])
    setup = PilotSetup(np.eye(4, dtype=complex), 1.0, 1e-12)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    obs = project_to_observation(model, setup)
    np.testing.assert_allclose(estimate_gmm(obs, y), y, atol=1e-4)


def test_gmm_estimate_zero_innovation_returns_mean(desk_geometry):
    rng = np.random.default_rng(1)
    mean = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    model = GmmModel([1.0], [mean], [np.eye(16)])
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.5)
    y = setup.pilot_matrix @ mean
    obs = project_to_observation(model, setup)
    np.testing.assert_allclose(estimate_gmm(obs, y), mean, atol=1e-12)


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
    np.testing.assert_allclose(estimate_gmm(obs, y), oracle, rtol=1e-10)


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
    batched = estimate_gmm(obs, y)
    assert batched.shape == (users, dim)
    assert np.abs(batched - ref).max() <= bound
    assert np.abs(estimate_gmm(obs, y[0]) - ref[0]).max() <= bound


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_gmm_estimate_rejects_non_finite_observations(desk_geometry, value):
    rng = np.random.default_rng(7)
    model = _random_mixture(rng, 3, 16)
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.1)
    obs = project_to_observation(model, setup)
    y = np.ones((3, 4), dtype=complex)
    y[2, 1] = value
    with pytest.raises(ValueError, match="infs or NaNs"):
        estimate_gmm(obs, y)
    with pytest.raises(ValueError, match="infs or NaNs"):
        estimate_gmm(obs, y[2])
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
        estimate_gmm(bare, np.ones(4))


def test_estimates_of_no_rows_are_empty(desk_geometry):
    model = _random_mixture(np.random.default_rng(9), 3, 16)
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.1)
    obs = project_to_observation(model, setup)
    none = np.empty((0, 4), dtype=complex)
    assert estimate_gmm(obs, none).shape == (0, 16)
    lmmse = estimate_lmmse(model.means[0], model.covariances[0], setup, none)
    assert lmmse.shape == (0, 16)


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
                               estimate_gmm(obs, y), rtol=1e-10)


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


def _pilot_null_atoms(geometry, n_pilots):
    """Which OMP atoms every pilot row misses, in exact arithmetic.

    Pilot row i is flat row round(i N / n_p) of the 2D-DFT. DFT row a of n
    antennas and beam g of the 2n-beam grid have the inner product
    sum_t exp(-2 pi i t (2a + g) / 2n) / n, which is 0 for an even g unless
    2a + g = 0 mod 2n; an atom is seen by a row when both of its factors
    are.
    """
    def seen(a, g, n):
        return g % 2 == 1 or (2 * a + g) % (2 * n) == 0
    n_vert, n_horiz = geometry.n_vert, geometry.n_horiz
    rows = np.floor(np.arange(n_pilots) * geometry.n / n_pilots + 0.5)
    atoms = [divmod(f, 2 * n_horiz) for f in range(4 * geometry.n)]
    return np.array([
        not any(seen(r // n_horiz, g_v, n_vert) and seen(r % n_horiz, g_h,
                                                         n_horiz)
                for r in rows.astype(int)) for g_v, g_h in atoms])


# (array, pilots) cases where rounding used to pick OMP's atoms
OMP_CASES = pytest.mark.parametrize(
    "shape, n_pilots", [((2, 8), 4), ((2, 8), 8), ((4, 16), 2), ((4, 16), 8)],
    ids=["2x8-4", "2x8-8", "4x16-2", "4x16-8"])


def _omp_case(shape, n_pilots):
    """Geometry, dictionary and 100 scene channels of an OMP case."""
    geometry = ArrayGeometry(*shape, 1.0, 0.5)
    channels = normalize_dataset(generate_channels(
        SceneConfig(geometry, seed=7), 100, sample_seed=2)).samples
    return geometry, build_omp_dictionary(geometry), channels.astype(complex)


@OMP_CASES
def test_omp_support_holds_no_pilot_null_atom(shape, n_pilots):
    geometry, dictionary, channels = _omp_case(shape, n_pilots)
    null = _pilot_null_atoms(geometry, n_pilots)
    setup = build_pilot_matrix(geometry, n_pilots, sigma_n2=1.0)
    norms = np.linalg.norm(setup.pilot_matrix @ dictionary, axis=0)
    # rounding leaves the null atoms' norms far below every seen atom's
    assert null.any() and not null.all()
    assert norms[null].max() <= 1e-14 * norms.max()
    assert norms[~null].min() >= 1e-2 * norms.max()
    for snr_db in (0.0, 10.0, 20.0):
        setup = build_pilot_matrix(geometry, n_pilots,
                                   sigma_n2=10.0 ** (-snr_db / 10.0))
        for y in observe(setup, channels, n_pilots):
            support, _ = omp_support(setup, dictionary, y)
            assert not null[support].any()


@OMP_CASES
def test_omp_is_invariant_to_scaling_pilot_energy_and_noise(shape,
                                                            n_pilots):
    # pilots sqrt(c) P and noise variance c sigma_n2 scale y by sqrt(c):
    # the support and the estimate stay, up to rounding
    geometry, dictionary, channels = _omp_case(shape, n_pilots)
    for snr_db in (0.0, 10.0, 20.0):
        sigma_n2 = 10.0 ** (-snr_db / 10.0)
        setup = build_pilot_matrix(geometry, n_pilots, sigma_n2=sigma_n2)
        observations = observe(setup, channels, n_pilots)
        found = [(omp_support(setup, dictionary, y)[0],
                  estimate_omp(setup, dictionary, y)) for y in observations]
        for c in (2.5, 0.01, 100.0):
            scaled = build_pilot_matrix(geometry, n_pilots,
                                        sigma_n2=c * sigma_n2, rho=c)
            for y, (support, estimate) in zip(observations, found):
                y = np.sqrt(c) * y
                assert omp_support(scaled, dictionary, y)[0] == support
                got = estimate_omp(scaled, dictionary, y)
                assert (np.linalg.norm(got - estimate)
                        <= 1e-12 * np.linalg.norm(estimate))


@pytest.mark.parametrize("support", [[0, 0, 5], [1, 3]])
def test_refit_ridges_a_support_cholesky_rejects(support):
    # a repeated atom, or an all-zero one, makes the Gram matrix singular
    rng = np.random.default_rng(0)
    sensing = rng.standard_normal((8, 32)) + 1j * rng.standard_normal((8, 32))
    sensing[:, 3] = 0.0
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    atoms = sensing[:, support]
    gram = atoms.conj().T @ atoms
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(gram)
    ridged = np.linalg.solve(
        gram + estimators._REFIT_RIDGE * np.eye(len(support)),
        atoms.conj().T @ y)
    np.testing.assert_array_equal(estimators._refit(sensing, support, y),
                                  ridged)


def test_refit_does_not_ridge_over_a_non_finite_sensing_matrix():
    # cho_factor rejects NaN with ValueError; a ridged solve would hide it
    sensing = np.eye(4, dtype=complex)
    sensing[2, 1] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        estimators._refit(sensing, [0, 1], np.ones(4, dtype=complex))


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
