"""Each user's result depends on that user's row alone.

A terminal infers its own index from its own pilots, so feedback, mixture
scores and channel estimates of a row must not depend on which other rows
share the call. Likewise a component's representative, kept on the model
by the request that first needs it, must not depend on that request, and a
user's SWMMSE samples must not depend on the other users of the design. These
properties must hold at any BLAS thread count; CI runs this file with one
and with two OpenBLAS threads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limfb.estimators import estimate_gmm, estimate_lmmse
from limfb.evaluate import Experiment, ExperimentConfig
from limfb.feedback import PilotSetup, observe
from limfb.gmm import GmmModel, project_to_observation
from limfb.precoding import (directional_representatives, swmmse_samples,
                             swmmse_white)

FEEDBACK_SOURCES = ("gmm-obs", "tgmm-obs", "gmm-perfect", "tgmm-perfect",
                    "dft:perfect", "dft:gmm", "dft:tgmm", "dft:lmmse",
                    "dft:omp")

_SEEDS = st.integers(0, 2**32 - 1)


def _complex_normal(rng, shape):
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _random_mixture(rng, n_comp, dim):
    weights = rng.uniform(0.5, 1.5, n_comp)
    weights /= weights.sum()
    covs = np.empty((n_comp, dim, dim), dtype=complex)
    for k in range(n_comp):
        raw = _complex_normal(rng, (dim, dim))
        covs[k] = raw @ raw.conj().T / dim + 0.1 * np.eye(dim)
    return GmmModel(weights, _complex_normal(rng, (n_comp, dim)), covs)


def _random_setup(rng, n_pilots, dim, sigma_n2):
    pilot = _complex_normal(rng, (n_pilots, dim))
    pilot /= np.linalg.norm(pilot, axis=1, keepdims=True)
    return PilotSetup(pilot, 1.0, sigma_n2)


def _assert_rows_equal_one_row_calls(model, setup, x):
    """Every row of each batched call equals its vector and (1, d) calls."""
    obs = project_to_observation(model, setup)
    y = observe(setup, x, 0)
    mean, cov = model.means[0], model.covariances[0]
    cases = {
        "GmmModel.log_responsibilities": (model.log_responsibilities, x),
        "ObservationGmm.log_responsibilities": (obs.log_responsibilities, y),
        "estimate_gmm": (lambda rows: estimate_gmm(obs, rows), y),
        "estimate_lmmse": (lambda rows: estimate_lmmse(mean, cov, setup, rows),
                           y),
    }
    for name, (fn, rows) in cases.items():
        full = fn(rows)
        assert full.shape[0] == len(rows), name
        for j in range(len(rows)):
            assert fn(rows[j]).tobytes() == full[j].tobytes(), (name, j)
            assert fn(rows[j:j + 1])[0].tobytes() == full[j].tobytes(), (name,
                                                                         j)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 12), n_comp=st.integers(1, 6),
       pilot_frac=st.floats(0.1, 1.0), rows=st.integers(1, 12), seed=_SEEDS)
def test_scores_and_estimates_of_a_row_equal_its_one_row_call(
        dim, n_comp, pilot_frac, rows, seed):
    rng = np.random.default_rng(seed)
    model = _random_mixture(rng, n_comp, dim)
    setup = _random_setup(rng, max(1, int(pilot_frac * dim)), dim, 0.3)
    _assert_rows_equal_one_row_calls(model, setup,
                                     2.0 * _complex_normal(rng, (rows, dim)))


@pytest.mark.parametrize("n_pilots", [8, 64])
def test_paper_scale_rows_equal_their_one_row_calls(n_pilots):
    # 130 rows straddle the 124-row lift chunk and the 64-row estimator
    # block at N = 64, K = 64
    rng = np.random.default_rng(n_pilots)
    model = _random_mixture(rng, 64, 64)
    setup = _random_setup(rng, n_pilots, 64, 0.1)
    _assert_rows_equal_one_row_calls(model, setup,
                                     _complex_normal(rng, (130, 64)))


def _assert_kept_rows_equal_rows_made_alone(make_model, requests):
    """Rows returned while ``requests`` fill a model's cache in turn equal
    the rows each component gets alone on a model with nothing kept."""
    cold = make_model()  # one request per component: each row made alone
    alone = [directional_representatives(cold, [k])[0].tobytes()
             for k in range(1, cold.n_components + 1)]
    model = make_model()
    for request in requests:
        rows = directional_representatives(model, request)
        for k, row in zip(request, rows):
            assert row.tobytes() == alone[k - 1], (request, k)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 12), n_comp=st.integers(1, 6), seed=_SEEDS,
       data=st.data())
def test_a_representative_does_not_depend_on_the_request_that_made_it(
        dim, n_comp, seed, data):
    requests = data.draw(st.lists(
        st.lists(st.integers(1, n_comp), max_size=2 * n_comp), min_size=1))
    _assert_kept_rows_equal_rows_made_alone(
        lambda: _random_mixture(np.random.default_rng(seed), n_comp, dim),
        requests)


@pytest.mark.parametrize("order", ["stacked", "reversed", "shuffled"])
def test_paper_scale_representatives_do_not_depend_on_the_request(order):
    rng = np.random.default_rng(64)
    indices = np.arange(1, 65)
    requests = {"stacked": [indices], "reversed": [indices[::-1]],
                "shuffled": np.array_split(rng.permutation(indices), 5)}
    _assert_kept_rows_equal_rows_made_alone(
        lambda: _random_mixture(np.random.default_rng(1), 64, 64),
        requests[order])


def _assert_samples_equal_samples_made_alone(model, indices, white):
    """Each user's SWMMSE samples equal those made for that user alone."""
    samples = swmmse_samples(model, indices, white)
    for j, k in enumerate(indices):
        alone = swmmse_samples(model, [k], white[:, j:j + 1].copy())
        assert alone[:, 0].tobytes() == samples[:, j].tobytes(), (indices, j)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 12), n_comp=st.integers(1, 6),
       rounds=st.integers(2, 40), seed=_SEEDS, data=st.data())
def test_a_users_samples_equal_the_samples_it_makes_alone(dim, n_comp, rounds,
                                                          seed, data):
    model = _random_mixture(np.random.default_rng(seed), n_comp, dim)
    indices = data.draw(st.lists(st.integers(1, n_comp), min_size=1,
                                 max_size=8))
    white = swmmse_white(seed, rounds, len(indices), dim)
    _assert_samples_equal_samples_made_alone(model, indices, white)


def test_paper_scale_samples_equal_the_samples_made_alone():
    # N = 64, 8 users with repeated components, T = 300 as the benchmark
    model = _random_mixture(np.random.default_rng(2), 4, 64)
    _assert_samples_equal_samples_made_alone(
        model, [2, 1, 2, 4, 3, 3, 4, 1], swmmse_white(5, 301, 8, 64))


@pytest.fixture(scope="module")
def experiment(desk_train, desk_eval, desk_model, desk_tmodel):
    config = ExperimentConfig.desk_profile(users=4, constellations=1, seed=17)
    return Experiment(config, train_dataset=desk_train, eval_dataset=desk_eval,
                      models={("full", 4): desk_model,
                              ("toeplitz", 4): desk_tmodel})


@settings(max_examples=20, deadline=None)
@given(n_pilots=st.sampled_from([2, 8, 16]),
       snr_db=st.sampled_from([-10.0, 10.0, 30.0]), seed=_SEEDS,
       data=st.data())
def test_feedback_of_any_rows_is_the_matching_rows_of_the_full_call(
        experiment, n_pilots, snr_db, seed, data):
    rng = np.random.default_rng(seed)
    n_rows = 24
    picks = rng.choice(len(experiment.eval), size=n_rows, replace=False)
    channels = experiment.eval.samples[picks].astype(np.complex128)
    setup = experiment.pilot_setup(n_pilots, 10.0 ** (-snr_db / 10.0))
    observations = observe(setup, channels, rng)
    order = data.draw(st.permutations(range(n_rows)))
    rows = np.array(order[:data.draw(st.integers(1, n_rows))])
    for tag in FEEDBACK_SOURCES:
        full = experiment.feedback(tag, 4, setup, channels, observations)
        part = experiment.feedback(tag, 4, setup, channels[rows],
                                   observations[rows])
        np.testing.assert_array_equal(part, full[rows], err_msg=tag)
