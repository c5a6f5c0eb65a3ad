import numpy as np
import pytest
from scipy.linalg import dft

from limfb.feedback import (FeedbackReport, PilotSetup, build_dft_codebook,
                            build_pilot_matrix, mixture_feedback, observe,
                            select_codebook_index)
from limfb.gmm import GmmModel, project_to_observation
from limfb.scene import ArrayGeometry


# -- pilot matrices ----------------------------------------------------------

def test_full_pilot_matrix_is_orthogonal(desk_geometry):
    rho = 1.7
    setup = build_pilot_matrix(desk_geometry, desk_geometry.n, sigma_n2=0.1,
                               rho=rho)
    gram = setup.pilot_matrix @ setup.pilot_matrix.conj().T
    np.testing.assert_allclose(gram, rho * np.eye(desk_geometry.n), atol=1e-10)


def test_pilot_rows_carry_rho(desk_geometry):
    for n_pilots in (1, 3, 8, 16):
        setup = build_pilot_matrix(desk_geometry, n_pilots, sigma_n2=0.1,
                                   rho=2.0)
        energies = np.sum(np.abs(setup.pilot_matrix) ** 2, axis=1)
        assert np.max(np.abs(energies - 2.0)) < 1e-10


def test_pilot_rows_match_hand_built_kronecker():
    geom = ArrayGeometry(2, 2, 1.0, 0.5)
    full = np.kron(dft(2, scale="sqrtn"), dft(2, scale="sqrtn"))
    setup = build_pilot_matrix(geom, 2, sigma_n2=0.1)
    np.testing.assert_allclose(setup.pilot_matrix, full[[0, 2], :], atol=1e-12)


def test_pilot_count_bounds(desk_geometry):
    with pytest.raises(ValueError):
        build_pilot_matrix(desk_geometry, desk_geometry.n + 1, sigma_n2=0.1)
    with pytest.raises(ValueError):
        build_pilot_matrix(desk_geometry, 0, sigma_n2=0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
def test_pilot_setup_rejects_bad_rho(desk_geometry, rho):
    pilot_matrix = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.1).pilot_matrix
    with pytest.raises(ValueError, match="rho must be finite and > 0"):
        PilotSetup(pilot_matrix, rho, 0.1)
    with pytest.raises(ValueError, match="rho must be finite and > 0"):
        build_pilot_matrix(desk_geometry, 4, sigma_n2=0.1, rho=rho)


@pytest.mark.parametrize("sigma_n2", [-0.1, np.nan])
def test_pilot_setup_rejects_bad_noise_variance(desk_geometry, sigma_n2):
    with pytest.raises(ValueError, match="sigma_n2 must be >= 0"):
        build_pilot_matrix(desk_geometry, 4, sigma_n2=sigma_n2)


def test_pilot_setup_needs_the_noise_variance_by_keyword(desk_geometry):
    with pytest.raises(TypeError):
        build_pilot_matrix(desk_geometry, 4)
    with pytest.raises(TypeError):
        build_pilot_matrix(desk_geometry, 4, 1.0)  # rho is keyword-only too


# -- observations ------------------------------------------------------------

def test_observe_noiseless(desk_geometry):
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.0)
    rng = np.random.default_rng(0)
    h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    np.testing.assert_array_equal(observe(setup, h, seed=1),
                                  setup.pilot_matrix @ h)


def test_observe_deterministic(desk_geometry):
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.3)
    h = np.ones(16, dtype=complex)
    assert np.array_equal(observe(setup, h, seed=2), observe(setup, h, seed=2))


def test_observe_noise_moments(desk_geometry):
    sigma_n2 = 0.8
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=sigma_n2)
    h = np.zeros(16, dtype=complex)
    rng = np.random.default_rng(3)
    draws = np.stack([observe(setup, h, rng) for _ in range(20_000)])
    emp = draws.T @ draws.conj() / len(draws)
    rel = np.linalg.norm(emp - sigma_n2 * np.eye(4)) / (sigma_n2 * 2.0)
    assert rel < 0.05


# -- codebooks ---------------------------------------------------------------

def test_codebook_matched_size_is_full_dft():
    geom = ArrayGeometry(4, 16, 1.0, 0.5)
    cb = build_dft_codebook(geom, 6)
    assert len(cb) == 64
    assert cb.oversampling == (1, 1)
    full = np.kron(dft(4), dft(16)) / np.sqrt(64)
    np.testing.assert_allclose(cb.entries, full.T, atol=1e-12)


def test_codebook_oversamples_horizontal_first():
    geom = ArrayGeometry(4, 16, 1.0, 0.5)
    cb = build_dft_codebook(geom, 8)
    assert len(cb) == 256
    s_vert, s_horiz = cb.oversampling
    assert (s_vert, s_horiz) == (1, 4)


def test_codebook_undersamples_vertical_first():
    geom = ArrayGeometry(4, 16, 1.0, 0.5)
    cb = build_dft_codebook(geom, 4)
    s_vert, s_horiz = cb.oversampling
    assert (s_vert, s_horiz) == (0.25, 1)


def test_codebook_entries_are_unit_norm(desk_geometry):
    for bits in (2, 4, 5):
        cb = build_dft_codebook(desk_geometry, bits)
        norms = np.linalg.norm(cb.entries, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_codebook_rejects_infeasible_allocation():
    geom = ArrayGeometry(3, 5, 1.0, 0.5)
    with pytest.raises(ValueError, match="beams"):
        build_dft_codebook(geom, 4)


# -- codebook selection ------------------------------------------------------

def test_select_self_match(desk_geometry):
    cb = build_dft_codebook(desk_geometry, 4)
    report = select_codebook_index(cb, cb.entries[2])
    assert report.index == 3  # 1-based


def test_select_unique_correlator():
    entries = np.eye(4, dtype=complex)
    from limfb.feedback import Codebook
    cb = Codebook(entries=entries, oversampling=(1, 1), bits=2)
    report = select_codebook_index(cb, np.array([1.0, 0, 0, 0]) + 0j)
    assert report.index == 1


def test_select_matches_exhaustive_scan(desk_geometry):
    cb = build_dft_codebook(desk_geometry, 4)
    rng = np.random.default_rng(4)
    for _ in range(50):
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        scores = [abs(np.vdot(c, h)) for c in cb.entries]
        assert select_codebook_index(cb, h).index == int(np.argmax(scores)) + 1


def test_select_zero_input_flags_degenerate(desk_geometry):
    cb = build_dft_codebook(desk_geometry, 4)
    report = select_codebook_index(cb, np.zeros(16))
    assert report.index == 1 and report.degenerate


def test_feedback_report_flag_is_keyword_only():
    assert FeedbackReport(3) == FeedbackReport(3, degenerate=False)
    with pytest.raises(TypeError):
        FeedbackReport(3, True)


def test_select_scale_invariance(desk_geometry):
    cb = build_dft_codebook(desk_geometry, 4)
    rng = np.random.default_rng(5)
    h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert select_codebook_index(cb, h).index == \
        select_codebook_index(cb, 7.25 * h).index


# -- mixture feedback --------------------------------------------------------

def _two_component_model(dim, separation):
    means = np.zeros((2, dim), dtype=complex)
    means[0, 0] = separation
    means[1, 0] = -separation
    covs = np.stack([0.05 * np.eye(dim)] * 2)
    return GmmModel([0.5, 0.5], means, covs)


def test_gmm_feedback_single_component(desk_geometry):
    model = GmmModel([1.0], np.zeros((1, 16)), [np.eye(16)])
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.1)
    obs = project_to_observation(model, setup)
    y = np.ones(4, dtype=complex)
    assert mixture_feedback(obs, y).tolist() == [1]


def test_gmm_feedback_recovers_separated_component(desk_geometry):
    model = _two_component_model(16, separation=2.0)
    setup = build_pilot_matrix(desk_geometry, 8, sigma_n2=0.05)
    obs = project_to_observation(model, setup)
    rng = np.random.default_rng(6)
    trials = 10_000
    root = np.sqrt(0.05)
    y = []
    for _ in range(trials):
        h = model.means[1] + root * (rng.standard_normal(16)
                                     + 1j * rng.standard_normal(16)) / np.sqrt(2)
        y.append(observe(setup, h, rng))
    indices = mixture_feedback(obs, np.array(y))
    hits = np.sum(indices == 2)
    assert hits / trials >= 0.99


def test_gmm_feedback_matches_dense_posterior_oracle(desk_geometry):
    rng = np.random.default_rng(7)
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    means = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    covs = np.stack([np.eye(16) * s for s in (0.5, 1.0, 1.5, 2.0)])
    model = GmmModel(weights, means, covs)
    setup = build_pilot_matrix(desk_geometry, 4, sigma_n2=0.2)
    obs = project_to_observation(model, setup)
    pilot = setup.pilot_matrix
    rows = np.array([rng.standard_normal(4) + 1j * rng.standard_normal(4)
                     for _ in range(20)])
    indices = mixture_feedback(obs, rows)
    assert indices.shape == (20,)
    for y, index in zip(rows, indices):
        scores = []
        for k in range(4):
            cov = pilot @ covs[k] @ pilot.conj().T + 0.2 * np.eye(4)
            diff = y - pilot @ means[k]
            quad = (diff.conj() @ np.linalg.inv(cov) @ diff).real
            scores.append(np.log(weights[k]) - quad
                          - np.log(np.linalg.det(cov).real))
        assert index == int(np.argmax(scores)) + 1


def test_perfect_and_observed_feedback_agree_with_invertible_pilots(
        desk_geometry):
    model = _two_component_model(16, separation=1.0)
    setup = build_pilot_matrix(desk_geometry, 16, sigma_n2=1e-12)
    obs = project_to_observation(model, setup)
    rng = np.random.default_rng(8)
    channels, y = [], []
    for _ in range(50):
        k = rng.integers(2)
        channels.append(model.means[k] + 0.2 * (
            rng.standard_normal(16) + 1j * rng.standard_normal(16)))
        y.append(observe(setup, channels[-1], rng))
    from_obs = mixture_feedback(obs, np.array(y))
    from_csi = mixture_feedback(model, np.array(channels))
    assert from_obs.tolist() == from_csi.tolist()
