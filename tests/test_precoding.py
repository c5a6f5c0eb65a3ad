import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limfb import precoding
from limfb.evaluate import sum_rate
from limfb.gmm import GmmModel
from limfb.precoding import (PrecoderSet, _power_step, _power_workspace,
                             directional_representatives, rci_precoders,
                             swmmse_precoders, swmmse_samples, swmmse_white)
from wmmse_oracle import (deterministic_wmmse, eigen_power_step,
                          reference_power_step, reference_swmmse,
                          stochastic_wmmse)


def _degenerate_model(means, eps=1e-12):
    means = np.asarray(means, dtype=complex)
    n_comp, dim = means.shape
    covs = np.stack([eps * np.eye(dim)] * n_comp)
    weights = np.full(n_comp, 1.0 / n_comp)
    return GmmModel(weights, means, covs)


def _design(model, indices, sigma_n2, rho, iters, seed):
    """An SWMMSE design of ``iters`` iterations on the draws of ``seed``."""
    white = swmmse_white(seed, iters + 1, len(indices), model.dim)
    return swmmse_precoders(swmmse_samples(model, indices, white), sigma_n2,
                            rho)


def _random_model(dim, n_comp, seed):
    """Full-rank random components, as a fitted mixture at N = dim has."""
    rng = np.random.default_rng(seed)
    raw = _complex_normal(rng, (n_comp, dim, 2 * dim))
    covs = raw @ np.swapaxes(raw, 1, 2).conj() / (2 * dim)
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2).conj())
    return GmmModel(np.full(n_comp, 1.0 / n_comp),
                    _complex_normal(rng, (n_comp, dim)), covs)


# -- directional representatives ----------------------------------------------

def test_representative_diagonal_dominant_axis():
    model = GmmModel([1.0], np.zeros((1, 2)), [np.diag([2.0, 1.0]) + 0j])
    np.testing.assert_allclose(directional_representatives(model, [1])[0],
                               [1.0, 0.0], atol=1e-12)


def test_representative_rank_one_bump():
    mean = np.array([0.0, 2.0], dtype=complex)
    model = GmmModel([1.0], [mean], [np.eye(2)])
    np.testing.assert_allclose(directional_representatives(model, [1])[0],
                               [0.0, 1.0], atol=1e-12)


def test_representative_matches_dense_eigensolver():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    cov = raw @ raw.conj().T
    mean = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    model = GmmModel([1.0], [mean], [cov])
    got = directional_representatives(model, [1])[0]
    eigvals, eigvecs = np.linalg.eigh(cov + np.outer(mean, mean.conj()))
    expected = eigvecs[:, -1]
    phase = np.vdot(expected, got)
    np.testing.assert_allclose(got, expected * phase / abs(phase), atol=1e-8)


def test_representative_scale_invariance():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    cov = raw @ raw.conj().T
    mean = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    alpha = 7.3
    a = GmmModel([1.0], [mean], [cov])
    b = GmmModel([1.0], [np.sqrt(alpha) * mean], [alpha * cov])
    np.testing.assert_allclose(directional_representatives(a, [1])[0],
                               directional_representatives(b, [1])[0], atol=1e-10)


def test_representatives_matrix(desk_model):
    reps = directional_representatives(desk_model, np.arange(1, 17))
    assert reps.shape == (16, 16)
    np.testing.assert_allclose(np.linalg.norm(reps, axis=1), np.ones(16),
                               atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(indices=st.lists(st.integers(1, 16), max_size=40))
def test_representative_rows_match_the_full_matrix(desk_model, cold_copy,
                                                   indices):
    # any subset, order or repeats: the same eigh per component, bit for
    # bit, each side computed on a model with nothing kept
    full = directional_representatives(cold_copy(desk_model), np.arange(1, 17))
    rows = directional_representatives(cold_copy(desk_model), indices)
    assert rows.shape == (len(indices), 16)
    assert rows.tobytes() == full[np.array(indices, dtype=int) - 1].tobytes()
    # and a warm model returns the same rows in a fresh array
    again = directional_representatives(desk_model, indices)
    assert again.tobytes() == rows.tobytes()
    again[...] = 0.0
    assert directional_representatives(desk_model, indices).tobytes() == (
        rows.tobytes())


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_near_degenerate_warning_is_relative_to_the_top_eigenvalue(
        caplog, cold_copy, scale):
    # component 1: the top two eigenvalues tie to 1e-9 relative;
    # component 2: a relative gap of 0.5, never a tie at any scale
    covs = scale * np.array([np.diag([1.0, 1.0 - 1e-9, 0.5, 0.25]),
                             np.diag([1.0, 0.5, 0.25, 0.125])]) + 0j
    model = GmmModel([0.5, 0.5], np.zeros((2, 4)), covs)
    message = "component 1 has a near-degenerate dominant eigenvalue"
    with caplog.at_level(logging.WARNING, logger="limfb.precoding"):
        directional_representatives(model, [1, 2, 1])
        directional_representatives(model, [2, 1])
        assert [r.getMessage() for r in caplog.records] == [message]
        directional_representatives(cold_copy(model), [1])  # once per model
    assert [r.getMessage() for r in caplog.records] == [message, message]
    assert all(r.levelno == logging.WARNING for r in caplog.records)


def test_representatives_reject_indices_out_of_range(desk_model, cold_copy):
    for bad in ([0], [17], [3, -1]):
        with pytest.raises(ValueError, match="outside 1..16"):
            directional_representatives(desk_model, bad)
    # a fractional index used to be truncated to a component
    for bad in ([1.7], np.array([2.0, 3.0]), [True], [1 + 0j]):
        with pytest.raises(ValueError, match="indices must be integers"):
            directional_representatives(desk_model, bad)
    full = directional_representatives(desk_model, np.arange(1, 17))
    for good in ([2, 5], np.array([2, 5], dtype=np.int32),
                 np.array([2, 5], dtype=np.uint8)):
        assert (directional_representatives(cold_copy(desk_model),
                                            good).tobytes()
                == full[[1, 4]].tobytes())
    assert directional_representatives(desk_model, []).shape == (0, 16)


# -- RCI -----------------------------------------------------------------------

def test_rci_single_user_is_matched_beamformer():
    rng = np.random.default_rng(2)
    rep = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rho = 2.0
    out = rci_precoders(rep[None, :], sigma_n2=0.5, rho=rho)
    expected = np.sqrt(rho) * rep.conj() / np.linalg.norm(rep)
    np.testing.assert_allclose(out.vectors[0], expected, atol=1e-10)


def test_rci_orthogonal_users_zero_noise():
    reps = np.eye(2, dtype=complex)
    out = rci_precoders(reps, sigma_n2=0.0, rho=1.0)
    for j in range(2):
        direction = out.vectors[j] / np.linalg.norm(out.vectors[j])
        np.testing.assert_allclose(np.abs(np.vdot(direction, reps[j].conj())),
                                   1.0, atol=1e-8)
        assert abs(np.sum(np.abs(out.vectors[j]) ** 2) - 0.5) < 1e-8


def test_rci_matches_dense_oracle():
    rng = np.random.default_rng(3)
    reps = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    reps /= np.linalg.norm(reps, axis=1, keepdims=True)
    sigma_n2, rho = 0.4, 1.5
    out = rci_precoders(reps, sigma_n2, rho)
    gram = reps.conj().T @ reps + (2 * sigma_n2 / rho) * np.eye(2)
    unnormalized = np.linalg.inv(gram) @ reps.conj().T
    beta = np.sqrt(rho / np.sum(np.abs(unnormalized) ** 2))
    np.testing.assert_allclose(out.vectors, (beta * unnormalized).T,
                               rtol=1e-10)


def test_rci_direction_invariant_to_common_rescale():
    rng = np.random.default_rng(4)
    reps = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    a = rci_precoders(reps, 0.3, 1.0).vectors
    b = rci_precoders(5.0 * reps, 0.3, 1.0).vectors
    for j in range(3):
        cos = abs(np.vdot(a[j], b[j])) / (np.linalg.norm(a[j])
                                          * np.linalg.norm(b[j]))
        assert cos > 1.0 - 1e-10


def test_rci_rejects_zero_representative():
    reps = np.zeros((2, 3), dtype=complex)
    with pytest.raises(ValueError):
        rci_precoders(reps, 0.1, 1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_rci_rejects_a_non_finite_representative(caplog, value):
    # such a row used to reach the ridge fallback before PrecoderSet
    reps = np.eye(2, 3, dtype=complex)
    reps[1, 2] = value
    with caplog.at_level(logging.DEBUG, logger="limfb.precoding"):
        with pytest.raises(ValueError, match="need a finite"):
            rci_precoders(reps, 0.1, 1.0)
    assert not caplog.records


def test_rci_power_budget_exact():
    rng = np.random.default_rng(5)
    reps = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    out = rci_precoders(reps, 0.2, 3.0)
    assert abs(out.power - 3.0) < 1e-10


def test_precoder_set_validates_power():
    with pytest.raises(ValueError):
        PrecoderSet(np.ones((2, 2), dtype=complex), rho=1.0)


def test_rci_ridges_singular_system(caplog):
    import logging

    # identical representatives at zero noise: rank-one system
    rep = np.array([1.0, 1j, 0.0]) / np.sqrt(2)
    reps = np.vstack([rep, rep])
    with caplog.at_level(logging.WARNING, logger="limfb.precoding"):
        out = rci_precoders(reps, sigma_n2=0.0, rho=1.0)
    assert np.all(np.isfinite(out.vectors))
    assert out.metadata["ridged"] or not caplog.records
    assert abs(out.power - 1.0) < 1e-8


def test_representative_tie_is_flagged(caplog):
    import logging

    model = GmmModel([1.0], np.zeros((1, 3)), [np.eye(3)])
    with caplog.at_level(logging.WARNING, logger="limfb.precoding"):
        vec = directional_representatives(model, [1])[0]
    assert any("degenerate" in rec.message for rec in caplog.records)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_codebook_representative_convention_is_consistent(desk_geometry):
    """Selection by |c^H h| and the rate's h^T v pairing agree end to end."""
    from limfb.feedback import build_dft_codebook, select_codebook_index

    codebook = build_dft_codebook(desk_geometry, 4)
    rng = np.random.default_rng(13)
    for _ in range(10):
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        report = select_codebook_index(codebook, h)
        rep = codebook[report.index - 1]
        # single-user RCI keeps the representative direction for any
        # regularizer; the achieved gain is the selected correlation
        out = rci_precoders(rep[None, :], sigma_n2=0.1, rho=1.0)
        gain = abs(h @ out.vectors[0])
        best = max(abs(np.vdot(c, h)) for c in codebook)
        assert abs(gain - best) < 1e-8


# -- stochastic WMMSE ----------------------------------------------------------

def test_swmmse_single_user_reaches_capacity():
    rng = np.random.default_rng(6)
    mean = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    model = _degenerate_model([mean])
    rho, sigma_n2 = 1.0, 0.1
    out = _design(model, [1], sigma_n2, rho, iters=300, seed=0)
    capacity = np.log2(1.0 + rho * np.sum(np.abs(mean) ** 2) / sigma_n2)
    achieved = sum_rate(mean[None, :], out, sigma_n2)
    assert achieved > 0.99 * capacity


def test_swmmse_power_constraint_every_iteration():
    rng = np.random.default_rng(7)
    means = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    model = _degenerate_model(means, eps=0.01)
    rho = 1.3
    out = _design(model, [1, 2], 0.2, rho, iters=120, seed=1)
    assert np.all(out.metadata["power"] <= rho + 1e-6)


def test_swmmse_deterministic_given_seed():
    rng = np.random.default_rng(8)
    means = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    model = _degenerate_model(means, eps=0.05)
    a = _design(model, [1, 2], 0.1, 1.0, iters=50, seed=9)
    b = _design(model, [1, 2], 0.1, 1.0, iters=50, seed=9)
    assert np.array_equal(a.vectors, b.vectors)


def test_swmmse_matches_per_user_reference(desk_model):
    # distinct and repeated components pin each user's sampling root and
    # the random stream; the power steps agree to their 1e-9 window
    components = [2, 0, 2, 9]
    indices = [k + 1 for k in components]
    for sigma_n2 in (1.0, 0.1, 0.01):
        out = _design(desk_model, indices, sigma_n2, 1.0, iters=40, seed=6)
        expected = stochastic_wmmse(desk_model, components, sigma_n2, 1.0,
                                    iters=40, seed=6)
        assert (np.linalg.norm(out.vectors - expected)
                <= 1e-6 * np.linalg.norm(expected))


@pytest.mark.parametrize("scale, seed, sigma_n2", [
    pytest.param("desk", seed, sigma_n2, id=f"{sigma_n2}-{seed}")
    for seed in (0, 6, 21) for sigma_n2 in (1.0, 0.1, 0.001)] + [
    pytest.param("n64", 8, sigma_n2, id=f"n64-{sigma_n2}")
    for sigma_n2 in (1.0, 0.01)])
def test_swmmse_matches_reference_loop_bit_for_bit(desk_model, scale, seed,
                                                   sigma_n2):
    # 8 users on 16 antennas: the first iterations take the eigen path; the
    # benchmark's shape, 8 users on 64 antennas (4 x 16), pins the buffers'
    # layouts and the BLAS kernels chosen at that size. On the design's
    # samples the reference loop gives the same bytes. On its own draws,
    # one matrix-vector product per user and round where swmmse_samples
    # makes one matrix product per user, the rounding of the samples moves:
    # the design then agrees to 1e-12 relative, and the power steps take
    # the same paths
    if scale == "desk":
        model, components = desk_model, [2, 0, 2, 9, 15, 4, 4, 11]
        iters = 60
    else:
        model, components = _random_model(64, 4, 1), [1, 0, 1, 3, 2, 2, 3, 0]
        iters = 40
    white = swmmse_white(seed, iters + 1, len(components), model.dim)
    samples = swmmse_samples(model, [k + 1 for k in components], white)
    out = swmmse_precoders(samples, sigma_n2, 1.0)
    meta = out.metadata
    vectors, objective, ridge, factorizations, eigen = reference_swmmse(
        model, components, sigma_n2, 1.0, iters, seed, samples)
    assert out.vectors.tobytes() == vectors.tobytes()
    assert meta["objective"].tobytes() == objective.tobytes()
    assert meta["ridge"].tobytes() == ridge.tobytes()
    assert np.array_equal(meta["factorizations"], factorizations)
    assert meta["eigen_iterations"] == eigen

    vectors, objective, ridge, factorizations, eigen = reference_swmmse(
        model, components, sigma_n2, 1.0, iters, seed)
    assert (np.linalg.norm(out.vectors - vectors)
            <= 1e-12 * np.linalg.norm(vectors))
    for got, expected in ((meta["objective"], objective),
                          (meta["ridge"], ridge)):
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))
    assert np.array_equal(meta["factorizations"], factorizations)
    assert meta["eigen_iterations"] == eigen


def test_swmmse_two_user_matches_deterministic_oracle():
    # moderately correlated pair: both users stay active at the optimum
    # (the 1/t averaging approaches user-shutdown solutions only slowly)
    rng = np.random.default_rng(0)
    channels = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sigma_n2, rho = 0.1, 1.0
    model = _degenerate_model(channels)
    out = _design(model, [1, 2], sigma_n2, rho, iters=300, seed=2)
    achieved = sum_rate(channels, out, sigma_n2)
    oracle_vectors = deterministic_wmmse(channels, sigma_n2, rho)
    oracle = sum_rate(channels,
                      PrecoderSet(oracle_vectors, rho), sigma_n2)
    assert abs(achieved - oracle) <= 0.02 * oracle


def test_swmmse_permutation_equivariance():
    # two distinct components of covariance eps I: swapping the reports
    # swaps the users' rows. Only the noise each user draws changes, which
    # moves the samples by about sqrt(eps) and the precoders by a bounded
    # multiple of it (0.3 to 0.75 sqrt(eps) over three draws of the means)
    rng = np.random.default_rng(11)
    means = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    eps = 1e-12
    model = _degenerate_model(means, eps)
    out = _design(model, [1, 2], 0.2, 1.0, iters=40, seed=3)
    swapped = _design(model, [2, 1], 0.2, 1.0, iters=40, seed=3)
    tol = 10.0 * np.sqrt(eps)
    np.testing.assert_allclose(swapped.vectors[[1, 0]], out.vectors,
                               rtol=0.0, atol=tol)
    # the users' rows differ, so the swap is not the identity
    assert np.max(np.abs(swapped.vectors - out.vectors)) > 1e4 * tol


def test_swmmse_trajectory_metadata():
    rng = np.random.default_rng(12)
    means = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    model = _degenerate_model(means, eps=0.02)
    out = _design(model, [1, 2], 0.1, 1.0, iters=25, seed=4)
    assert out.metadata["precoders"].shape == (25, 2, 3)
    assert len(out.metadata["objective"]) == 25


def test_swmmse_validates_reports():
    model = _degenerate_model([[1.0 + 0j, 0.0]])
    with pytest.raises(ValueError, match=r"outside 1\.\.1"):
        _design(model, [2], 0.1, 1.0, iters=3, seed=0)
    for bad in ([1.7], np.array([1.0])):
        with pytest.raises(ValueError, match="must be integers"):
            _design(model, bad, 0.1, 1.0, iters=3, seed=0)
    with pytest.raises(ValueError, match="at least one"):
        _design(model, [], 0.1, 1.0, iters=3, seed=0)
    reference = _design(model, [1], 0.1, 1.0, iters=3, seed=0)
    for good in (np.array([1], dtype=np.int32), np.array([1], dtype=np.uint8)):
        assert (_design(model, good, 0.1, 1.0, iters=3, seed=0).vectors.tobytes()
                == reference.vectors.tobytes())
    with pytest.raises(ValueError):
        _design(model, [1], 0.0, 1.0, iters=3, seed=0)


@pytest.mark.parametrize("sigma_n2", [-0.5, np.nan, np.inf, -np.inf])
def test_designers_reject_invalid_noise_variance(sigma_n2):
    model = _degenerate_model([[1.0 + 0j, 0.5j]])
    with pytest.raises(ValueError, match="sigma_n2 must be finite and > 0"):
        _design(model, [1], sigma_n2, 1.0, iters=3, seed=0)
    with pytest.raises(ValueError, match="sigma_n2 must be finite and >= 0"):
        rci_precoders(np.array([[1.0 + 0j, 0.5j]]), sigma_n2, 1.0)


def test_swmmse_logs_one_summary_per_design(caplog):
    rng = np.random.default_rng(13)
    means = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    model = _degenerate_model(means, eps=0.02)
    with caplog.at_level("DEBUG", logger="limfb.precoding"):
        out = _design(model, [1, 2], 0.1, 1.0, iters=30, seed=4)
    records = [r for r in caplog.records if r.name == "limfb.precoding"]
    assert len(records) == 1 and records[0].levelname == "DEBUG"
    message = records[0].getMessage()
    meta = out.metadata
    assert message.startswith("swmmse: 30 iterations, ")
    assert f"{np.mean(meta['factorizations']):.3f} factorizations" in message
    assert f"{meta['eigen_iterations']} on the eigen path" in message
    assert f"final ridge {meta['ridge'][-1]:.6g}" in message
    assert f"final power slack {1.0 - meta['power'][-1]:.6g}" in message


@pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
def test_designers_reject_invalid_power_budget(rho):
    model = _degenerate_model([[1.0 + 0j, 0.5j]])
    with pytest.raises(ValueError, match="rho"):
        _design(model, [1], 0.1, rho, iters=3, seed=0)
    with pytest.raises(ValueError, match="rho"):
        rci_precoders(np.array([[1.0 + 0j, 0.5j]]), 0.1, rho)


def test_swmmse_power_step_work_at_desk_scale(desk_model):
    # N=16, 8 users: the first iteration's statistics have rank 8, so the
    # eigen path runs there; later steps start from the previous ridge, and
    # the higher-order first step mostly lands in the window
    out = _design(desk_model, [1, 3, 3, 5, 8, 11, 14, 16], 0.1, 1.0,
                  iters=300, seed=5)
    factorizations = out.metadata["factorizations"]
    assert factorizations.shape == (300,)
    assert out.metadata["eigen_iterations"] >= 1
    assert np.mean(factorizations) <= 2.5
    positive = out.metadata["ridge"] > 0
    assert np.all(out.metadata["power"] <= 1.0 + 1e-12)
    assert np.all(1.0 - out.metadata["power"][positive] <= 1e-9 + 1e-12)


def _complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 10), users=st.integers(1, 4),
       rank_cut=st.integers(0, 3), log_cond=st.floats(0.0, 6.0),
       zero_feasible=st.booleans(), log_margin=st.floats(0.01, 3.0),
       log_start=st.one_of(st.none(), st.floats(-3.0, 3.0)),
       seed=st.integers(0, 2**32 - 1))
def test_power_step_matches_eigen_oracle(dim, users, rank_cut, log_cond,
                                         zero_feasible, log_margin,
                                         log_start, seed):
    # condition numbers up to 1e6 on the range of cov: beyond that any two
    # solvers differ by about cond * eps, which the 1e-6 agreement would test
    rng = np.random.default_rng(seed)
    rank = max(1, dim - rank_cut)
    basis, _ = np.linalg.qr(_complex_normal(rng, (dim, dim)))
    eigvals = np.zeros(dim)
    eigvals[:rank] = 10.0 ** -(log_cond * np.r_[0.0, rng.uniform(size=rank - 1)])
    cov = (basis * eigvals) @ basis.conj().T
    # the rows of rhs lie in the range of cov
    rhs = (basis[:, :rank] @ _complex_normal(rng, (rank, users))).T
    zero_power = np.sum(np.abs(eigen_power_step(cov, rhs, np.inf)[0]) ** 2)
    rho = zero_power * np.exp(log_margin if zero_feasible else -log_margin)
    expected, expected_lam = eigen_power_step(cov, rhs, rho)
    start = 0.0 if log_start is None else np.exp(log_start) * rank / dim
    tol = precoding._POWER_TOL

    vectors, lam, _, eigen = _power_step(cov, rhs, rho, start)

    power = np.sum(np.abs(vectors) ** 2)
    assert power <= rho * (1.0 + 1e-12)
    assert (lam == 0.0) == (expected_lam == 0.0)
    # the window is reachable unless eigh leaks weight onto a null direction
    # of cov (see test_power_step_without_root_stays_feasible)
    if lam > 0.0 and rho - np.sum(np.abs(expected) ** 2) <= tol * rho:
        assert rho - power <= (tol + 1e-12) * rho
    assert np.linalg.norm(vectors - expected) <= 1e-6 * np.linalg.norm(expected)
    if start == 0.0 and rank < dim:  # cov is singular: only eigh decides
        assert eigen
    if rank == dim and lam == 0.0:  # certified well-conditioned: no eigh
        assert not eigen


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 12), users=st.integers(1, 4),
       rank_cut=st.integers(0, 3), log_cond=st.floats(0.0, 6.0),
       zero_feasible=st.booleans(), log_margin=st.floats(0.01, 3.0),
       window=st.one_of(st.none(), st.floats(0.05, 0.95)),
       log_start=st.one_of(st.none(), st.floats(-4.0, 3.0)),
       seed=st.integers(0, 2**32 - 1))
def test_power_step_matches_newton_reference(dim, users, rank_cut, log_cond,
                                             zero_feasible, log_margin,
                                             window, log_start, seed):
    # the higher-order first step and the slope solved on demand change the
    # path to the window, not the decisions: the earlier plain-Newton step
    # makes the same lam = 0 decision and ends in the same window. As in
    # test_power_step_matches_eigen_oracle, phi(0) stays off rho, where
    # rounding alone decides whether lam = 0 fits. With ``window``, phi(0)
    # lies inside the window, where lam = 0 must win even after a step has
    # landed there at lam > 0 (at dim 1 the slope is at its lower bound
    # power / tr(cov + lam I)); that needs the power resolved well inside
    # the window, so cov is of full rank with a condition number <= 1e3
    # (cond * eps << tol)
    rng = np.random.default_rng(seed)
    rank = max(1, dim - rank_cut)
    basis, _ = np.linalg.qr(_complex_normal(rng, (dim, dim)))
    eigvals = np.zeros(dim)
    eigvals[:rank] = 10.0 ** -(log_cond * np.r_[0.0, rng.uniform(size=rank - 1)])
    cov = (basis * eigvals) @ basis.conj().T
    rhs = (basis[:, :rank] @ _complex_normal(rng, (rank, users))).T
    zero_power = np.sum(np.abs(eigen_power_step(cov, rhs, np.inf)[0]) ** 2)
    rho = zero_power * np.exp(log_margin if zero_feasible else -log_margin)
    start = 0.0 if log_start is None else np.exp(log_start) * rank / dim
    tol = precoding._POWER_TOL
    window = window if rank == dim and log_cond <= 3.0 else None
    if window is not None:
        rho = zero_power * (1.0 + window * tol)

    expected, expected_lam, _, _ = reference_power_step(cov, rhs, rho, tol,
                                                        start)
    vectors, lam, _, _ = _power_step(cov, rhs, rho, start)

    assert (lam == 0.0) == (expected_lam == 0.0)
    if window is not None:
        assert lam == 0.0
    for vec, ridge in ((vectors, lam), (expected, expected_lam)):
        power = np.sum(np.abs(vec) ** 2)
        assert power <= rho * (1.0 + 1e-12)
        if ridge > 0.0:
            assert rho - power <= (tol + 1e-12) * rho
    assert np.linalg.norm(vectors - expected) <= 1e-6 * np.linalg.norm(expected)


@pytest.mark.parametrize("dim", [2, 8, 64])
def test_power_step_first_step_is_third_order(dim):
    # from a warm start 1 % off the root, the third-order first step lands
    # in the 1e-9 window at once (error ~1e-8 in lam), where a Newton step
    # (error ~1e-4) needs another factorization
    rng = np.random.default_rng(4)
    raw = _complex_normal(rng, (dim, dim))
    cov = raw @ raw.conj().T / dim + 0.01 * np.eye(dim)
    rhs = _complex_normal(rng, (3, dim))
    rho = 0.1 * np.sum(np.abs(eigen_power_step(cov, rhs, np.inf)[0]) ** 2)
    _, root = eigen_power_step(cov, rhs, rho)
    for rel in (1e-3, -1e-3, 1e-2, -1e-2):
        vectors, lam, factorizations, eigen = _power_step(cov, rhs, rho,
                                                          root * (1.0 + rel))
        assert factorizations == 2 and not eigen
        power = np.sum(np.abs(vectors) ** 2)
        assert 0.0 <= rho - power <= precoding._POWER_TOL * rho


def test_power_step_without_root_stays_feasible():
    # weight on an eigenvalue below 1e-13 of the top rules lam = 0 out, yet
    # the power stays below rho for every lam > 0: a feasible ridge returns
    cov = np.diag([1.0, 1e-14]).astype(complex)
    rhs = np.array([[1.0, 1e-11]], dtype=complex)  # phi(0+) = 1 + 1e6
    vectors, lam, _, eigen = _power_step(cov, rhs, 1e7)
    assert eigen and lam > 0.0
    assert np.sum(np.abs(vectors) ** 2) <= 1e7


def test_power_step_ignores_what_eigh_leaks_onto_null_directions():
    # rank 6 of 7 at condition 10^5.6, rhs in the range: eigh leaks up to
    # about (eps |A| / gap)^2 = 8e-21 of the weight onto the null direction;
    # a fixed 1e-24 cut rules lam = 0 out here and ends on a ridge near
    # 1e-306 at 64 % of rho
    rng = np.random.default_rng(0)
    basis, _ = np.linalg.qr(_complex_normal(rng, (7, 7)))
    cov = (basis * np.r_[np.logspace(0.0, -5.6, 6), 0.0]) @ basis.conj().T
    rhs = (basis[:, :6] @ _complex_normal(rng, (6, 2))).T
    pinv = rhs @ np.linalg.pinv(cov, rcond=1e-10, hermitian=True).T
    zero_power = np.sum(np.abs(pinv) ** 2)
    tol = precoding._POWER_TOL
    vectors, lam, _, eigen = _power_step(cov, rhs, 2.0 * zero_power)
    assert eigen and lam == 0.0
    np.testing.assert_allclose(vectors, pinv, rtol=1e-6)
    # below the pseudo-inverse's power the ridge brings the power to rho
    rho = 0.5 * zero_power
    vectors, lam, _, eigen = _power_step(cov, rhs, rho)
    assert eigen and lam > 0.0
    assert 0.0 <= rho - np.sum(np.abs(vectors) ** 2) <= tol * rho


def test_power_step_keeps_zero_ridge_inside_the_window():
    # phi(0) lies inside the accepted window [rho (1 - tol), rho]: a warm
    # start at lam > 0 must not settle on a small positive ridge
    rng = np.random.default_rng(3)
    raw = _complex_normal(rng, (6, 6))
    cov = raw @ raw.conj().T + np.eye(6)
    rhs = _complex_normal(rng, (2, 6))
    zero_vectors, _ = eigen_power_step(cov, rhs, np.inf)
    rho = np.sum(np.abs(zero_vectors) ** 2) * (1.0 + 2.5e-10)
    # from just below the window, Newton lands inside it at lam > 0
    _, near = eigen_power_step(cov, rhs, rho * (1.0 - 2e-9))
    for start in (near, 1e-3, 0.1, 10.0):
        vectors, lam, _, eigen = _power_step(cov, rhs, rho, start)
        assert lam == 0.0 and not eigen
        np.testing.assert_allclose(vectors, zero_vectors, rtol=1e-10)


def _power_case(rng, dim, users, rank_cut, log_cond, log_margin, log_start):
    """A (cov, rhs, rho, lam) power step as the properties above draw it."""
    rank = max(1, dim - rank_cut)
    basis, _ = np.linalg.qr(_complex_normal(rng, (dim, dim)))
    eigvals = np.zeros(dim)
    eigvals[:rank] = 10.0 ** -(log_cond * np.r_[0.0, rng.uniform(size=rank - 1)])
    cov = (basis * eigvals) @ basis.conj().T
    rhs = (basis[:, :rank] @ _complex_normal(rng, (rank, users))).T
    zero_power = np.sum(np.abs(eigen_power_step(cov, rhs, np.inf)[0]) ** 2)
    lam = 0.0 if log_start is None else np.exp(log_start) * rank / dim
    return cov, np.ascontiguousarray(rhs), zero_power * np.exp(log_margin), lam


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 10), users=st.integers(1, 4),
       steps=st.lists(st.tuples(
           st.integers(0, 3), st.floats(0.0, 6.0), st.floats(-3.0, 3.0),
           st.one_of(st.none(), st.floats(-3.0, 3.0)), st.booleans()),
           min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_power_step_reusing_a_workspace_matches_fresh_steps(dim, users, steps,
                                                            seed):
    # whatever an earlier step left in the buffer, and whichever order cov
    # is stored in, a step returns the bytes of a step with a fresh buffer
    rng = np.random.default_rng(seed)
    workspace = _power_workspace(dim)
    for rank_cut, log_cond, log_margin, log_start, fortran in steps:
        cov, rhs, rho, lam = _power_case(rng, dim, users, rank_cut, log_cond,
                                         log_margin, log_start)
        fresh = _power_step(cov, rhs, rho, lam)
        stored = np.asfortranarray(cov) if fortran else cov
        reused = _power_step(stored, rhs, rho, lam, workspace)
        assert reused[0].tobytes() == fresh[0].tobytes()
        assert reused[1:] == fresh[1:]
        assert np.asarray(reused[1]).tobytes() == np.asarray(fresh[1]).tobytes()


# -- the draws of a design -------------------------------------------------------

def test_swmmse_white_is_the_stream_of_one_draw_per_design():
    noise = np.random.default_rng(5).standard_normal((4, 2, 3, 2))
    expected = (noise[:, 0] + 1j * noise[:, 1]) / np.sqrt(2.0)
    assert swmmse_white(5, 4, 3, 2).tobytes() == expected.tobytes()


def test_swmmse_takes_its_iterations_from_its_draws(desk_model):
    # T = len(white) - 1, and a prefix of the draws is the design stopped
    # after that many iterations
    white = swmmse_white(7, 21, 3, 16)
    samples = swmmse_samples(desk_model, [3, 1, 3], white)
    full = swmmse_precoders(samples, 0.1, 1.0)
    short = swmmse_precoders(samples[:11], 0.1, 1.0)
    assert samples.shape == (21, 3, 16)
    assert (swmmse_samples(desk_model, [3, 1, 3], white[:11]).tobytes()
            == samples[:11].tobytes())
    assert full.metadata["precoders"].shape == (20, 3, 16)
    assert (short.metadata["precoders"].tobytes()
            == full.metadata["precoders"][:10].tobytes())
    for shape in ((1, 3, 16), (21, 2, 16), (21, 3, 8), (21, 3)):
        with pytest.raises(ValueError, match="white draws must have shape"):
            swmmse_samples(desk_model, [3, 1, 3],
                           np.zeros(shape, dtype=complex))
    for shape in ((1, 3, 16), (21, 0, 16), (21, 3, 0), (21, 3)):
        with pytest.raises(ValueError, match="samples must have shape"):
            swmmse_precoders(np.ones(shape, dtype=complex), 0.1, 1.0)


@pytest.mark.parametrize("drawn_here", [True, False])
def test_swmmse_design_memory_stays_below_three_sample_sets(drawn_here):
    # N=64 (4 x 16), 8 users, 300 iterations: a set is the (T + 1) J N
    # complex of the samples. The design holds the samples, the precoder
    # snapshots and, at the end, the power track's |v|^2; draws and samples
    # made here are gone before the snapshots come. The earlier loop, with
    # a conjugated copy of the samples, traced 3.75 sets (8.8 MiB); this
    # one traces 2.60 sets either way
    import tracemalloc

    model = _random_model(64, 4, 1)
    indices = [1, 2, 2, 3, 4, 1, 3, 4]
    one_set = 301 * 8 * 64 * 16
    samples = swmmse_samples(model, indices, swmmse_white(2, 301, 8, 64))
    swmmse_precoders(samples, 0.1, 1.0)  # warm-up: caches
    tracemalloc.start()
    try:
        if drawn_here:  # only the design holds these samples
            swmmse_precoders(swmmse_samples(model, indices,
                                            swmmse_white(2, 301, 8, 64)),
                             0.1, 1.0)
        else:
            swmmse_precoders(samples, 0.1, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * one_set
