import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limfb import precoding
from limfb.evaluate import sum_rate
from limfb.gmm import GmmModel
from limfb.precoding import (PrecoderSet, SwmmseOptions, _power_step,
                             directional_representatives, rci_precoders,
                             swmmse_precoders)
from wmmse_oracle import (deterministic_wmmse, eigen_power_step,
                          reference_swmmse, stochastic_wmmse)


def _degenerate_model(means, eps=1e-12):
    means = np.asarray(means, dtype=complex)
    n_comp, dim = means.shape
    covs = np.stack([eps * np.eye(dim)] * n_comp)
    weights = np.full(n_comp, 1.0 / n_comp)
    return GmmModel(weights, means, covs)


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
def test_representative_rows_match_the_full_matrix(desk_model, indices):
    # any subset, order or repeats: the same eigh per component, bit for bit
    full = directional_representatives(desk_model, np.arange(1, 17))
    rows = directional_representatives(desk_model, indices)
    assert rows.shape == (len(indices), 16)
    assert rows.tobytes() == full[np.array(indices, dtype=int) - 1].tobytes()


def test_representatives_reject_indices_out_of_range(desk_model):
    for bad in ([0], [17], [3, -1]):
        with pytest.raises(ValueError, match="outside 1..16"):
            directional_representatives(desk_model, bad)


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


def test_rci_power_budget_exact():
    rng = np.random.default_rng(5)
    reps = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    out = rci_precoders(reps, 0.2, 3.0)
    assert abs(out.power - 3.0) < 1e-10


def test_precoder_set_validates_power():
    with pytest.raises(ValueError):
        PrecoderSet(np.ones((2, 2), dtype=complex), rho=1.0, designer="rci")


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
        rep = codebook.entries[report.index - 1]
        # single-user RCI keeps the representative direction for any
        # regularizer; the achieved gain is the selected correlation
        out = rci_precoders(rep[None, :], sigma_n2=0.1, rho=1.0)
        gain = abs(h @ out.vectors[0])
        best = max(abs(np.vdot(c, h)) for c in codebook.entries)
        assert abs(gain - best) < 1e-8


# -- stochastic WMMSE ----------------------------------------------------------

def test_swmmse_single_user_reaches_capacity():
    rng = np.random.default_rng(6)
    mean = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    model = _degenerate_model([mean])
    rho, sigma_n2 = 1.0, 0.1
    out = swmmse_precoders(model, [1], sigma_n2, rho,
                           SwmmseOptions(max_iters=300, seed=0))
    capacity = np.log2(1.0 + rho * np.sum(np.abs(mean) ** 2) / sigma_n2)
    achieved = sum_rate(mean[None, :], out, sigma_n2)
    assert achieved > 0.99 * capacity


def test_swmmse_power_constraint_every_iteration():
    rng = np.random.default_rng(7)
    means = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    model = _degenerate_model(means, eps=0.01)
    rho = 1.3
    out = swmmse_precoders(model, [1, 2], 0.2, rho,
                           SwmmseOptions(max_iters=120, seed=1))
    assert np.all(out.metadata["power"] <= rho + 1e-6)


def test_swmmse_deterministic_given_seed():
    rng = np.random.default_rng(8)
    means = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    model = _degenerate_model(means, eps=0.05)
    opts = SwmmseOptions(max_iters=50, seed=9)
    a = swmmse_precoders(model, [1, 2], 0.1, 1.0, opts)
    b = swmmse_precoders(model, [1, 2], 0.1, 1.0, opts)
    assert np.array_equal(a.vectors, b.vectors)


def test_swmmse_matches_per_user_reference(desk_model):
    # distinct and repeated components pin each user's sampling root and
    # the random stream; the power steps agree to their 1e-9 window
    components = [2, 0, 2, 9]
    indices = [k + 1 for k in components]
    for sigma_n2 in (1.0, 0.1, 0.01):
        out = swmmse_precoders(desk_model, indices, sigma_n2, 1.0,
                               SwmmseOptions(max_iters=40, seed=6))
        expected = stochastic_wmmse(desk_model, components, sigma_n2, 1.0,
                                    iters=40, seed=6)
        assert (np.linalg.norm(out.vectors - expected)
                <= 1e-6 * np.linalg.norm(expected))


@pytest.mark.parametrize("seed", [0, 6, 21])
@pytest.mark.parametrize("sigma_n2", [1.0, 0.1, 0.001])
def test_swmmse_matches_reference_loop_bit_for_bit(desk_model, seed, sigma_n2):
    # 8 users on 16 antennas: the first iterations take the eigen path
    components = [2, 0, 2, 9, 15, 4, 4, 11]
    options = SwmmseOptions(max_iters=60, seed=seed)
    out = swmmse_precoders(desk_model, [k + 1 for k in components],
                           sigma_n2, 1.0, options)
    vectors, objective, ridge, factorizations, eigen = reference_swmmse(
        desk_model, components, sigma_n2, 1.0, options)
    assert out.vectors.tobytes() == vectors.tobytes()
    assert out.metadata["objective"].tobytes() == objective.tobytes()
    assert out.metadata["ridge"].tobytes() == ridge.tobytes()
    assert np.array_equal(out.metadata["factorizations"], factorizations)
    assert out.metadata["eigen_iterations"] == eigen


def test_swmmse_two_user_matches_deterministic_oracle():
    # moderately correlated pair: both users stay active at the optimum
    # (the 1/t averaging approaches user-shutdown solutions only slowly)
    rng = np.random.default_rng(0)
    channels = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sigma_n2, rho = 0.1, 1.0
    model = _degenerate_model(channels)
    out = swmmse_precoders(model, [1, 2], sigma_n2, rho,
                           SwmmseOptions(max_iters=300, seed=2))
    achieved = sum_rate(channels, out, sigma_n2)
    oracle_vectors = deterministic_wmmse(channels, sigma_n2, rho)
    oracle = sum_rate(channels,
                      PrecoderSet(oracle_vectors, rho, "oracle"), sigma_n2)
    assert abs(achieved - oracle) <= 0.02 * oracle


def test_swmmse_permutation_equivariance():
    rng = np.random.default_rng(11)
    mean = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    model = _degenerate_model([mean])
    opts = SwmmseOptions(max_iters=40, seed=3)
    out = swmmse_precoders(model, [1, 1], 0.2, 1.0, opts)
    swapped = swmmse_precoders(model, [1, 1], 0.2, 1.0, opts)
    np.testing.assert_allclose(out.vectors, swapped.vectors[[0, 1]],
                               atol=1e-5)


def test_swmmse_trajectory_metadata():
    rng = np.random.default_rng(12)
    means = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    model = _degenerate_model(means, eps=0.02)
    opts = SwmmseOptions(max_iters=25, seed=4)
    out = swmmse_precoders(model, [1, 2], 0.1, 1.0, opts)
    assert out.metadata["precoders"].shape == (25, 2, 3)
    assert len(out.metadata["objective"]) == 25
    assert out.designer == "swmmse"


def test_swmmse_validates_reports():
    model = _degenerate_model([[1.0 + 0j, 0.0]])
    with pytest.raises(ValueError, match=r"outside 1\.\.1"):
        swmmse_precoders(model, [2], 0.1, 1.0)
    with pytest.raises(ValueError):
        swmmse_precoders(model, [1], 0.0, 1.0)


@pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
def test_designers_reject_invalid_power_budget(rho):
    model = _degenerate_model([[1.0 + 0j, 0.5j]])
    with pytest.raises(ValueError, match="rho"):
        swmmse_precoders(model, [1], 0.1, rho)
    with pytest.raises(ValueError, match="rho"):
        rci_precoders(np.array([[1.0 + 0j, 0.5j]]), 0.1, rho)


def test_swmmse_power_step_work_at_desk_scale(desk_model):
    # N=16, 8 users: the first iteration's statistics have rank 8, so the
    # eigen path runs there; later steps are warm-started Newton steps
    out = swmmse_precoders(desk_model, [1, 3, 3, 5, 8, 11, 14, 16],
                           0.1, 1.0, SwmmseOptions(max_iters=300, seed=5))
    factorizations = out.metadata["factorizations"]
    assert factorizations.shape == (300,)
    assert out.metadata["eigen_iterations"] >= 1
    assert np.mean(factorizations) <= 6.0
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
