"""Eigen-decomposition references for the WMMSE power step, shared by tests."""

import numpy as np


def eigen_power_step(cov, rhs, rho):
    """Least-ridge rows ``((cov + lam I)^+ rhs^T)^T`` with power <= rho.

    Returns ``(vectors, lam)``. The ridge is 0 when the pseudo-inverse over
    the eigenvalues above 1e-13 of the largest meets the budget (weight of
    ``rhs`` outside that subspace needs unbounded power); otherwise 100
    bisection steps on the eigen-coordinate power profile end on the
    feasible side.
    """
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.maximum(eigvals, 0.0)
    coeffs = rhs @ eigvecs.conj()
    coeffs_sq = np.abs(coeffs) ** 2
    active = eigvals > max(eigvals[-1], 1e-300) * 1e-13
    zero_power = np.inf
    if not np.any(coeffs_sq[:, ~active] > 1e-24 * coeffs_sq.sum()):
        zero_power = np.sum(coeffs_sq[:, active] / eigvals[active] ** 2)
    if zero_power <= rho:
        inv = np.where(active, 1.0 / np.maximum(eigvals, 1e-300), 0.0)
        return (coeffs * inv) @ eigvecs.T, 0.0

    def power(lam):
        return np.sum(coeffs_sq / (eigvals + lam) ** 2)

    lo, hi = 0.0, np.sqrt(np.sum(coeffs_sq) / rho) + 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if power(mid) > rho:
            lo = mid
        else:
            hi = mid
    return (coeffs / (eigvals + hi)) @ eigvecs.T, hi


def deterministic_wmmse(channels, sigma_n2, rho, iters=300):
    """Reference WMMSE on fixed channels: unit step, no sampling."""
    n_users = channels.shape[0]
    vectors = np.sqrt(rho / n_users) * channels.conj() \
        / np.linalg.norm(channels, axis=1, keepdims=True)
    for _ in range(iters):
        gains = channels @ vectors.T
        denom = np.sum(np.abs(gains) ** 2, axis=1) + sigma_n2
        direct = np.diagonal(gains)
        receivers = direct.conj() / denom
        weights = 1.0 / np.maximum(1.0 - (receivers * direct).real, 1e-12)
        coef = weights * np.abs(receivers) ** 2
        cov = (channels.conj().T * coef) @ channels
        rhs = (weights * receivers.conj())[:, None] * channels.conj()
        vectors, _ = eigen_power_step(cov, rhs, rho)
    return vectors


def stochastic_wmmse(model, components, sigma_n2, rho, iters, seed):
    """Reference stochastic WMMSE: per-user sampling loop, eigen power step.

    ``components`` are 0-based component indices, one per user; the random
    stream is the one ``swmmse_precoders`` draws with ``seed``.
    """
    n_users, dim = len(components), model.dim
    roots = [np.linalg.cholesky(model.covariances[k]) for k in components]
    rng = np.random.default_rng(seed)

    def draw():
        white = (rng.standard_normal((n_users, dim))
                 + 1j * rng.standard_normal((n_users, dim))) / np.sqrt(2.0)
        return np.array([model.means[k] + roots[j] @ white[j]
                         for j, k in enumerate(components)])

    init = draw()
    vectors = np.sqrt(rho / n_users) * init.conj() \
        / np.linalg.norm(init, axis=1, keepdims=True)
    cov = np.zeros((dim, dim), dtype=complex)
    rhs = np.zeros((n_users, dim), dtype=complex)
    for t in range(1, iters + 1):
        samples = draw()
        gains = samples @ vectors.T
        denom = np.sum(np.abs(gains) ** 2, axis=1) + sigma_n2
        direct = np.diagonal(gains)
        receivers = direct.conj() / denom
        mse = 1.0 - (receivers * direct).real
        weights = np.clip(1.0 / np.maximum(mse, 1e-300), 1.0, 1e6)
        coef = weights * np.abs(receivers) ** 2
        cov = (1.0 - 1.0 / t) * cov + (samples.conj().T * coef) @ samples / t
        rhs = ((1.0 - 1.0 / t) * rhs
               + (weights * receivers.conj())[:, None] * samples.conj() / t)
        vectors, _ = eigen_power_step(cov, rhs, rho)
    return vectors
