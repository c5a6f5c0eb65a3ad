"""Reference implementations for the WMMSE designer, shared by tests.

The eigen-decomposition references solve the power step from scratch.
``reference_power_step`` keeps an earlier Cholesky power step, whose ridge
search takes plain Newton steps and solves for the slope at every
factorization; the library's step must make the same decisions and agree
to its window. ``reference_swmmse`` keeps an earlier, straightforward form
of the stochastic WMMSE loop around the library's power step, which the
optimized designer must reproduce bit for bit.
"""

import numpy as np
from scipy.linalg import cholesky, lapack

from limfb.precoding import _NEWTON_STEPS, _WEIGHT_CLAMP, _power_step


def _ill_conditioned(cov, chol):
    """Whether tr(cov) tr(cov^-1), a condition-number bound, reaches 1e13."""
    inv, info = lapack.ztrtri(chol, lower=1)  # chol's upper triangle is junk
    return info != 0 or np.trace(cov).real * np.linalg.norm(np.tril(inv)) ** 2 >= 1e13


def _ridge_newton(solve, rho, tol, lam, bracket, zero_open, resolution):
    """Safeguarded Newton on ``phi^-1/2`` (Moré & Sorensen, SIAM J. Sci. Stat.
    Comput. 1983) for the least ridge with ``rho - tol rho <= phi <= rho``.

    ``solve(lam)`` gives ``(phi, -phi'/2, solution)`` or None where it cannot
    resolve ``lam``. Steps outside the bracket ``[lo, hi]`` (updated in place)
    go to 0 once while ``zero_open``, else to ``max(sqrt(lo hi), hi / 1000)``.
    A ridge in the window is accepted only once ``phi(0) <= rho`` is ruled out.
    Returns ``(solution, lam)``, or None when ``solve`` or the step fails.
    """
    target = rho * (1.0 - 0.5 * tol)  # the middle of the window
    for _ in range(_NEWTON_STEPS):
        lo, hi = bracket
        if lam <= lo == 0.0 and zero_open:
            lam, zero_open = 0.0, False
        elif not lo < lam < hi:
            lam = max(np.sqrt(lo * hi), 1e-3 * hi)
        found = solve(lam)
        if found is None:
            return None
        power, half_slope, solution = found
        # in the window, but phi(0) >= power + 2 half_slope lam (phi is
        # convex) leaves phi(0) <= rho open: lam = 0 is tried first
        if (zero_open and rho - power <= tol * rho
                and power + 2.0 * half_slope * lam <= rho):
            bracket[1], lam = lam, 0.0
            continue
        if power > rho:
            bracket[0] = lam
        elif lam == 0.0 or rho - power <= tol * rho:
            return solution, lam
        else:
            bracket[1] = lam
        step = power / half_slope * (np.sqrt(power / target) - 1.0)
        if abs(step) <= resolution or bracket[1] - bracket[0] <= resolution:
            return None
        lam += step
    return None


def _null_leak(eigvals, active):
    """Share of the weight eigh may leak onto the inactive eigenvectors."""
    leak = 1e-24
    if np.any(active) and not np.all(active):
        gap = np.min(eigvals[active]) - np.max(eigvals[~active])
        leak = max(leak, (10.0 * np.finfo(float).eps * eigvals[-1] / gap) ** 2)
    return leak


def eigen_power_step(cov, rhs, rho):
    """Least-ridge rows ``((cov + lam I)^+ rhs^T)^T`` with power <= rho.

    Returns ``(vectors, lam)``. The ridge is 0 when the pseudo-inverse over
    the eigenvalues above 1e-13 of the largest meets the budget (weight of
    ``rhs`` outside that subspace needs unbounded power, unless no entry
    exceeds the larger of 1e-24 and ``(10 eps |A| / gap)^2`` of the total
    weight, ``gap`` being the spread between the least eigenvalue inside and
    the largest outside: that much ``eigh`` may leak there); otherwise 100
    bisection steps on the eigen-coordinate power profile end on the
    feasible side.
    """
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.maximum(eigvals, 0.0)
    coeffs = rhs @ eigvecs.conj()
    coeffs_sq = np.abs(coeffs) ** 2
    active = eigvals > max(eigvals[-1], 1e-300) * 1e-13
    leak = _null_leak(eigvals, active)
    zero_power = np.inf
    if not np.any(coeffs_sq[:, ~active] > leak * coeffs_sq.sum()):
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
    stream is the one ``swmmse_white(seed, iters + 1, J, N)`` draws.
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


def reference_power_step(cov, rhs, rho, tol, lam=0.0):
    """An earlier ``precoding._power_step``: a fresh ``cov + lam I`` per
    solve, the slope solved at every factorization and Newton steps only."""
    hi = np.linalg.norm(rhs) / np.sqrt(rho * (1.0 - 0.5 * tol))  # phi(hi) <= rho
    eye = np.eye(cov.shape[0])
    factorizations = 0

    def cholesky_solve(lam):
        nonlocal factorizations
        chol, info = lapack.zpotrf(cov + lam * eye, lower=1, clean=0)
        factorizations += 1
        if info != 0 or lam == 0.0 and _ill_conditioned(cov, chol):
            return None
        x, _ = lapack.zpotrs(chol, rhs.T, lower=1)
        z, _ = lapack.ztrtrs(chol, x, lower=1)
        return np.vdot(x, x).real, np.vdot(z, z).real, x.T

    resolution = 8.0 * np.finfo(float).eps * np.max(cov.diagonal().real)
    found = _ridge_newton(cholesky_solve, rho, tol, lam, [0.0, hi], True,
                          resolution)
    if found is not None:
        return *found, factorizations, False

    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.maximum(eigvals, 0.0)
    coeffs = rhs @ eigvecs.conj()  # rows: b_j in the eigenbasis
    coeffs_sq = np.abs(coeffs) ** 2
    active = eigvals > max(eigvals[-1], 1e-300) * 1e-13
    leak = _null_leak(eigvals, active)
    if (not np.any(coeffs_sq[:, ~active] > leak * max(coeffs_sq.sum(), 1e-300))
            and np.sum(coeffs_sq[:, active] / eigvals[active] ** 2) <= rho):
        inv = np.where(active, 1.0 / np.maximum(eigvals, 1e-300), 0.0)
        return (coeffs * inv) @ eigvecs.T, 0.0, factorizations, True
    weights = coeffs_sq.sum(axis=0)

    def eigen_solve(lam):
        inv = 1.0 / (eigvals + lam)
        return weights @ inv ** 2, weights @ inv ** 3, None

    bracket = [0.0, hi]
    found = _ridge_newton(eigen_solve, rho, tol, lam, bracket, False, 0.0)
    lam = bracket[1] if found is None else found[1]
    return (coeffs / (eigvals + lam)) @ eigvecs.T, lam, factorizations, True


def reference_swmmse(model, components, sigma_n2, rho, iters, seed,
                     samples=None):
    """The stochastic WMMSE loop drawing one round at a time.

    ``components`` are 0-based, one per user; the rounds come from one
    stream of ``seed``, as ``swmmse_white(seed, iters + 1, J, N)`` draws
    them, and each user's sample is one matrix-vector product with its
    component's Cholesky factor. Given ``samples`` (shape (iters + 1, J,
    N)), the loop takes its rounds from there instead. Returns ``(vectors,
    objective, ridge, factorizations, eigen_iterations)``.
    """
    n_users, dim = len(components), model.dim
    unique, inverse = np.unique(components, return_inverse=True)
    roots = np.stack([cholesky(model.covariances[k], lower=True)
                      for k in unique])[inverse]
    means = model.means[components]
    rng = np.random.default_rng(seed)
    given = iter(()) if samples is None else iter(samples)

    def draw():
        found = next(given, None)
        if found is not None:
            return found
        white = (rng.standard_normal((n_users, dim))
                 + 1j * rng.standard_normal((n_users, dim))) / np.sqrt(2.0)
        return means + (roots @ white[:, :, None])[:, :, 0]

    init = draw()
    init_norms = np.linalg.norm(init, axis=1)
    vectors = np.sqrt(rho / n_users) * init.conj() / init_norms[:, None]

    avg_cov = np.zeros((dim, dim), dtype=np.complex128)
    avg_rhs = np.zeros((n_users, dim), dtype=np.complex128)
    objective_track = np.empty(iters)
    lambda_track = np.empty(iters)
    factorizations = np.empty(iters, dtype=np.int64)
    eigen_iterations = 0
    lam = 0.0

    for t in range(1, iters + 1):
        samples = draw()
        gains = samples @ vectors.T  # gains[j, m] = h_j^T v_m
        denom = np.sum(np.abs(gains) ** 2, axis=1) + sigma_n2
        direct = np.diagonal(gains)
        receivers = direct.conj() / denom
        mse = 1.0 - (receivers * direct).real
        weights = np.clip(1.0 / np.maximum(mse, 1e-300), 1.0, _WEIGHT_CLAMP)

        gamma = t ** -1.0
        coef = weights * np.abs(receivers) ** 2
        avg_cov = (1.0 - gamma) * avg_cov + gamma * (samples.conj().T * coef) @ samples
        avg_rhs = ((1.0 - gamma) * avg_rhs
                   + gamma * (weights * receivers.conj())[:, None] * samples.conj())

        vectors, lam, factorizations[t - 1], eigen = _power_step(
            avg_cov, avg_rhs, rho, lam)
        eigen_iterations += eigen

        gains = samples @ vectors.T
        signal = np.abs(np.diagonal(gains)) ** 2
        interference = np.sum(np.abs(gains) ** 2, axis=1) - signal
        objective_track[t - 1] = np.sum(np.log2(1.0 + signal
                                                / (interference + sigma_n2)))
        lambda_track[t - 1] = lam

    return (vectors, objective_track, lambda_track, factorizations,
            eigen_iterations)
