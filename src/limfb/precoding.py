"""Downlink precoder design from feedback indices.

Two designers are provided. Regularized channel inversion (RCI) turns one
channel representative per user into a jointly regularized inverse, scaled
by a single common factor to meet the power budget. The stochastic WMMSE
designer never sees a representative: it redraws one channel sample per user
and iteration from the reported mixture component and averages the weighted
MMSE statistics over iterations, so the precoders optimize the expected
sum-rate under the component distributions. Its power step finds the least
ridge that meets the budget by warm-started Newton steps, one Cholesky
factorization each.

Rates everywhere use the bilinear pairing ``h^T v``; designers therefore
consume conjugated representatives internally so that a representative equal
to the true channel direction yields the maximal beamforming gain.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .gmm import _component_sqrt

logger = logging.getLogger(__name__)

_POWER_SLACK = 1e-6
_EIGEN_GAP_TIE = 1e-10
_EPS = np.finfo(float).eps
_WEIGHT_CLAMP = 1e6
_NEWTON_STEPS = 100
_POWER_TOL = 1e-9  # a power step ends within _POWER_TOL * rho below rho


@dataclass
class SwmmseOptions:
    """Stochastic WMMSE knobs; the step size is gamma_t = 1/t."""

    max_iters: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


class PrecoderSet:
    """J precoding vectors under a total power budget, plus designer metadata."""

    def __init__(self, vectors, rho, designer, metadata=None):
        vectors = np.asarray(vectors, dtype=np.complex128)
        if vectors.ndim != 2:
            raise ValueError("precoders must form a (J, N) matrix")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("precoders must be finite")
        power = float(np.sum(np.abs(vectors) ** 2))
        if power > rho + _POWER_SLACK:
            raise ValueError(f"power constraint violated: {power} > {rho}")
        self.vectors = vectors
        self.rho = float(rho)
        self.designer = designer
        self.metadata = metadata or {}

    @property
    def power(self):
        return float(np.sum(np.abs(self.vectors) ** 2))


def directional_representatives(model, indices):
    """Unit dominant eigenvectors of ``C_k + mu_k mu_k^H`` for the 1-based
    ``indices`` (repeats allowed), from one stacked ``eigh``.

    The largest-magnitude entry is made real positive. Near-degenerate top
    eigenvalues are logged; any maximizer is returned in that case.
    """
    n_comp = model.n_components
    indices = np.asarray(indices, dtype=np.intp).reshape(-1)
    if np.any((indices < 1) | (indices > n_comp)):
        raise ValueError(f"component indices outside 1..{n_comp}")
    means = model.means[indices - 1]
    corr = (model.covariances[indices - 1]
            + means[:, :, None] * means[:, None, :].conj())
    eigvals, eigvecs = np.linalg.eigh(corr)
    reps = np.empty((len(indices), model.dim), dtype=np.complex128)
    for row, k in enumerate(indices):
        if model.dim > 1 and eigvals[row, -1] - eigvals[row, -2] < _EIGEN_GAP_TIE:
            logger.warning("component %d has a near-degenerate dominant eigenvalue", k)
        vec = eigvecs[row, :, -1]
        pivot = np.argmax(np.abs(vec))
        vec = vec * (vec[pivot] / abs(vec[pivot])).conj()
        reps[row] = vec / np.linalg.norm(vec)
    return reps


def rci_precoders(representatives, sigma_n2, rho):
    """Regularized channel inversion from per-user channel representatives.

    Solves ``(sum_m conj(h~_m) h~_m^T + (J sigma_n2 / rho) I) u_j = conj(h~_j)``
    and scales all columns by one common factor so the total power equals
    rho exactly (per-user rescaling would destroy the RCI directions).
    Representatives are normalized to unit norm first; both feedback routes
    hand over unit-norm vectors, and a fixed regularizer is only meaningful
    on that scale.
    """
    _check_rho(rho)
    reps = np.asarray(representatives, dtype=np.complex128)
    if reps.ndim != 2 or reps.shape[0] < 1:
        raise ValueError("need a (J, N) matrix of representatives")
    norms = np.linalg.norm(reps, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("representatives must be nonzero")
    reps = reps / norms[:, None]
    n_users = reps.shape[0]
    regularizer = n_users * sigma_n2 / rho
    gram = reps.conj().T @ reps + regularizer * np.eye(reps.shape[1])
    rhs = reps.conj().T
    flagged = False
    try:
        unnormalized = np.linalg.solve(gram, rhs)
        residual = np.linalg.norm(gram @ unnormalized - rhs)
        if not np.all(np.isfinite(unnormalized)) or residual > 1e-8 * n_users:
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        flagged = True
        logger.warning("singular RCI system; adding diagonal ridge")
        gram = gram + 1e-12 * n_users * np.eye(reps.shape[1])
        unnormalized = np.linalg.solve(gram, rhs)
    total = np.sum(np.abs(unnormalized) ** 2)
    beta = np.sqrt(rho / total)
    vectors = (beta * unnormalized).T
    return PrecoderSet(vectors, rho, "rci",
                       metadata={"regularizer": regularizer, "beta": beta,
                                 "ridged": flagged})


def _sum_rate_matrix(channels, vectors, sigma_n2):
    """Sum-rate of each stacked (channels, vectors) pair of (J, N) matrices."""
    gains = channels @ np.swapaxes(vectors, -1, -2)
    signal = np.abs(np.diagonal(gains, axis1=-2, axis2=-1)) ** 2
    interference = np.sum(np.abs(gains) ** 2, axis=-1) - signal
    return np.sum(np.log2(1.0 + signal / (interference + sigma_n2)), axis=-1)


def _check_rho(rho):
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be finite and > 0, got {rho}")


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


def _power_step(cov, rhs, rho, lam=0.0):
    """Least-ridge rows ``((cov + lam I)^-1 rhs^T)^T`` with power <= rho.

    Returns ``(vectors, lam, factorizations, eigen)``. The ridge is 0 when
    the pseudo-inverse over the eigenvalues above 1e-13 of the top fits the
    budget (weight outside that subspace needs unbounded power, unless it is
    no more than ``eigh`` leaks there); otherwise the power is within
    ``_POWER_TOL * rho`` of rho. Newton starts from ``lam``, the previous
    ridge, at one Cholesky factorization per step. A singular or
    ill-conditioned ``cov`` at ``lam = 0``, or a ridge below what
    ``cov + lam I`` resolves, hands the step to one ``eigh`` (``eigen``).
    """
    # phi(hi) <= rho
    hi = np.linalg.norm(rhs) / np.sqrt(rho * (1.0 - 0.5 * _POWER_TOL))
    dim = cov.shape[0]
    shifted = np.empty((dim, dim), dtype=np.complex128, order="F")
    diagonal = shifted.T.reshape(-1)[::dim + 1]  # a view: shifted.T is C-order
    rhs_t = np.asfortranarray(rhs.T)
    factorizations = 0

    def cholesky_solve(lam):
        nonlocal factorizations
        shifted[...] = cov
        np.add(diagonal, lam, out=diagonal)
        chol, info = lapack.zpotrf(shifted, lower=1, clean=0, overwrite_a=1)
        factorizations += 1
        if info != 0 or lam == 0.0 and _ill_conditioned(cov, chol):
            return None
        x, _ = lapack.zpotrs(chol, rhs_t, lower=1)
        z, _ = lapack.ztrtrs(chol, x, lower=1)
        return np.vdot(x, x).real, np.vdot(z, z).real, x.T

    resolution = 8.0 * _EPS * np.max(cov.diagonal().real)
    found = _ridge_newton(cholesky_solve, rho, _POWER_TOL, lam, [0.0, hi],
                          True, resolution)
    if found is not None:
        return *found, factorizations, False

    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.maximum(eigvals, 0.0)
    coeffs = rhs @ eigvecs.conj()  # rows: b_j in the eigenbasis
    coeffs_sq = np.abs(coeffs) ** 2
    active = eigvals > max(eigvals[-1], 1e-300) * 1e-13
    # eigh leaks ~(eps |A| / gap)^2 of the weight onto inactive directions
    gap = (np.min(eigvals[active], initial=np.inf)
           - np.max(eigvals[~active], initial=0.0))
    leak = max(1e-24, (10.0 * _EPS * eigvals[-1] / gap) ** 2)
    if (not np.any(coeffs_sq[:, ~active] > leak * max(coeffs_sq.sum(), 1e-300))
            and np.sum(coeffs_sq[:, active] / eigvals[active] ** 2) <= rho):
        inv = np.where(active, 1.0 / np.maximum(eigvals, 1e-300), 0.0)
        return (coeffs * inv) @ eigvecs.T, 0.0, factorizations, True
    weights = coeffs_sq.sum(axis=0)

    def eigen_solve(lam):
        inv = 1.0 / (eigvals + lam)
        return weights @ inv ** 2, weights @ inv ** 3, None

    bracket = [0.0, hi]
    found = _ridge_newton(eigen_solve, rho, _POWER_TOL, lam, bracket, False, 0.0)
    # no root when weight on an inactive direction rules lam = 0 out while
    # its eigenvalue keeps phi(0+) <= rho: the least feasible ridge tried
    # stands in
    lam = bracket[1] if found is None else found[1]
    return (coeffs / (eigvals + lam)) @ eigvecs.T, lam, factorizations, True


def swmmse_precoders(model, indices, sigma_n2, rho, options=None):
    """Stochastic WMMSE precoders driven by mixture component samples.

    Per iteration t: draw one sample per user from its reported component,
    compute scalar MMSE receivers and clamped MSE weights on the samples,
    fold the weighted statistics into running averages with step size 1/t,
    and re-solve the regularized system with the least ridge that meets the
    power budget (:func:`_power_step`, warm-started from the previous ridge).
    The trajectory metadata records the per-iteration power, ridge,
    sampled-channel objective and precoder snapshots (used to evaluate
    sum-rate over iterations without re-running), the Cholesky factorizations
    of each power step and the number of iterations that took the eigen path.
    """
    options = options or SwmmseOptions()
    _check_rho(rho)
    if sigma_n2 <= 0:
        raise ValueError("sigma_n2 must be positive")
    comps = np.asarray(indices, dtype=np.intp).reshape(-1) - 1
    n_users = len(comps)
    if n_users < 1:
        raise ValueError("need at least one feedback index")
    if np.any((comps < 0) | (comps >= model.n_components)):
        raise ValueError(f"feedback indices outside 1..{model.n_components}")
    dim = model.dim
    unique, inverse = np.unique(comps, return_inverse=True)
    roots = np.stack([_component_sqrt(model.covariances[k]) for k in unique])[inverse]
    # the draws of all T + 1 rounds (real, then imaginary parts, round by
    # round) in one call: the same random stream as one call per round
    noise = np.random.default_rng(options.seed).standard_normal(
        (options.max_iters + 1, 2, n_users, dim))
    white = (noise[:, 0] + 1j * noise[:, 1]) / np.sqrt(2.0)
    samples = (roots @ white[..., None])[..., 0]
    samples += model.means[comps]
    del noise, white

    init_norms = np.linalg.norm(samples[0], axis=1)
    vectors = np.sqrt(rho / n_users) * samples[0].conj() / init_norms[:, None]

    avg_cov = np.zeros((dim, dim), dtype=np.complex128)
    avg_rhs = np.zeros((n_users, dim), dtype=np.complex128)
    lambda_track = np.empty(options.max_iters)
    factorizations = np.empty(options.max_iters, dtype=np.int64)
    eigen_iterations = 0
    lam = 0.0
    snapshots = np.empty((options.max_iters, n_users, dim), dtype=np.complex128)

    for t in range(1, options.max_iters + 1):
        sample = samples[t]
        gains = sample @ vectors.T  # gains[j, m] = h_j^T v_m
        denom = np.sum(np.abs(gains) ** 2, axis=1) + sigma_n2
        direct = np.diagonal(gains)
        receivers = direct.conj() / denom
        mse = 1.0 - (receivers * direct).real
        weights = np.clip(1.0 / np.maximum(mse, 1e-300), 1.0, _WEIGHT_CLAMP)

        gamma = 1.0 / t
        coef = weights * np.abs(receivers) ** 2
        avg_cov *= 1.0 - gamma
        avg_cov += gamma * (sample.conj().T * coef) @ sample
        avg_rhs *= 1.0 - gamma
        avg_rhs += gamma * (weights * receivers.conj())[:, None] * sample.conj()

        vectors, lam, factorizations[t - 1], eigen = _power_step(
            avg_cov, avg_rhs, rho, lam)
        eigen_iterations += eigen
        if not np.all(np.isfinite(vectors)):
            raise RuntimeError(
                f"stochastic WMMSE diverged at iteration {t} "
                f"(lambda={lam}, power={np.sum(np.abs(vectors) ** 2)})")

        lambda_track[t - 1] = lam
        snapshots[t - 1] = vectors

    # the tracks of all iterations in one batched product
    metadata = {
        "power": np.sum(np.abs(snapshots) ** 2, axis=(1, 2)),
        "objective": _sum_rate_matrix(samples[1:], snapshots, sigma_n2),
        "ridge": lambda_track,
        "factorizations": factorizations,
        "eigen_iterations": eigen_iterations,
        "precoders": snapshots,
    }
    return PrecoderSet(vectors, rho, "swmmse", metadata=metadata)
