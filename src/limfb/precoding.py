"""Downlink precoder design from feedback indices.

Two designers are provided. Regularized channel inversion (RCI) turns one
channel representative per user into a jointly regularized inverse, scaled
by a single common factor to meet the power budget. The stochastic WMMSE
designer never sees a representative: it takes one channel sample per user
and iteration from the reported mixture component and averages the weighted
MMSE statistics over iterations, so the precoders optimize the expected
sum-rate under the component distributions. Its power step finds the least
ridge that meets the budget from the previous ridge, one Cholesky
factorization per step: the first step follows a third-order model of the
power, so most iterations take two factorizations. A design factors in one
workspace and keeps its per-iteration quantities in buffers made once.
Sampling is split from the design: a caller with a seed makes the unit
draws with :func:`swmmse_white`, turns them into the samples of the
reported components with :func:`swmmse_samples`, and designs from those
with :func:`swmmse_precoders`. In a sweep, the designs of one constellation
share one draw, and designs with equal model and indices one sample set.

Rates everywhere use the bilinear pairing ``h^T v``; designers therefore
consume conjugated representatives internally so that a representative equal
to the true channel direction yields the maximal beamforming gain.
"""

import logging
import math

import numpy as np
from scipy.linalg import blas, cholesky, lapack

logger = logging.getLogger(__name__)

_POWER_SLACK = 1e-6
_EIGEN_GAP_TIE = 1e-8  # of the top; ill-conditioned fits move C_k by ~1e-8
_EPS = np.finfo(float).eps
_WEIGHT_CLAMP = 1e6
_NEWTON_STEPS = 100
_POWER_TOL = 1e-9  # a power step ends within _POWER_TOL * rho below rho
_SERIES_TERM = 0.3  # the most each series term may change a Newton step


class PrecoderSet:
    """J precoding vectors under a total power budget, plus designer metadata."""

    def __init__(self, vectors, rho, metadata=None):
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
        self.metadata = metadata or {}

    @property
    def power(self):
        return float(np.sum(np.abs(self.vectors) ** 2))


def _component_indices(indices, n_comp):
    """The 1-based ``indices`` as a flat array of integers in 1..n_comp."""
    found = np.asarray(indices).reshape(-1)
    if found.size and found.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got {found.dtype}")
    if np.any((found < 1) | (found > n_comp)):
        raise ValueError(f"component indices outside 1..{n_comp}")
    return found.astype(np.intp)


def directional_representatives(model, indices):
    """Unit dominant eigenvectors of ``C_k + mu_k mu_k^H`` for the 1-based
    ``indices`` (repeats allowed), as a fresh (J, N) array.

    A component's row is computed on its first request and kept on the
    model; one stacked ``eigh`` covers the components still missing, and
    its rows equal the rows computed alone. The largest-magnitude entry is
    made real positive. A top eigenvalue gap below ``_EIGEN_GAP_TIE`` of
    the top eigenvalue is logged; any maximizer is returned in that case.
    """
    indices = _component_indices(indices, model.n_components)
    kept = model._representatives
    missing = [k for k in dict.fromkeys(indices.tolist()) if k not in kept]
    if missing:
        rows = np.array(missing) - 1
        means = model.means[rows]
        corr = (model.covariances[rows]
                + means[:, :, None] * means[:, None, :].conj())
        eigvals, eigvecs = np.linalg.eigh(corr)
        for row, k in enumerate(missing):
            top = eigvals[row, -1]
            if model.dim > 1 and top - eigvals[row, -2] < _EIGEN_GAP_TIE * top:
                logger.warning("component %d has a near-degenerate dominant eigenvalue", k)
            vec = eigvecs[row, :, -1]
            pivot = np.argmax(np.abs(vec))
            vec = vec * (vec[pivot] / abs(vec[pivot])).conj()
            kept[k] = vec / np.linalg.norm(vec)
    return np.array([kept[k] for k in indices.tolist()],
                    dtype=np.complex128).reshape(len(indices), model.dim)


def rci_precoders(representatives, sigma_n2, rho):
    """Regularized channel inversion from per-user channel representatives.

    Solves ``(sum_m conj(h~_m) h~_m^T + (J sigma_n2 / rho) I) u_j = conj(h~_j)``
    and scales all columns by one common factor so the total power equals
    rho exactly (per-user rescaling would destroy the RCI directions).
    Representatives are normalized to unit norm first; both feedback routes
    hand over unit-norm vectors, and a fixed regularizer is only meaningful
    on that scale. ``sigma_n2`` must be finite and >= 0; 0 gives
    zero-forcing.
    """
    _check_rho(rho)
    _check_noise(sigma_n2, allow_zero=True)
    reps = np.asarray(representatives, dtype=np.complex128)
    if reps.ndim != 2 or reps.shape[0] < 1 or not np.isfinite(reps).all():
        raise ValueError("need a finite (J, N) matrix of representatives")
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
    vectors = (np.sqrt(rho / total) * unnormalized).T
    return PrecoderSet(vectors, rho, metadata={"ridged": flagged})


def _sum_rate_matrix(channels, vectors, sigma_n2):
    """Sum-rate of each stacked (channels, vectors) pair of (J, N) matrices."""
    gains = channels @ np.swapaxes(vectors, -1, -2)
    signal = np.abs(np.diagonal(gains, axis1=-2, axis2=-1)) ** 2
    interference = np.sum(np.abs(gains) ** 2, axis=-1) - signal
    return np.sum(np.log2(1.0 + signal / (interference + sigma_n2)), axis=-1)


def _check_rho(rho):
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be finite and > 0, got {rho}")


def _check_noise(sigma_n2, allow_zero):
    if not (np.isfinite(sigma_n2)
            and (sigma_n2 >= 0 if allow_zero else sigma_n2 > 0)):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"sigma_n2 must be finite and {bound}, got {sigma_n2}")


def _ill_conditioned(cov, chol):
    """Whether tr(cov) tr(cov^-1), a condition-number bound, reaches 1e13."""
    inv, info = lapack.ztrtri(chol, lower=1)  # chol's upper triangle is junk
    return info != 0 or np.trace(cov).real * np.linalg.norm(np.tril(inv)) ** 2 >= 1e13


def _ridge_newton(solve, moments, rho, lam, bracket, zero_open, resolution):
    """Safeguarded Newton on ``phi^-1/2`` (Moré & Sorensen, SIAM J. Sci. Stat.
    Comput. 1983) for the least ridge with
    ``rho - _POWER_TOL rho <= phi <= rho``.

    ``solve(lam)`` gives ``(phi, top, solution)`` or None where it cannot
    resolve ``lam``: ``top`` bounds the largest eigenvalue of ``A + lam I``
    from above. ``moments(n)`` gives, at the ``lam`` solved last, the first
    ``n`` of ``m_k = b^H (A + lam I)^-k b``, k = 3, 4, 5, so that
    ``phi' = -2 m_3``, ``phi'' = 6 m_4`` and ``phi''' = -24 m_5``. Moments
    are asked for only where a step needs them. The first step inverts the
    third-order Taylor model of ``phi^-1/2`` as a series, unless a term of
    the series changes the Newton step by more than ``_SERIES_TERM``; later
    steps are Newton steps. Steps outside the bracket ``[lo, hi]`` go to 0
    once while ``zero_open``, else to ``max(sqrt(lo hi), hi / 1000)``. A
    ridge in the window is accepted only once ``phi(0) <= rho`` is ruled
    out. Returns ``(solution, lam)``, or None when ``solve`` or the step
    fails; ``bracket`` then holds the last bracket.
    """
    target = rho * (1.0 - 0.5 * _POWER_TOL)  # the middle of the window
    lo, hi = bracket
    first = True
    for _ in range(_NEWTON_STEPS):
        if lam <= lo == 0.0 and zero_open:
            lam, zero_open = 0.0, False
        elif not lo < lam < hi:
            lam = max(math.sqrt(lo * hi), 1e-3 * hi)
        found = solve(lam)
        if found is None:
            break
        power, top, solution = found
        if power <= rho and (lam == 0.0 or rho - power <= _POWER_TOL * rho):
            # in the window at lam > 0, phi(0) >= power + 2 m_3 lam (phi is
            # convex) leaves phi(0) <= rho open, and lam = 0 is tried first;
            # m_3 >= power / top settles most ridges without m_3
            if (not zero_open or lam * power / top > rho - power + _EPS * rho
                    or power + 2.0 * moments(1)[0] * lam > rho):
                return solution, lam
            hi, lam = lam, 0.0
            continue
        if power > rho:
            lo = lam
        else:
            hi = lam
        if first:
            slope, m4, m5 = moments(3)
        else:
            slope, = moments(1)
        step = power / slope * (math.sqrt(power / target) - 1.0)
        if first:
            # phi^-1/2 (lam + d) / phi^-1/2 (lam) = 1 + u d + a2 d^2 + a3 d^3
            # reverted as a series in the Newton step; far from the root the
            # series diverges and the Newton step stands
            u, q4, q5 = slope / power, m4 / power, m5 / power
            b2 = 1.5 * (u - q4 / u)
            b3 = 2.5 * u * u - 4.5 * q4 + 2.0 * q5 / u
            second, third = b2 * step, (2.0 * b2 * b2 - b3) * step * step
            if max(abs(second), abs(third)) <= _SERIES_TERM:
                step *= 1.0 - second + third
            first = False
        if abs(step) <= resolution or hi - lo <= resolution:
            break
        lam += step
    bracket[:] = lo, hi
    return None


def _power_workspace(dim):
    """The buffer :func:`_power_step` factors ``cov + lam I`` in, in Fortran
    order for LAPACK, and a view of its diagonal."""
    shifted = np.empty((dim, dim), dtype=np.complex128, order="F")
    return shifted, shifted.T.reshape(-1)[::dim + 1]  # shifted.T is C-order


def _power_step(cov, rhs, rho, lam=0.0, workspace=None):
    """Least-ridge rows ``((cov + lam I)^-1 rhs^T)^T`` with power <= rho.

    Returns ``(vectors, lam, factorizations, eigen)``. The ridge is 0 when
    the pseudo-inverse over the eigenvalues above 1e-13 of the top fits the
    budget (weight outside that subspace needs unbounded power, unless it is
    no more than ``eigh`` leaks there); otherwise the power is within
    ``_POWER_TOL * rho`` of rho. The search starts from ``lam``, the
    previous ridge, at one Cholesky factorization per step, each in the
    buffer of ``workspace`` (from :func:`_power_workspace`; made here when
    None, so a caller that steps repeatedly passes its own). The factor in
    hand also gives the power's first three derivatives by triangular
    solves: the first step uses all three, later steps the slope alone, and
    a step that ends the search solves for none of them. A singular or
    ill-conditioned ``cov`` at ``lam = 0``, or a ridge below what
    ``cov + lam I`` resolves, hands the step to one ``eigh`` (``eigen``).
    """
    # phi(hi) <= rho; |rhs| by the two real dots of np.linalg.norm
    flat = rhs.ravel(order="K")
    real, imag = flat.real, flat.imag
    hi = (math.sqrt(real.dot(real) + imag.dot(imag))
          / math.sqrt(rho * (1.0 - 0.5 * _POWER_TOL)))
    dim = cov.shape[0]
    shifted, diagonal = workspace or _power_workspace(dim)
    rhs_t = np.asfortranarray(rhs.T)  # a view when rhs is C-order
    cov_diagonal = cov.diagonal().real
    trace = cov_diagonal.sum()
    factorizations = 0
    chol = x = None

    def cholesky_solve(lam):
        nonlocal factorizations, chol, x
        np.copyto(shifted, cov)
        np.add(diagonal, lam, diagonal)
        # positional arguments: f2py parses keywords at about 1 us a call
        chol, info = lapack.zpotrf(shifted, 1, 0, 1)  # lower, unclean, in place
        factorizations += 1
        if info != 0 or lam == 0.0 and _ill_conditioned(cov, chol):
            return None
        x, _ = lapack.zpotrs(chol, rhs_t, 1)  # lower
        x_t = x.T  # C-contiguous, so vdot copies nothing
        return np.vdot(x_t, x_t).real, trace + dim * lam, x_t

    def cholesky_moments(count):
        # m_3 = |L^-1 x|^2, m_4 = |L^-H L^-1 x|^2, m_5 = |L^-1 L^-H L^-1 x|^2;
        # x is the solution, the later right-hand sides are overwritten
        found, vec = [], x
        for k in range(count):  # lower, trans 0 or 2, non-unit, lda, in place
            vec, _ = lapack.ztrtrs(chol, vec, 1, 2 * (k % 2), 0, dim, k > 0)
            found.append(np.vdot(vec.T, vec.T).real)
        return found

    resolution = 8.0 * _EPS * cov_diagonal.max()
    found = _ridge_newton(cholesky_solve, cholesky_moments, rho, lam,
                          [0.0, hi], True, resolution)
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
        nonlocal inv
        inv = 1.0 / (eigvals + lam)
        return weights @ inv ** 2, eigvals[-1] + lam, None

    def eigen_moments(count):
        return [weights @ inv ** k for k in range(3, 3 + count)]

    inv = None
    bracket = [0.0, hi]
    found = _ridge_newton(eigen_solve, eigen_moments, rho, lam, bracket,
                          False, 0.0)
    # no root when weight on an inactive direction rules lam = 0 out while
    # its eigenvalue keeps phi(0+) <= rho: the least feasible ridge tried
    # stands in
    lam = bracket[1] if found is None else found[1]
    return (coeffs / (eigvals + lam)) @ eigvecs.T, lam, factorizations, True


def swmmse_white(seed, rounds, users, dim):
    """The unit complex normal draws of an SWMMSE design, (rounds, users, dim).

    ``standard_normal((rounds, 2, users, dim))`` from ``seed``, real parts
    then imaginary parts of each round, over sqrt(2): every design with the
    same seed and shape draws the same array.
    """
    noise = np.random.default_rng(seed).standard_normal((rounds, 2, users, dim))
    white = 1j * noise[:, 1]
    white += noise[:, 0]
    white /= np.sqrt(2.0)
    return white


def swmmse_samples(model, indices, white):
    """The channel samples of an SWMMSE design, shape (T + 1, J, N).

    User j's rows are ``mu_k + L_k w`` for its 1-based component ``k`` and
    its unit draws ``w = white[:, j]`` (T + 1 rounds, from
    :func:`swmmse_white`), where ``L_k L_k^H = C_k``: one matrix product per
    user, so a user's samples equal, bit for bit, those it makes alone.
    Designs with equal (model, indices, draws) share one sample set.
    """
    comps = _component_indices(indices, model.n_components) - 1
    n_users, dim = len(comps), model.dim
    if n_users < 1:
        raise ValueError("need at least one feedback index")
    shape = np.shape(white)
    if len(shape) != 3 or shape[0] < 2 or shape[1:] != (n_users, dim):
        raise ValueError(f"white draws must have shape (T + 1, {n_users}, "
                         f"{dim}) with T >= 1, got {shape}")
    samples = np.empty(shape, dtype=np.complex128)
    roots = {}  # L_k^T by component, so each round is the row w^T L_k^T
    for j, k in enumerate(comps.tolist()):
        if k not in roots:
            roots[k] = cholesky(model.covariances[k], lower=True).T
        rows = samples[:, j]
        np.matmul(white[:, j], roots[k], out=rows)
        rows += model.means[k]
    return samples


def swmmse_precoders(samples, sigma_n2, rho):
    """Stochastic WMMSE precoders driven by mixture component samples.

    ``samples`` holds one channel sample per user and round for all T + 1
    rounds, shape (T + 1, J, N), as :func:`swmmse_samples` makes them; they
    are the design's only randomness, and designs can share them.
    Round 0 starts the precoders; per iteration t = 1..T: take round t's
    samples, compute scalar MMSE receivers and clamped MSE weights on them,
    fold the weighted statistics into running averages with step size 1/t
    (the covariance in one BLAS call, ``zgemm`` with beta = 1 - 1/t, in
    Fortran order as the power step factors it), and re-solve the
    regularized system with the least ridge that meets the power budget
    (:func:`_power_step`, warm-started from the previous ridge).
    The trajectory metadata records the per-iteration power, ridge,
    sampled-channel objective and precoder snapshots (used to evaluate
    sum-rate over iterations without re-running), the Cholesky factorizations
    of each power step and the number of iterations that took the eigen path.
    One DEBUG line per design sums these up; nothing is logged per iteration.
    """
    _check_rho(rho)
    _check_noise(sigma_n2, allow_zero=False)
    samples = np.asarray(samples, dtype=np.complex128)
    shape = samples.shape
    if len(shape) != 3 or shape[0] < 2 or 0 in shape[1:]:
        raise ValueError(f"samples must have shape (T + 1, J, N) with T >= 1 "
                         f"and J, N >= 1, got {shape}")
    n_iters, n_users, dim = shape[0] - 1, shape[1], shape[2]

    init_norms = np.linalg.norm(samples[0], axis=1)
    vectors = np.sqrt(rho / n_users) * samples[0].conj() / init_norms[:, None]

    avg_cov = np.zeros((dim, dim), dtype=np.complex128, order="F")
    avg_rhs = np.zeros((n_users, dim), dtype=np.complex128)
    lambda_track = np.empty(n_iters)
    factorizations = np.empty(n_iters, dtype=np.int64)
    eigen_iterations = 0
    lam = 0.0
    snapshots = np.empty((n_iters, n_users, dim), dtype=np.complex128)
    # the per-iteration quantities, each in a buffer made once per design
    workspace = _power_workspace(dim)
    sample_conj = np.empty((n_users, dim), dtype=np.complex128)
    rhs_term = np.empty((n_users, dim), dtype=np.complex128)
    left = np.empty((dim, n_users), dtype=np.complex128, order="F")
    gains = np.empty((n_users, n_users), dtype=np.complex128)
    gains_sq = np.empty((n_users, n_users))
    direct, receivers, column = np.empty((3, n_users), dtype=np.complex128)
    weights, coef, denom = np.empty((3, n_users))
    diagonal, sample_conj_t = gains.diagonal(), sample_conj.T
    column_real, column_t = column.real, column[:, None]

    for t in range(1, n_iters + 1):
        sample = samples[t]
        np.conjugate(sample, sample_conj)
        np.matmul(sample, vectors.T, gains)  # gains[j, m] = h_j^T v_m
        np.absolute(gains, gains_sq)
        np.square(gains_sq, gains_sq)
        np.add.reduce(gains_sq, 1, None, denom)
        np.add(denom, sigma_n2, denom)
        np.copyto(direct, diagonal)
        np.conjugate(direct, receivers)
        np.divide(receivers, denom, receivers)
        np.multiply(receivers, direct, column)
        np.subtract(1.0, column_real, weights)  # the MSE, then its weight
        np.maximum(weights, 1e-300, out=weights)
        np.divide(1.0, weights, weights)
        np.maximum(weights, 1.0, out=weights)
        np.minimum(weights, _WEIGHT_CLAMP, out=weights)

        # gamma scales the left factor before each product, which is how
        # gamma * left @ right and gamma * column * row round; zgemm scales
        # avg_cov by 1 - gamma, then adds the product, in place
        gamma = 1.0 / t
        np.absolute(receivers, coef)
        np.square(coef, coef)
        np.multiply(weights, coef, coef)
        np.multiply(sample_conj_t, coef, left)
        np.multiply(left, gamma, left)
        avg_cov = blas.zgemm(1.0, left, sample.T, 1.0 - gamma, avg_cov,
                             0, 1, 1)  # op(sample.T) = sample; overwrite
        np.conjugate(receivers, column)
        np.multiply(weights, column, column)
        np.multiply(column, gamma, column)
        np.multiply(column_t, sample_conj, rhs_term)
        np.multiply(avg_rhs, 1.0 - gamma, avg_rhs)
        np.add(avg_rhs, rhs_term, avg_rhs)

        vectors, lam, factorizations[t - 1], eigen = _power_step(
            avg_cov, avg_rhs, rho, lam, workspace)
        eigen_iterations += eigen
        # the Cholesky path returns only solutions of power <= rho, so
        # only the eigen path can return a vector that is not finite
        if eigen and not np.isfinite(vectors).all():
            raise RuntimeError(
                f"stochastic WMMSE diverged at iteration {t} "
                f"(lambda={lam}, power={np.sum(np.abs(vectors) ** 2)})")

        lambda_track[t - 1] = lam
        snapshots[t - 1] = vectors

    # the tracks of all iterations in one batched product; |v|^2 in place
    power = np.abs(snapshots)
    power = np.square(power, out=power).sum(axis=(1, 2))
    logger.debug("swmmse: %d iterations, %.3f factorizations per iteration, "
                 "%d on the eigen path, final ridge %.6g, final power slack "
                 "%.6g", n_iters, np.mean(factorizations),
                 eigen_iterations, lam, 1.0 - power[-1] / rho)
    metadata = {
        "power": power,
        "objective": _sum_rate_matrix(samples[1:], snapshots, sigma_n2),
        "ridge": lambda_track,
        "factorizations": factorizations,
        "eigen_iterations": eigen_iterations,
        "precoders": snapshots,
    }
    return PrecoderSet(vectors, rho, metadata=metadata)
