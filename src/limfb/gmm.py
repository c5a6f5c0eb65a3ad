"""Circularly-symmetric complex Gaussian mixture models.

Covers density evaluation, EM fitting with full or block-Toeplitz structured
covariances, responsibilities, projection of a channel-domain mixture into
the pilot observation domain, parameter counting, and binary model
serialization (magic ``LFBM``).

All density arithmetic is done in the log domain with log-sum-exp
normalization; mixtures with hundreds of components at realistic channel
dimensions underflow otherwise.
"""

import logging
import struct
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zpotrf, ztrtrs
from scipy.special import logsumexp

from .formats import DimensionError, FileFormatError, expect_magic, read_exact
from .toeplitz import realize_spectral, toeplitz_mstep, toeplitz_start

logger = logging.getLogger(__name__)

MODEL_MAGIC = b"LFBM"
MODEL_VERSION = 1

_CONSTRAINTS = ("full", "toeplitz")
_COLLAPSE_WEIGHT = 1e-8
# the covariance floor on eigenvalues (full) or spectral entries (toeplitz),
# as a fraction of the average eigenvalue of the global sample covariance
_FLOOR_SCALE = 1e-6


@dataclass
class EmOptions:
    """Knobs of the EM fit.

    ``seed`` drives the k-means++ seeding and the re-seeding draws.
    """

    max_iters: int = 100
    rel_loglik_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_loglik_tol < 0:
            raise ValueError("rel_loglik_tol must be >= 0")


def _inverse_factors(covariances):
    """Inverse lower Cholesky factors (K, d, d) and log-determinants (K,).

    The one factorization behind EM, both mixtures and the LMMSE filters;
    ``ztrtrs`` makes it match ``cholesky`` + ``solve_triangular`` bitwise.
    """
    if not np.all(np.isfinite(covariances)):
        raise np.linalg.LinAlgError("covariance contains infs or NaNs")
    chols = np.linalg.cholesky(covariances)
    logdets = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2).real),
                           axis=1)
    eye = np.eye(chols.shape[-1])
    inv_chols = np.empty_like(chols)
    for k, chol in enumerate(chols):
        inv_chols[k] = ztrtrs(chol, eye, lower=1)[0]
    return inv_chols, logdets


class _Mixture:
    """Weights, means and covariances of K complex Gaussians, scored row by
    row through the EM score matrix W of :func:`_score_matrix` (2.2 MB at
    d=64, K=64), made on first use and kept instead of its factors. The
    rows of :func:`~limfb.precoding.directional_representatives` are kept
    too, by 1-based component, each made on its first request, and so are
    the observation mixtures an :class:`~limfb.evaluate.Experiment` projects
    from this one, by (geometry, pilot count, noise variance)."""

    def __init__(self, weights, means, covariances):
        self.weights = np.asarray(weights, dtype=float)
        self.means = np.asarray(means, dtype=np.complex128)
        self.covariances = np.asarray(covariances, dtype=np.complex128)
        self._scores = None
        self._representatives = {}
        self._observations = {}

    @property
    def n_components(self):
        return self.weights.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]

    def _factor(self):
        """Keep W; return the inverse factors L_k^-1 for more products."""
        inv_chols, logdets = _inverse_factors(self.covariances)
        self._scores = _score_matrix(self.weights, self.means,
                                     _precisions(inv_chols), logdets)
        return inv_chols

    def responsibilities(self, x):
        return np.exp(self.log_responsibilities(x))


def _log_responsibilities(self, x):
    """Log posterior component probabilities: (K,) at a vector, (J, K) at rows.

    Each row's lift times W is one product of a batch whose axis is the
    row, so a row's result depends on that row alone. Assigned in each
    mixture class body, so either class's method can be replaced on its own.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    if x.ndim > 2 or x.shape[-1] != self.dim:
        raise ValueError(f"expected a vector or rows of dimension "
                         f"{self.dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains infs or NaNs")
    if self._scores is None:
        self._factor()
    rows = np.atleast_2d(x)
    scores = np.empty((len(rows), 1, self.n_components))
    for start, stop, phi in _lifted_chunks(rows):
        np.matmul(phi[:, None, :], self._scores, out=scores[start:stop])
    out = (scores - logsumexp(scores, axis=-1, keepdims=True))[:, 0]
    return out[0] if x.ndim == 1 else out


class GmmModel(_Mixture):
    """K complex Gaussians with realized, positive definite covariances.

    ``constraint`` records how the covariances were produced; for
    ``"toeplitz"`` the defining nonnegative spectral vectors are kept in
    ``spectral`` (shape (K, 4N)) alongside the realized dense matrices.
    Instances are immutable after construction.
    """

    def __init__(self, weights, means, covariances, constraint="full",
                 spectral=None, geometry=None):
        super().__init__(weights, means, covariances)
        weights, covariances = self.weights, self.covariances
        if weights.ndim != 1:
            raise ValueError("weights must be a vector")
        n_comp = weights.shape[0]
        if self.means.shape[0] != n_comp or covariances.shape[0] != n_comp:
            raise ValueError("component count mismatch")
        dim = self.means.shape[1]
        if covariances.shape[1:] != (dim, dim):
            raise ValueError("covariance shape mismatch")
        if not (np.isfinite(self.means).all()
                and np.isfinite(covariances).all()):
            raise ValueError("means and covariances must be finite")
        for cov in covariances:  # GEMM products are Hermitian to rounding
            tol = max(1e-10 * np.abs(cov).max(), _TINY)
            if np.abs(cov - cov.conj().T).max() > tol:
                raise ValueError("covariances must be Hermitian")
            if zpotrf(cov, lower=1)[1] != 0:  # on a copy, as sampling does
                raise ValueError("covariances must be positive definite")
        if not np.all(weights > 0):  # also rejects NaN
            raise ValueError("all mixture weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to one")
        if constraint not in _CONSTRAINTS:
            raise ValueError(f"unknown constraint {constraint!r}")
        if constraint == "toeplitz":
            if spectral is None:
                raise ValueError("toeplitz models require spectral vectors")
            spectral = np.asarray(spectral, dtype=float)
            if (spectral.shape != (n_comp, 4 * dim)
                    or not np.all(np.isfinite(spectral) & (spectral >= 0.0))):
                raise ValueError("need finite nonnegative spectral vectors "
                                 "of shape (K, 4N)")
        self.constraint = constraint
        self.spectral = spectral
        self.geometry = geometry
        # populated by fit_em
        self.fit_log_likelihoods = None
        self.converged = None

    log_responsibilities = _log_responsibilities


class ObservationGmm(_Mixture):
    """Mixture of the pilot observations induced by a channel-domain mixture.

    Component k has mean ``P mu_k`` and covariance
    ``S_k = P C_k P^H + sigma_n^2 I``, so scoring costs O(n_p^2) per row
    and component whatever the channel dimension. From one factorization
    of each S_k, :func:`project_to_observation` makes the score matrix and
    ``filters`` (K, N, n_p), the LMMSE filters ``C_k P^H S_k^-1``; it also
    sets ``offsets`` (K, N), ``mu_k - F_k P mu_k``. A bare one has neither.
    """

    filters = offsets = None
    log_responsibilities = _log_responsibilities


def project_to_observation(model, setup):
    """Observation-domain mixture and LMMSE filters for a pilot setup.

    ``model`` may be any channel mixture; only the projected covariances
    ``P C_k P^H + sigma_n^2 I`` (one stacked product) are factored, once,
    so a singular projection fails here.
    """
    pilot = setup.pilot_matrix
    if pilot.shape[1] != model.dim:
        raise ValueError("pilot matrix width does not match the model dimension")
    projected = pilot @ model.covariances
    covs = projected @ pilot.conj().T + setup.sigma_n2 * np.eye(pilot.shape[0])
    obs = ObservationGmm(model.weights, model.means @ pilot.T, covs)
    try:
        inv_chols = obs._factor()
    except np.linalg.LinAlgError as exc:
        raise ValueError("observation covariance is not positive definite; "
                         "use sigma_n2 > 0") from exc
    # C_k P^H S_k^-1 = (L_k^-1 P C_k)^H L_k^-1, with S_k = L_k L_k^H
    obs.filters = np.swapaxes(inv_chols @ projected, 1, 2).conj() @ inv_chols
    obs.offsets = model.means - (obs.filters @ obs.means[..., None])[..., 0]
    return obs


def param_count(n_components, dim, constraint):
    """Number of covariance parameters a model transfer must carry.

    Full Hermitian covariances need K*N*(N+1)/2 entries (upper triangles);
    the block-Toeplitz parameterization needs the 4N-long spectral vector per
    component, i.e. 4*K*N.
    """
    if n_components < 1 or dim < 1:
        raise ValueError("n_components and dim must be >= 1")
    if constraint == "full":
        return n_components * dim * (dim + 1) // 2
    if constraint == "toeplitz":
        return 4 * n_components * dim
    raise ValueError(f"unknown constraint {constraint!r}")


def _floor_eigenvalues(matrix, floor):
    """Hermitian matrix with eigenvalues clipped from below at ``floor``.

    The Hermitian part is returned as it is when ``zpotrf`` factors it minus
    ``floor * I``, which is about 5x cheaper than ``eigvalsh`` at N=64; only
    a matrix that fails the test is decomposed by ``eigh`` and clipped. The
    two tests disagree only when the least eigenvalue lies within rounding,
    about N * eps * ||S||, of the floor; either answer is then within that
    band of the other. Both branches return an exactly Hermitian matrix, so
    a saved upper triangle restores it bit for bit.
    """
    matrix = 0.5 * (matrix + matrix.conj().T)
    shifted = matrix - floor * np.eye(len(matrix))
    # shifted.T is Fortran-ordered and, being conj(shifted), as definite
    if zpotrf(shifted.T, overwrite_a=1)[1] == 0:
        return matrix
    eigvals, eigvecs = np.linalg.eigh(matrix)
    floored = (eigvecs * np.clip(eigvals, floor, None)) @ eigvecs.conj().T
    return 0.5 * (floored + floored.conj().T)


def sample_moments(samples):
    """Sample mean and covariance (normalized by L) of the rows in complex128,
    the scatter summed over blocks of ``_EM_CHUNK`` centred rows."""
    x = np.asarray(samples, dtype=np.complex128)
    mean = x.mean(axis=0)
    scatter = np.zeros((x.shape[1],) * 2, dtype=np.complex128)
    for start in range(0, len(x), _EM_CHUNK):
        centered = x[start:start + _EM_CHUNK] - mean
        scatter += centered.T @ centered.conj()
    return mean, scatter / len(x)


def _kmeanspp_indices(x, n_components, rng):
    """k-means++ style seeding: squared-distance weighted sample choice.

    Squared distances to a seed c are ``|x|^2 - 2 Re(x^H c) + |c|^2``, one
    real GEMV per seed, clipped at 0; the seed's own distance is exactly 0.
    """
    n_samples = x.shape[0]
    flat = x.view(np.float64)
    norms = np.einsum("ij,ij->i", flat, flat)

    def dist_to(idx):
        dist = norms - 2.0 * (flat @ flat[idx]) + norms[idx]
        np.maximum(dist, 0.0, out=dist)
        dist[idx] = 0.0
        return dist

    chosen = [int(rng.integers(n_samples))]
    dist_sq = dist_to(chosen[0])
    for _ in range(n_components - 1):
        total = dist_sq.sum()
        if total <= 0:
            idx = int(rng.integers(n_samples))
        else:
            idx = int(rng.choice(n_samples, p=dist_sq / total))
        chosen.append(idx)
        dist_sq = np.minimum(dist_sq, dist_to(idx))
    return chosen


# fit_em lifts at most _EM_CHUNK rows and _EM_CHUNK_BYTES of lift at a time:
# 512 rows up to N = 31, 124 rows at N = 64, where lifting all 20k
# paper-scale samples at once would take 676 MB. The matrix products run no
# faster on larger chunks; at small N, fewer chunks save Python overhead.
_EM_CHUNK = 512
_EM_CHUNK_BYTES = 4 << 20
_TINY = np.finfo(float).tiny  # responsibilities below it are flushed to 0


def _lift(x, out):
    """Real second-order lift phi(x) of the rows of ``x``, written to ``out``.

    Columns of ``out`` (width N^2 + 2N + 1): |x_i|^2 for each i; Re and Im of
    conj(x_i) x_j for i < j, interleaved, pairs in row-major order; Re and Im
    of x_i, interleaved; the constant 1. Every complex quadratic form
    ``x^H P x + 2 Re(b^H x) + c`` is linear in phi(x), and a weighted sum of
    phi(x) holds the weighted mass, first moment and second moment.
    """
    dim = x.shape[1]
    n_quad = dim * dim
    np.add(x.real ** 2, x.imag ** 2, out=out[:, :dim])
    pairs = out[:, dim:n_quad].view(np.complex128)
    conj = x.conj()
    start = 0
    for i in range(dim - 1):
        stop = start + dim - 1 - i
        np.multiply(conj[:, i, None], x[:, i + 1:], out=pairs[:, start:stop])
        start = stop
    out[:, n_quad:-1] = x.view(np.float64)
    out[:, -1] = 1.0
    return out


def _pack_hermitian(mats):
    """Coefficients c with ``phi(x)[:N^2] @ c = x^H P x`` for Hermitian P.

    Works on a single (N, N) matrix or a stack (..., N, N); only the diagonal
    and the strict upper triangle are read.
    """
    dim = mats.shape[-1]
    rows, cols = np.triu_indices(dim, 1)
    diag = np.diagonal(mats, axis1=-2, axis2=-1).real
    upper = np.ascontiguousarray(2.0 * mats[..., rows, cols].conj())
    return np.concatenate([diag, upper.view(np.float64)], axis=-1)


def _unpack_second_moments(packed, dim):
    """Hermitian sums of ``x x^H`` from summed quadratic lift columns.

    ``packed`` has shape (..., N^2): the sums of |x_i|^2 and of the
    interleaved conj(x_i) x_j, which is entry (j, i) of ``x x^H``.
    """
    rows, cols = np.triu_indices(dim, 1)
    diag = np.arange(dim)
    out = np.empty(packed.shape[:-1] + (dim, dim), dtype=np.complex128)
    out[..., diag, diag] = packed[..., :dim]
    lower = packed[..., dim:].view(np.complex128)
    out[..., cols, rows] = lower
    out[..., rows, cols] = lower.conj()
    return out


def _precisions(inv_chols):
    """Precisions ``P_k = L_k^-H L_k^-1`` from stacked inverse factors, one
    product at a time into one stack, so no full-size conjugate is made."""
    out = np.empty_like(inv_chols)
    for k, inv_chol in enumerate(inv_chols):
        np.matmul(inv_chol.conj().T, inv_chol, out=out[k])
    return out


def _score_matrix(weights, means, precisions, logdets):
    """(N^2+2N+1, K) matrix W with ``phi(x) @ W`` the weighted log densities.

    Takes the precisions of :func:`_precisions` and the log-determinants of
    :func:`_inverse_factors`. Column k packs -P_k, the linear term
    2 P_k mu_k and the constant
    ``-mu_k^H P_k mu_k - log det C_k - N log(pi) + log w_k``, so that entry k
    of ``phi(x) @ W`` is ``log w_k + log CN(x; mu_k, C_k)``.
    """
    dim = means.shape[1]
    linear = np.einsum("kij,kj->ki", precisions, means)
    const = (np.log(weights) - logdets - dim * np.log(np.pi)
             - np.einsum("ki,ki->k", means.conj(), linear).real)
    return np.concatenate([-_pack_hermitian(precisions),
                           (2.0 * linear).view(np.float64),
                           const[:, None]], axis=1).T


def _em_buffers(n_samples, dim):
    """The complex128 row buffer and the lift buffer of :func:`_em_pass`."""
    width = dim * dim + 2 * dim + 1
    chunk = max(1, min(_EM_CHUNK, _EM_CHUNK_BYTES // (8 * width), n_samples))
    return np.empty((chunk, dim), np.complex128), np.empty((chunk, width))


def _lifted_chunks(x, buffers=None):
    """(start, stop, phi) per chunk of rows, lifted in :func:`_em_buffers`."""
    rows, lifted = buffers or _em_buffers(*x.shape)
    for start in range(0, len(x), len(rows)):
        stop = min(start + len(rows), len(x))
        rows[:stop - start] = x[start:stop]
        yield start, stop, _lift(rows[:stop - start], lifted[:stop - start])


def _em_pass(x, score_matrix, buffers=None):
    """One pass of the EM E-step over the rows of ``x``, a chunk at a time.

    Returns each row's log mixture density and the responsibility-weighted
    sums of the lift, shape (K, N^2+2N+1), from which the M-step reads every
    component's mass, first moment and second moment, over the chunks of
    :func:`_lifted_chunks`.

    Responsibilities below the least normal float (2.2e-308) are set to
    zero before they are accumulated, since subnormal operands slow the
    accumulation GEMM 1.6-3x on OpenBLAS. A term that small is lost in the
    rounding of any sum it joins unless that sum is itself below about
    1e-292; the sums were bitwise equal in every benchmark and test fit
    checked.
    """
    log_norm = np.empty(x.shape[0])
    sums = np.zeros(score_matrix.shape[::-1])
    for start, stop, phi in _lifted_chunks(x, buffers):
        scores = phi @ score_matrix
        log_norm[start:stop] = logsumexp(scores, axis=1)
        resp = np.exp(scores - log_norm[start:stop, None])
        resp[resp < _TINY] = 0.0
        sums += resp.T @ phi
    return log_norm, sums


def fit_em(dataset, n_components, constraint="full", options=None, geometry=None):
    """Maximum-likelihood mixture fit via EM on a normalized channel dataset.

    Each iteration is one chunked pass over the samples (see
    :func:`_em_pass`, about 4*L*K*N^2 flops) that scores every component
    (E-step) and sums the weights, means and scatters of the M-step. The
    full M-step floors the eigenvalues of each scatter (see
    :func:`_floor_eigenvalues`). For ``constraint="toeplitz"`` the
    components start at the block-Toeplitz fit of the global sample
    covariance, and the M-step takes one ascent step of all K spectra from
    the E-step's own precisions (see :mod:`limfb.toeplitz`). Weights and
    means are exact maximizers, so the log-likelihood of either fit falls
    only by rounding or after a collapsed component is re-seeded.
    Only initialization (sample moments, k-means++) holds a complex128 copy
    of the rows; every pass reads the complex64 rows a chunk at a time into
    buffers made once per fit, and keeps one 8-byte log density per row.

    The per-iteration average log-likelihoods are stored on the returned
    model as ``fit_log_likelihoods``; each iteration is logged at INFO. A
    converged fit returns the parameters that achieved the last
    log-likelihood; any other fit returns the M-step after it.
    Deterministic for a given ``options.seed``; ``n_components`` must be an
    integer >= 1.
    """
    options = options or EmOptions()
    if not isinstance(n_components, (int, np.integer)) or n_components < 1:
        raise ValueError(f"n_components must be an integer >= 1, "
                         f"got {n_components!r}")
    if constraint not in _CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    if not dataset.normalized:
        raise ValueError("fit_em expects a normalized dataset")
    n_samples, dim = dataset.samples.shape
    if n_samples < n_components:
        raise ValueError(f"need at least as many samples as components: "
                         f"K={n_components}, {n_samples} samples")
    if constraint == "toeplitz":
        if geometry is None:
            geometry = dataset.scene.geometry if dataset.scene else None
        if geometry is None:
            raise ValueError("toeplitz fits need an array geometry")
        if geometry.n != dim:
            raise ValueError("geometry does not match the sample dimension")

    rng = np.random.default_rng(options.seed)
    x = dataset.samples.astype(np.complex128)  # freed before the first pass
    _, global_cov = sample_moments(x)
    floor = _FLOOR_SCALE * np.trace(global_cov).real / dim
    means = x[_kmeanspp_indices(x, n_components, rng)]
    del x
    weights = np.full(n_components, 1.0 / n_components)
    spectral = None
    if constraint == "toeplitz":
        init_spectrum, steps = toeplitz_start(global_cov, geometry, floor)
        logger.debug("Toeplitz start fitted in %d ascent steps", steps)
        init_cov = realize_spectral(init_spectrum, geometry)
        spectral = np.tile(init_spectrum, (n_components, 1))
    else:
        init_cov = _floor_eigenvalues(global_cov, floor)
    covariances = np.tile(init_cov, (n_components, 1, 1))

    def factors(iteration):
        """Precisions and log-determinants of the K covariances; in the first
        iteration, the one precision of ``init_cov``, broadcast K times."""
        inv_chols, logdets = _inverse_factors(
            covariances if iteration > 0 else init_cov[None])
        shape = (n_components,) + inv_chols.shape[1:]
        return (np.broadcast_to(_precisions(inv_chols), shape),
                np.broadcast_to(logdets, shape[:1]))

    n_quad = dim * dim
    buffers = _em_buffers(n_samples, dim)
    log_likelihoods = []
    converged = False
    for iteration in range(options.max_iters):
        started = time.perf_counter()
        precisions, logdets = factors(iteration)
        score_matrix = _score_matrix(weights, means, precisions, logdets)
        if spectral is None:  # only the Toeplitz M-step reads them
            del precisions
        log_norm, sums = _em_pass(dataset.samples, score_matrix, buffers)
        del score_matrix
        avg_ll = float(log_norm.mean())
        delta = avg_ll - log_likelihoods[-1] if log_likelihoods else np.nan
        log_likelihoods.append(avg_ll)
        if len(log_likelihoods) > 1:
            prev = log_likelihoods[-2]
            if avg_ll < prev - 1e-3 * abs(prev):
                logger.warning(
                    "log-likelihood decreased beyond tolerance at iteration %d "
                    "(%.6f -> %.6f)", iteration, prev, avg_ll)
            converged = abs(delta) <= options.rel_loglik_tol * abs(prev)

        # M-step (skipped once converged); collapsed components re-seed
        collapsed = []
        if not converged:
            mass = sums[:, -1]
            collapsed = np.flatnonzero((mass <= n_samples * 1e-12)
                                       | (mass / n_samples < _COLLAPSE_WEIGHT))
            safe_mass = np.maximum(mass, 1e-300)
            weights = mass / n_samples
            means = sums[:, n_quad:-1].view(np.complex128) / safe_mass[:, None]
            scatters = _unpack_second_moments(sums[:, :n_quad], dim)
            scatters /= safe_mass[:, None, None]
            for k in range(n_components):  # no (K, N, N) temporaries
                scatters[k] -= np.outer(means[k], means[k].conj())
            for k in collapsed:
                logger.warning("re-seeding collapsed component %d at "
                               "iteration %d", k, iteration)
                means[k] = dataset.samples[rng.integers(n_samples)]
                weights[k] = 1.0 / n_samples
            if spectral is None:
                for k, scatter in enumerate(scatters):
                    covariances[k] = (init_cov if k in collapsed else
                                      _floor_eigenvalues(scatter, floor))
            else:
                spectral[:] = toeplitz_mstep(spectral, precisions, scatters,
                                             geometry, floor)
                spectral[collapsed] = init_spectrum
                for k in range(n_components):  # in place: less heap churn
                    covariances[k] = realize_spectral(spectral[k], geometry)
            del scatters  # not held through the next pass
            weights = np.maximum(weights, 1e-300)
            weights /= weights.sum()
        logger.info("EM iteration %d: average log-likelihood %.6f "
                    "(change %.3e), %.3f s, %d re-seeded", iteration, avg_ll,
                    delta, time.perf_counter() - started, len(collapsed))
        if converged:
            break

    model = GmmModel(weights, means, covariances, constraint=constraint,
                     spectral=spectral, geometry=geometry)
    model.fit_log_likelihoods = log_likelihoods
    model.converged = converged
    return model


def _model_record(dim, constraint):
    """One LFBM component: weight, mean, then upper triangle or spectrum."""
    covariance = (("triangle", "<c16", (dim * (dim + 1) // 2,))
                  if constraint == "full" else ("spectrum", "<f8", (4 * dim,)))
    return np.dtype([("weight", "<f8"), ("mean", "<c16", (dim,)), covariance])


def save_model(model, path):
    """Write a mixture to the ``LFBM`` binary container.

    The component count must be a power of two (the header stores the bit
    width B with K = 2^B). Full covariances are stored as upper triangles in
    complex f64; toeplitz models store the spectral vectors in f64 (the
    dictionary is implied by the geometry and is not persisted).
    """
    n_comp = model.n_components
    bits = int(round(np.log2(n_comp)))
    if 2 ** bits != n_comp:
        raise ValueError("can only serialize models whose K is a power of two")
    dim = model.dim
    records = np.empty(n_comp, dtype=_model_record(dim, model.constraint))
    records["weight"] = model.weights
    records["mean"] = model.means
    if model.constraint == "full":
        upper, cols = np.triu_indices(dim)
        records["triangle"] = model.covariances[:, upper, cols]
    else:
        records["spectrum"] = model.spectral
    flag = 0 if model.constraint == "full" else 1
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<HBIB", MODEL_VERSION, bits, dim, flag))
        fh.write(memoryview(records))


def load_model(path, geometry=None):
    """Read a mixture written by :func:`save_model`.

    Toeplitz models need ``geometry`` to realize their covariance matrices
    from the stored spectral vectors (the container holds only N, not the
    vertical/horizontal split).
    """
    with open(path, "rb") as fh:
        expect_magic(fh, MODEL_MAGIC)
        header = read_exact(fh, struct.calcsize("<HBIB"), "model header")
        version, bits, dim, flag = struct.unpack("<HBIB", header)
        if version != MODEL_VERSION:
            raise FileFormatError(f"unsupported model version {version}")
        if flag not in (0, 1):
            raise FileFormatError(f"unknown constraint flag {flag}")
        if dim < 1:
            raise DimensionError(f"invalid model dimension N={dim}")
        constraint = "full" if flag == 0 else "toeplitz"
        if constraint == "toeplitz":
            if geometry is None:
                raise ValueError("loading a toeplitz model requires the geometry")
            if geometry.n != dim:
                raise DimensionError("geometry does not match the stored dimension")
        record = _model_record(dim, constraint)
        payload = read_exact(fh, 2 ** bits * record.itemsize,
                             f"{2 ** bits} model components")
        if fh.read(1):
            raise DimensionError("trailing bytes after declared payload")
    records = np.frombuffer(payload, dtype=record)
    spectral = None
    if constraint == "full":
        covariances = np.zeros((len(records), dim, dim), dtype=np.complex128)
        upper, cols = np.triu_indices(dim)
        covariances[:, upper, cols] = records["triangle"]
        covariances += np.triu(covariances, 1).conj().transpose(0, 2, 1)
    else:
        spectral = np.array(records["spectrum"])
        covariances = realize_spectral(spectral, geometry)
    return GmmModel(np.array(records["weight"]), np.array(records["mean"]),
                    covariances, constraint=constraint, spectral=spectral,
                    geometry=geometry)
