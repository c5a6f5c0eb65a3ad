"""Per-component references for the mixture code, shared by tests.

``log_density`` evaluates one complex Gaussian by a per-matrix Cholesky
factor and triangular solve, the reference the stacked scoring of the
mixtures and the lifted EM scores are checked against;
``sample_component`` draws from one component of a fitted model;
``blocked_sample_moments`` sums the sample scatter block by block, the
order the library sums it in.
"""

import numpy as np
from scipy.linalg import cholesky, solve_triangular


def _chol_logdet(cov):
    """Lower Cholesky factor and real log-determinant of a Hermitian PD matrix."""
    try:
        factor = cholesky(cov, lower=True)
    except (np.linalg.LinAlgError, ValueError) as exc:  # ValueError: NaN
        raise np.linalg.LinAlgError(
            f"covariance not positive definite: {exc}") from exc
    logdet = 2.0 * np.sum(np.log(np.diag(factor).real))
    return factor, logdet


def _log_gaussian_batch(x, mean, chol, logdet):
    """Log complex-Gaussian density for rows of ``x`` under one component."""
    diff = x - mean
    white = solve_triangular(chol, diff.T, lower=True)
    quad = np.sum(np.abs(white) ** 2, axis=0)
    dim = x.shape[1]
    return -dim * np.log(np.pi) - logdet - quad


def log_density(x, mean, cov):
    """Log density of the circularly-symmetric complex Gaussian.

    ``log[ pi^-N det(C)^-1 exp(-(x-mu)^H C^-1 (x-mu)) ]`` for a vector x,
    mean mu, and Hermitian positive definite covariance C (scalars are
    promoted to one-dimensional instances).
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    mean = np.atleast_1d(np.asarray(mean, dtype=np.complex128))
    cov = np.atleast_2d(np.asarray(cov, dtype=np.complex128))
    if x.shape != mean.shape or cov.shape != (x.size, x.size):
        raise ValueError("dimension mismatch between x, mean, and cov")
    chol, logdet = _chol_logdet(cov)
    return float(_log_gaussian_batch(x[None, :], mean, chol, logdet)[0])


def sample_component(model, k, count, seed):
    """Draw ``count`` i.i.d. vectors from component ``k`` (1-based index)."""
    if not 1 <= k <= model.n_components:
        raise ValueError(f"component index {k} outside 1..{model.n_components}")
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    root = cholesky(model.covariances[k - 1], lower=True)
    white = (rng.standard_normal((count, model.dim))
             + 1j * rng.standard_normal((count, model.dim))) / np.sqrt(2.0)
    return model.means[k - 1] + white @ root.T


def blocked_sample_moments(samples, block):
    """Sample mean and covariance (normalized by L) of complex128 rows.

    The scatter is the sum, in row order, of the product of each block of
    ``block`` rows centred on the mean of all rows.
    """
    x = np.asarray(samples, dtype=np.complex128)
    mean = x.mean(axis=0)
    products = [(x[start:start + block] - mean).T
                @ (x[start:start + block] - mean).conj()
                for start in range(0, len(x), block)]
    scatter = np.zeros((x.shape[1], x.shape[1]), dtype=np.complex128)
    for product in products:
        scatter = scatter + product
    return mean, scatter / len(x)
