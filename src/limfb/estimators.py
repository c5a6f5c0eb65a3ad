"""Channel estimators used ahead of codebook feedback.

The mixture estimator forms a responsibility-weighted convex combination of
per-component LMMSE filters; the plain LMMSE estimator uses the training-set
sample moments; OMP greedily reconstructs the channel on an oversampled
2D-DFT grid.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .feedback import _dft_beams
from .gmm import GmmModel, project_to_observation

_REFIT_RIDGE = 1e-10


def estimate_lmmse(mean, cov, setup, y):
    """LMMSE channel estimate from first and second order statistics.

    ``h_hat = m + S P^H (P S P^H + sigma_n2 I)^-1 (y - P m)`` with ``m`` and
    ``S`` the supplied mean and covariance: :func:`estimate_gmm` with one
    component, so ``y`` is (n_p,) or (J, n_p) as there.
    """
    model = GmmModel([1.0], [mean], [cov])
    return estimate_gmm(model, project_to_observation(model, setup), y)


def estimate_gmm(model, obs, y):
    """Convex combination of per-component LMMSE estimates.

    ``obs`` is ``project_to_observation(model, setup)``: its
    responsibilities of the pilot observation weight its precomputed
    component filters. ``y`` is one observation (n_p,) or the rows (J, n_p)
    of J users, which gives (J, N) estimates.
    """
    if obs.filters is None:
        raise ValueError("obs carries no filters; use project_to_observation")
    resp = np.atleast_2d(obs.responsibilities(y))
    innovation = np.atleast_2d(y) - obs.means[:, None, :]
    h_hat = resp @ model.means + np.einsum(
        "jk,knp,kjp->jn", resp, obs.filters, innovation, optimize=True)
    return h_hat[0] if np.ndim(y) == 1 else h_hat


def build_omp_dictionary(geometry):
    """2x oversampled 2D-DFT grid as an (N, 4N) atom matrix."""
    return np.kron(_dft_beams(geometry.n_vert, 2 * geometry.n_vert),
                   _dft_beams(geometry.n_horiz, 2 * geometry.n_horiz))


def _refit(sensing, support, y):
    """Least-squares coefficients on the selected support, ridged if needed."""
    atoms = sensing[:, support]
    gram = atoms.conj().T @ atoms
    rhs = atoms.conj().T @ y
    try:
        coeff = cho_solve(cho_factor(gram), rhs)
        if not np.all(np.isfinite(coeff)):
            raise np.linalg.LinAlgError
    except Exception:
        ridge = _REFIT_RIDGE * np.eye(len(support))
        coeff = np.linalg.solve(gram + ridge, rhs)
    return coeff


def omp_support(setup, dictionary, y):
    """Greedy atom selection; returns (support indices, coefficients).

    Atoms of the effective sensing matrix ``P @ dictionary`` are selected by
    the largest normalized residual correlation, with a least-squares re-fit
    on the support each round. Iteration stops when the residual drops to
    the noise level sqrt(n_p)*sigma_n or the support reaches n_p atoms. An
    observation with an inf or NaN raises ValueError.
    """
    y = np.asarray(y, dtype=np.complex128)
    if not np.all(np.isfinite(y)):
        raise ValueError("observation contains infs or NaNs")
    sensing = setup.pilot_matrix @ np.asarray(dictionary, dtype=np.complex128)
    norms = np.linalg.norm(sensing, axis=0)
    usable = norms > 0.0
    threshold = np.sqrt(setup.n_pilots * setup.sigma_n2)

    support = []
    coeff = np.zeros(0, dtype=np.complex128)
    residual = y.copy()
    while np.linalg.norm(residual) > threshold and len(support) < setup.n_pilots:
        scores = np.abs(sensing.conj().T @ residual)
        scores = np.where(usable, scores / np.maximum(norms, 1e-300), 0.0)
        scores[support] = 0.0
        atom = int(np.argmax(scores))
        if scores[atom] == 0.0:
            break
        support.append(atom)
        coeff = _refit(sensing, support, y)
        residual = y - sensing[:, support] @ coeff
    return support, coeff


def estimate_omp(setup, dictionary, y):
    """Sparse channel reconstruction via orthogonal matching pursuit."""
    dictionary = np.asarray(dictionary, dtype=np.complex128)
    support, coeff = omp_support(setup, dictionary, y)
    if not support:
        return np.zeros(dictionary.shape[0], dtype=np.complex128)
    return dictionary[:, support] @ coeff
