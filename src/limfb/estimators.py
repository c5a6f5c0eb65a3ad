"""Channel estimators used ahead of codebook feedback.

The mixture estimator forms a responsibility-weighted convex combination of
per-component LMMSE filters; the plain LMMSE estimator uses the training-set
sample moments; OMP greedily reconstructs the channel on an oversampled
2D-DFT grid.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .feedback import _dft_beams
from .gmm import _EM_CHUNK_BYTES, _Mixture, project_to_observation

_REFIT_RIDGE = 1e-10
_VISIBLE = 1e-8  # of the largest sensing norm; pilot-null atoms are ~1e-15
_SCORE_TIE = 1e-12  # relative; ties resolve to the lowest atom index


def estimate_lmmse(mean, cov, setup, y):
    """LMMSE channel estimate from first and second order statistics.

    ``h_hat = m + S P^H (P S P^H + sigma_n2 I)^-1 (y - P m)`` with ``m`` and
    ``S`` (possibly singular) the supplied moments: :func:`estimate_gmm` on
    one projected Gaussian, so ``y`` is (n_p,) or (J, n_p) as there.
    """
    return estimate_gmm(
        project_to_observation(_Mixture([1.0], [mean], [cov]), setup), y)


def estimate_gmm(obs, y):
    """Convex combination of per-component LMMSE estimates.

    ``obs`` is ``project_to_observation(model, setup)``: the
    responsibilities of each observation weight its component estimates
    ``mu_k + F_k (y - P mu_k)``. ``y`` is one observation (n_p,) or the rows
    (J, n_p) of J users, which gives (J, N) estimates. Every product has the
    row as its batch axis, so a user's estimate depends on that row alone.
    """
    if obs.filters is None:
        raise ValueError("obs carries no filters; use project_to_observation")
    resp = np.atleast_2d(obs.responsibilities(y))[:, None, :]
    rows = np.atleast_2d(y)[:, None, :]
    n_comp, dim, n_pilots = obs.filters.shape
    stacked = obs.filters.reshape(-1, n_pilots).T  # F_k y for all k at once
    block = max(1, _EM_CHUNK_BYTES // (16 * n_comp * dim))  # rows per 4 MiB
    est = np.empty((len(rows), 1, dim), dtype=np.complex128)
    for s in range(0, len(rows), block):
        part = (rows[s:s + block] @ stacked).reshape(-1, n_comp, dim)
        np.matmul(resp[s:s + block], obs.offsets + part, out=est[s:s + block])
    return est[0, 0] if np.ndim(y) == 1 else est[:, 0]


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
    except np.linalg.LinAlgError:
        ridge = _REFIT_RIDGE * np.eye(len(support))
        coeff = np.linalg.solve(gram + ridge, rhs)
    return coeff


def omp_support(setup, dictionary, y):
    """Greedy atom selection; returns (support indices, coefficients).

    Atoms of the effective sensing matrix ``P @ dictionary`` are selected by
    the largest normalized residual correlation, with a least-squares re-fit
    on the support each round. Only atoms the pilots see, with a sensing
    norm above ``_VISIBLE`` of the largest, are usable; scores within
    ``_SCORE_TIE`` of the best tie, and the lowest index wins. Iteration
    stops when the residual drops to the noise level sqrt(n_p)*sigma_n or
    the support reaches n_p atoms. An observation with an inf or NaN raises
    ValueError.
    """
    y = np.asarray(y, dtype=np.complex128)
    if not np.all(np.isfinite(y)):
        raise ValueError("observation contains infs or NaNs")
    sensing = setup.pilot_matrix @ np.asarray(dictionary, dtype=np.complex128)
    norms = np.linalg.norm(sensing, axis=0)
    usable = norms > _VISIBLE * norms.max()
    threshold = np.sqrt(setup.n_pilots * setup.sigma_n2)

    support = []
    coeff = np.zeros(0, dtype=np.complex128)
    residual = y.copy()
    while np.linalg.norm(residual) > threshold and len(support) < setup.n_pilots:
        scores = np.abs(sensing.conj().T @ residual)
        scores = np.where(usable, scores / np.maximum(norms, 1e-300), 0.0)
        scores[support] = 0.0
        best = scores.max()
        if best == 0.0:
            break
        atom = int(np.argmax(scores >= (1.0 - _SCORE_TIE) * best))
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
