"""Block-Toeplitz covariances over a fixed DFT dictionary, by 2-D FFT.

A URA covariance that is block-Toeplitz with Toeplitz blocks is
``D^H diag(c) D``: ``c >= 0`` of length 4N is what a structured mixture
stores and transfers, ``D`` the Kronecker product of two tall unitary DFT
sections. Entry (a,i),(b,j) is ``g[(a-b) mod 2n_v, (i-j) mod 2n_h]`` with
``g = ifft2(c)``; the forms ``d_f M d_f^H`` of all atoms are
``Re fft2(T(M)) / 4N``, where ``T(M)`` sums M per lag pair. The M-step is
the EM update of Miller & Snyder (Proc. IEEE 1987): with ``c = floor + c'``,
``c' <- c' + c'^2 (b - a)``, ``a_f = d_f P d_f^H``, ``b_f = d_f P S P d_f^H``
at ``P = C^-1``, keeps ``c' >= 0`` and never lowers
``Q(C) = -log det C - tr(C^-1 S)`` for a scatter S.
"""

from functools import cache

import numpy as np

_START_TOL = 1e-4
_START_STEPS = 25


@cache
def _lag_index(geometry):
    """(grid, lags, mirrored, first), built once per geometry: ``lags[r, c]``
    indexes entry (r, c) on the flat lag grid; ``mirrored`` reads the lower
    triangle's lags and, at 4N + lag, their conjugates, so a realization is
    exactly block-Toeplitz and Hermitian; ``first`` maps each flat entry to
    the first entry of its lag pair."""
    grid = (2 * geometry.n_vert, 2 * geometry.n_horiz)
    vert = np.repeat(np.arange(geometry.n_vert), geometry.n_horiz)
    horiz = np.tile(np.arange(geometry.n_horiz), geometry.n_vert)
    lags = ((vert[:, None] - vert) % grid[0] * grid[1]
            + (horiz[:, None] - horiz) % grid[1])
    upper = np.triu(np.ones(lags.shape, dtype=bool), 1)
    _, first, inverse = np.unique(lags, return_index=True, return_inverse=True)
    return (grid, lags, np.where(upper, 4 * geometry.n + lags.T, lags),
            first[inverse.ravel()])


def realize_spectral(spectra, geometry):
    """``D^H diag(c) D``: (N, N) for one spectrum, (K, N, N) for K."""
    grid, _, mirrored, _ = _lag_index(geometry)
    spectra = np.asarray(spectra, dtype=float)
    lags = np.fft.ifft2(spectra.reshape(spectra.shape[:-1] + grid)).reshape(
        spectra.shape)
    lags[..., 0] = lags[..., 0].real
    return np.concatenate([lags, lags.conj()], axis=-1)[..., mirrored]


def spectral_forms(mat, geometry):
    """``d_f M d_f^H`` of every atom f (4N,) for one Hermitian matrix M."""
    grid, lags, _, _ = _lag_index(geometry)
    flat, lags, n_atoms = np.ravel(mat), lags.ravel(), 4 * geometry.n
    sums = (np.bincount(lags, flat.real, n_atoms)
            + 1j * np.bincount(lags, flat.imag, n_atoms))
    return np.fft.fft2(sums.reshape(grid)).real.ravel() / n_atoms


def toeplitz_mstep(spectra, precisions, scatters, geometry, floor=0.0):
    """One ascent step of K spectra (K, 4N), entries >= floor, towards
    ``scatters``; ``precisions`` invert the covariances the spectra realize.
    A component at a time, so that no (K, N, N) temporary fragments the
    heap. Rounding negatives of ``c'`` are clamped at 0."""
    gain = np.array([spectral_forms(p @ s @ p, geometry)
                     - spectral_forms(p, geometry)
                     for p, s in zip(precisions, scatters)])
    excess = spectra - floor
    return floor + np.maximum(excess + excess ** 2 * gain, 0.0)


def toeplitz_start(scatter, geometry, floor=0.0):
    """(spectrum, steps) of a fit to one scatter: from its own forms, kept
    above the floor, ascent steps until one gains less than
    ``_START_TOL * |Q|`` or ``_START_STEPS`` have run."""
    spectrum = floor + np.maximum(spectral_forms(scatter, geometry),
                                  max(floor, 1e-300))
    objective = -np.inf
    for steps in range(_START_STEPS + 1):
        cov = realize_spectral(spectrum, geometry)
        precision = np.linalg.inv(cov)
        previous, objective = objective, (-np.linalg.slogdet(cov)[1]
                                          - np.vdot(scatter, precision).real)
        if (objective - previous <= _START_TOL * abs(objective)
                or steps == _START_STEPS):
            return spectrum, steps
        spectrum = toeplitz_mstep(spectrum[None], precision[None],
                                  scatter[None], geometry, floor)[0]


def check_structure(cov, geometry, rtol=1e-8):
    """True iff ``cov`` is Hermitian block-Toeplitz with Toeplitz blocks:
    every entry matches the first entry of its lag pair (a-b, i-j), relative
    to the largest magnitude in the matrix."""
    cov = np.asarray(cov)
    if cov.shape != (geometry.n, geometry.n):
        raise ValueError(f"expected a {geometry.n}x{geometry.n} matrix")
    scale = np.max(np.abs(cov))
    if scale == 0.0:
        return True
    if np.max(np.abs(cov - cov.conj().T)) > rtol * scale:
        return False
    flat = cov.ravel()
    return bool(np.max(np.abs(flat - flat[_lag_index(geometry)[3]]))
                <= rtol * scale)
