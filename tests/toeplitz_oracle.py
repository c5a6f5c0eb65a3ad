"""Dense-dictionary references for the block-Toeplitz algebra, shared by tests.

The library realizes spectra and forms ``d_f M d_f^H`` by 2-D FFTs over a
lag index. These references multiply by the explicit (4N, N) dictionary
``D = kron(d_v, d_h)`` instead, invert covariances densely and fit by the
plain Miller-Snyder loop.
"""

import numpy as np
from scipy.linalg import dft

from limfb import toeplitz


def dense_dictionary(geometry):
    """(4N, N) Kronecker product of the two tall unitary DFT sections."""
    d_vert = dft(2 * geometry.n_vert, scale="sqrtn")[:, : geometry.n_vert]
    d_horiz = dft(2 * geometry.n_horiz, scale="sqrtn")[:, : geometry.n_horiz]
    return np.kron(d_vert, d_horiz)


def reference_realize(spectrum, dictionary):
    """``D^H diag(c) D`` by one dense product."""
    return (dictionary.conj().T * spectrum) @ dictionary


def reference_forms(mat, dictionary):
    """``d_f M d_f^H`` of every atom f, by dense products."""
    return np.einsum("fm,mn,fn->f", dictionary, mat, dictionary.conj()).real


def objective(spectrum, scatter, dictionary):
    """``Q(C) = -log det C - tr(C^-1 S)`` at the realized spectrum."""
    cov = reference_realize(spectrum, dictionary)
    _, logdet = np.linalg.slogdet(cov)
    return -logdet - np.trace(np.linalg.solve(cov, scatter)).real


def ascent_terms(spectrum, scatter, dictionary):
    """(a, b): the forms of P and of P S P at the precision P = C^-1."""
    precision = np.linalg.inv(reference_realize(spectrum, dictionary))
    return (reference_forms(precision, dictionary),
            reference_forms(precision @ scatter @ precision, dictionary))


def reference_ascent_step(spectrum, scatter, dictionary, floor):
    """One Miller-Snyder step ``c' <- c' + c'^2 (b - a)``, c = floor + c'."""
    a, b = ascent_terms(spectrum, scatter, dictionary)
    excess = spectrum - floor
    return floor + np.maximum(excess + excess ** 2 * (b - a), 0.0)


def reference_start(scatter, dictionary, floor):
    """The start fit of ``toeplitz.toeplitz_start`` by dense algebra."""
    spectrum = floor + np.maximum(reference_forms(scatter, dictionary),
                                  max(floor, 1e-300))
    value = objective(spectrum, scatter, dictionary)
    for _ in range(toeplitz._START_STEPS):
        spectrum = reference_ascent_step(spectrum, scatter, dictionary, floor)
        previous, value = value, objective(spectrum, scatter, dictionary)
        if value - previous <= toeplitz._START_TOL * abs(value):
            break
    return spectrum
