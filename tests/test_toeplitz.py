import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, dft
from scipy.optimize import nnls

from limfb import toeplitz
from limfb.gmm import EmOptions, fit_em
from limfb.scene import (ArrayGeometry, SceneConfig, generate_channels,
                         normalize_dataset)
from limfb.toeplitz import (bttb_basis, check_structure, realize_spectral,
                            toeplitz_mstep)

GEOM = ArrayGeometry(2, 2, 1.0, 0.5)  # N=4, 16 atoms


def _atom_matrix(geometry):
    """Real-valued design matrix of the vectorized realization map."""
    d = bttb_basis(geometry).dictionary
    cols = [np.outer(d[f].conj(), d[f]).ravel() for f in range(d.shape[0])]
    complex_design = np.stack(cols, axis=1)
    return np.vstack([complex_design.real, complex_design.imag])


def test_recovers_identifiable_spectrum():
    # spectra in the range of the Gram operator are identifiable; generic
    # ones are not (the 4N-dim parameterization is overcomplete)
    basis = bttb_basis(GEOM)
    rng = np.random.default_rng(1)
    gram = np.abs(basis.dictionary @ basis.dictionary.conj().T) ** 2
    c0 = gram @ rng.uniform(0.5, 1.5, basis.n_atoms)
    c0 *= 1.0 / c0.min()  # entries >= 1 >> floor
    recovered = toeplitz_mstep(realize_spectral(c0, GEOM), GEOM, floor=1e-8)
    np.testing.assert_allclose(recovered, c0, rtol=1e-6)


def test_generic_spectrum_realization_matches():
    rng = np.random.default_rng(2)
    c0 = rng.uniform(0.0, 2.0, 16)
    target = realize_spectral(c0, GEOM)
    recovered = toeplitz_mstep(target, GEOM, floor=0.0)
    np.testing.assert_allclose(realize_spectral(recovered, GEOM), target,
                               atol=1e-8)


def test_identity_projection_matches_nnls_oracle():
    target = np.eye(GEOM.n)
    spectrum = toeplitz_mstep(target, GEOM, floor=1e-12)
    residual = np.linalg.norm(realize_spectral(spectrum, GEOM) - target)

    design = _atom_matrix(GEOM)
    rhs = np.concatenate([target.ravel().real, target.ravel().imag])
    oracle_spectrum, oracle_residual = nnls(design, rhs)
    assert abs(residual - oracle_residual) < 1e-6


def test_random_scatter_tracks_nnls_oracle():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    scatter = raw @ raw.conj().T / 6
    spectrum = toeplitz_mstep(scatter, GEOM, floor=0.0)
    residual = np.linalg.norm(realize_spectral(spectrum, GEOM) - scatter)

    design = _atom_matrix(GEOM)
    rhs = np.concatenate([scatter.ravel().real, scatter.ravel().imag])
    _, oracle_residual = nnls(design, rhs)
    assert residual <= oracle_residual * (1.0 + 1e-2) + 1e-9


def test_zero_scatter_returns_floor():
    floor = 1e-5
    spectrum = toeplitz_mstep(np.zeros((4, 4)), GEOM, floor=floor)
    np.testing.assert_allclose(spectrum, floor * np.ones(16))


class _ReferenceBasis:
    """The projection as first written, kept as the oracle of the fast one.

    The Cholesky solve only checks feasibility, and the first clip pass
    re-solves the full ridged system by LU with every atom free.
    """

    def __init__(self, geometry):
        self.geometry = geometry
        d_vert = dft(2 * geometry.n_vert, scale="sqrtn")[:, : geometry.n_vert]
        d_horiz = dft(2 * geometry.n_horiz, scale="sqrtn")[:, : geometry.n_horiz]
        self.dictionary = np.kron(d_vert, d_horiz)  # (4N, N)
        self._gram = np.abs(self.dictionary @ self.dictionary.conj().T) ** 2
        self._ridge = toeplitz._GRAM_RIDGE * np.trace(self._gram).real
        self._gram_chol = cho_factor(
            self._gram + self._ridge * np.eye(self._gram.shape[0]))

    @property
    def n_atoms(self):
        return self.dictionary.shape[0]

    def project(self, scatter, floor=0.0):
        d = self.dictionary
        correlations = np.einsum("fm,fm->f", d @ scatter, d.conj()).real
        spectrum = cho_solve(self._gram_chol, correlations)
        if np.all(spectrum >= floor):
            return spectrum
        free = np.ones(self.n_atoms, dtype=bool)
        solution = np.full(self.n_atoms, floor)
        while True:  # each pass fixes at least one more atom at the floor
            gram_free = self._gram[np.ix_(free, free)]
            rhs = correlations[free]
            if floor != 0.0 and not free.all():
                rhs = rhs - floor * self._gram[np.ix_(free, ~free)].sum(axis=1)
            values = np.linalg.solve(
                gram_free + self._ridge * np.eye(int(free.sum())), rhs)
            violated = values < floor
            if not violated.any():
                solution[free] = values
                return solution
            free_idx = np.flatnonzero(free)
            free[free_idx[violated]] = False


def _scatter(geometry, kind, rank, seed):
    """A PSD scatter of the given rank, an indefinite Hermitian one, or 0."""
    n = geometry.n
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    cols = rank if kind == "psd" else n
    raw = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    if kind == "psd":
        return raw @ raw.conj().T / cols
    return raw + raw.conj().T


def _first_pass_tie(reference, scatter, floor):
    """True iff the Cholesky and the LU solve of the full system clip
    different atoms, and the Cholesky solve clips some."""
    d = reference.dictionary
    correlations = np.einsum("fm,fm->f", d @ scatter, d.conj()).real
    by_cholesky = cho_solve(reference._gram_chol, correlations) < floor
    ridged = reference._gram + reference._ridge * np.eye(reference.n_atoms)
    by_lu = np.linalg.solve(ridged, correlations) < floor
    return by_cholesky.any() and not np.array_equal(by_cholesky, by_lu)


@settings(max_examples=300, deadline=None)
@given(n_vert=st.integers(1, 3), n_horiz=st.integers(1, 4),
       kind=st.sampled_from(["psd", "indefinite", "zero"]),
       rank=st.integers(1, 13), log_floor=st.none() | st.floats(-8.0, 0.0),
       seed=st.integers(0, 2**32 - 1))
@example(n_vert=2, n_horiz=4, kind="zero", rank=1, log_floor=None, seed=0)
@example(n_vert=2, n_horiz=4, kind="zero", rank=1, log_floor=-5.0, seed=0)
@example(n_vert=3, n_horiz=4, kind="psd", rank=1, log_floor=None, seed=0)
@example(n_vert=3, n_horiz=4, kind="indefinite", rank=1, log_floor=-2.0,
         seed=0)
# a tie: the four atoms of a single antenna are one atom, the Gram system
# is singular but for its ridge, and the floor lies between the Cholesky
# and the LU value of the first atom (0.79448442 < floor < 0.79448481)
@example(n_vert=1, n_horiz=1, kind="psd", rank=1,
         log_floor=-5.960464477539063e-08, seed=1)
def test_projection_matches_reference_loop_bit_for_bit(
        n_vert, n_horiz, kind, rank, log_floor, seed):
    # the floor scales with the scatter, as EM's floor scales with the data
    geometry = ArrayGeometry(n_vert, n_horiz)
    scatter = _scatter(geometry, kind, rank, seed)
    scale = np.abs(scatter).max() if kind != "zero" else 1.0
    floor = 0.0 if log_floor is None else 10.0 ** log_floor * scale
    reference = _ReferenceBasis(geometry)
    expected = reference.project(scatter, floor)
    got = toeplitz_mstep(scatter, geometry, floor=floor)
    assert got.shape == expected.shape
    if not _first_pass_tie(reference, scatter, floor):
        assert got.tobytes() == expected.tobytes()
        return
    # at a tie the fast projection clips from the Cholesky solution, the
    # reference from the LU one: both stay feasible and realize the same
    # matrix up to the rounding of the two solves
    assert np.all(got >= floor)
    np.testing.assert_allclose(realize_spectral(got, geometry),
                               realize_spectral(expected, geometry),
                               rtol=0.0, atol=1e-6 * scale)


def test_toeplitz_fit_matches_reference_projection_bit_for_bit(monkeypatch):
    # EM's own scatters and floor, on a small scene
    geometry = ArrayGeometry(2, 4)
    data = normalize_dataset(generate_channels(SceneConfig(geometry, seed=5),
                                               800, sample_seed=1))
    options = EmOptions(max_iters=6, rel_loglik_tol=0.0, seed=2)
    fast = fit_em(data, 6, "toeplitz", options, geometry=geometry)
    monkeypatch.setattr(
        toeplitz.BttbBasis, "project",
        lambda basis, scatter, floor=0.0:
            _ReferenceBasis(basis.geometry).project(scatter, floor))
    reference = fit_em(data, 6, "toeplitz", options, geometry=geometry)
    assert fast.spectral.tobytes() == reference.spectral.tobytes()
    assert fast.covariances.tobytes() == reference.covariances.tobytes()


@pytest.fixture
def solved_sizes(monkeypatch):
    """Orders of the systems np.linalg.solve gets from limfb.toeplitz."""
    sizes = []
    solve = toeplitz.np.linalg.solve

    def counting_solve(a, b):
        sizes.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(toeplitz.np.linalg, "solve", counting_solve)
    return sizes


def test_feasible_scatter_makes_no_lu_solve(solved_sizes):
    # the spectrum of test_recovers_identifiable_spectrum: the Cholesky
    # solution is above the floor everywhere, so no atom is clipped
    basis = bttb_basis(GEOM)
    rng = np.random.default_rng(1)
    gram = np.abs(basis.dictionary @ basis.dictionary.conj().T) ** 2
    c0 = gram @ rng.uniform(0.5, 1.5, basis.n_atoms)
    c0 *= 1.0 / c0.min()
    toeplitz_mstep(realize_spectral(c0, GEOM), GEOM, floor=1e-8)
    assert solved_sizes == []


@pytest.mark.parametrize("floor", [0.0, 1e-3])
@pytest.mark.parametrize("shape", [(2, 2), (1, 4), (3, 4)])
def test_projection_never_solves_with_every_atom_free(solved_sizes, shape,
                                                      floor):
    # where the reference loop clips, it solves the full 4N-atom system
    # first and then exactly the free systems the fast projection solves
    geometry = ArrayGeometry(*shape)
    n_atoms = bttb_basis(geometry).n_atoms
    clipping = 0
    for seed in range(10):
        scatter = _scatter(geometry, ("psd", "indefinite")[seed % 2], 2, seed)
        _ReferenceBasis(geometry).project(scatter, floor)
        reference_sizes = solved_sizes[:]
        solved_sizes.clear()
        toeplitz_mstep(scatter, geometry, floor=floor)
        assert solved_sizes == reference_sizes[1:]
        assert all(size < n_atoms for size in solved_sizes)
        if reference_sizes:
            assert reference_sizes[0] == n_atoms
            clipping += 1
        solved_sizes.clear()
    assert clipping >= 5


def test_realized_spectra_pass_structure_check():
    rng = np.random.default_rng(4)
    geom = ArrayGeometry(2, 4)
    for _ in range(5):
        c = rng.uniform(0.0, 1.0, 4 * geom.n)
        assert check_structure(realize_spectral(c, geom), geom)


def test_identity_passes_structure_check():
    geom = ArrayGeometry(2, 4)
    assert check_structure(np.eye(8), geom)


def _index_walking_structure_oracle(cov, geometry, rtol):
    n_vert, n_horiz = geometry.n_vert, geometry.n_horiz
    scale = np.max(np.abs(cov))
    blocks = cov.reshape(n_vert, n_horiz, n_vert, n_horiz)
    for a in range(n_vert):
        for b in range(n_vert):
            for i in range(n_horiz):
                for j in range(n_horiz):
                    dv, dh = a - b, i - j
                    ra, rb = (dv, 0) if dv >= 0 else (0, -dv)
                    ri, rj = (dh, 0) if dh >= 0 else (0, -dh)
                    if abs(blocks[a, i, b, j] - blocks[ra, ri, rb, rj]) \
                            > rtol * scale:
                        return False
    herm = np.max(np.abs(cov - cov.conj().T)) <= rtol * scale
    return herm


def test_random_hermitian_fails_structure_check():
    geom = ArrayGeometry(2, 4)
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    cov = raw + raw.conj().T
    assert not check_structure(cov, geom)
    assert check_structure(cov, geom) == \
        _index_walking_structure_oracle(cov, geom, 1e-8)


def test_structure_check_agrees_with_index_oracle():
    geom = ArrayGeometry(2, 3)
    rng = np.random.default_rng(6)
    for _ in range(10):
        c = rng.uniform(0.0, 1.0, 4 * geom.n)
        cov = realize_spectral(c, geom)
        # corrupt half of the cases
        if rng.random() < 0.5:
            cov = cov.copy()
            cov[0, 1] += 0.1
        assert check_structure(cov, geom) == \
            _index_walking_structure_oracle(cov, geom, 1e-8)
