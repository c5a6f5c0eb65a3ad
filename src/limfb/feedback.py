"""Pilot observations, DFT codebooks, and feedback index selection.

Two families of feedback are produced here: the conventional route (estimate
the channel, then pick the codebook entry with the largest correlation
magnitude) and the mixture route (pick the component with the highest
responsibility, either of the pilot observation or of the perfect channel).
Feedback indices are 1-based, matching the wire convention of B-bit indices
in 1..2^B.
"""

import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import dft

logger = logging.getLogger(__name__)


class PilotSetup:
    """Pilot matrix plus the per-experiment noise and power bookkeeping.

    Every row of the pilot matrix (column of P^T) carries pilot energy rho;
    this is validated at construction. ``sigma_n2`` may be left unset and
    filled in per experiment via :meth:`with_noise`.
    """

    def __init__(self, pilot_matrix, rho, sigma_n2=None):
        pilot_matrix = np.asarray(pilot_matrix, dtype=np.complex128)
        if pilot_matrix.ndim != 2:
            raise ValueError("pilot matrix must be 2-D")
        n_pilots, dim = pilot_matrix.shape
        if n_pilots > dim:
            raise ValueError("cannot use more pilots than antennas")
        if not (np.isfinite(rho) and rho > 0):
            raise ValueError(f"rho must be finite and > 0, got {rho}")
        row_energy = np.sum(np.abs(pilot_matrix) ** 2, axis=1)
        if np.max(np.abs(row_energy - rho)) > 1e-8 * rho:
            raise ValueError("every pilot row must carry energy rho")
        self.pilot_matrix = pilot_matrix
        self.rho = float(rho)
        self.sigma_n2 = None if sigma_n2 is None else float(sigma_n2)

    @property
    def n_pilots(self):
        return self.pilot_matrix.shape[0]

    @property
    def dim(self):
        return self.pilot_matrix.shape[1]

    @property
    def snr(self):
        if self.sigma_n2 is None or self.sigma_n2 == 0.0:
            return np.inf
        return self.rho / self.sigma_n2

    def with_noise(self, sigma_n2):
        """Copy of this setup with the noise variance set."""
        out = PilotSetup.__new__(PilotSetup)
        out.pilot_matrix = self.pilot_matrix
        out.rho = self.rho
        out.sigma_n2 = float(sigma_n2)
        return out


def build_pilot_matrix(geometry, n_pilots, rho=1.0):
    """Evenly spaced rows of the unitary 2D-DFT, rescaled to pilot energy rho.

    Row i of the returned matrix is row round(i*N/n_pilots) of
    F_{N_v} (x) F_{N_h}; spreading the flat indices evenly covers both
    angular dimensions of the URA.
    """
    n = geometry.n
    if not 1 <= n_pilots <= n:
        raise ValueError(f"n_pilots must lie in 1..{n}")
    full = np.kron(dft(geometry.n_vert, scale="sqrtn"),
                   dft(geometry.n_horiz, scale="sqrtn"))
    rows = np.floor(np.arange(n_pilots) * n / n_pilots + 0.5).astype(int)
    pilot = np.sqrt(rho) * full[rows, :]
    return PilotSetup(pilot, rho)


def observe(setup, h, seed):
    """One noisy pilot observation ``y = P h + n`` with complex AWGN.

    ``seed`` may be an int or a numpy Generator; the noise is
    circularly-symmetric with variance ``setup.sigma_n2`` per entry.
    """
    if setup.sigma_n2 is None:
        raise ValueError("pilot setup has no noise variance set")
    h = np.asarray(h, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    unit = (rng.standard_normal(setup.n_pilots)
            + 1j * rng.standard_normal(setup.n_pilots)) / np.sqrt(2.0)
    return setup.pilot_matrix @ h + np.sqrt(setup.sigma_n2) * unit


@dataclass
class Codebook:
    """Unit-norm beamforming vectors from an under-/oversampled 2D-DFT grid."""

    entries: np.ndarray  # (K, N), rows are the codebook vectors
    oversampling: tuple  # (S_v, S_h) as Fractions
    bits: int

    def __len__(self):
        return self.entries.shape[0]


def _dft_beams(n_antennas, n_beams):
    """(n_antennas, n_beams) matrix of unit-norm DFT beam columns."""
    t = np.arange(n_antennas)[:, None]
    g = np.arange(n_beams)[None, :]
    return np.exp(-2j * np.pi * t * g / n_beams) / np.sqrt(n_antennas)


def build_dft_codebook(geometry, bits):
    """2D-DFT codebook with 2^bits entries for a URA.

    Beam counts per dimension multiply to 2^bits. Starting from one beam per
    antenna, surplus entries oversample the horizontal dimension (where the
    angular spread is larger) and deficits undersample the vertical dimension
    first, down to a single vertical beam.
    """
    if bits < 0:
        raise ValueError("bits must be >= 0")
    size = 2 ** bits
    n_vert, n_horiz = geometry.n_vert, geometry.n_horiz
    n = geometry.n
    if size >= n:
        beams_v, beams_h = n_vert, size // n_vert
    elif size >= n_horiz:
        beams_v, beams_h = size // n_horiz, n_horiz
    else:
        beams_v, beams_h = 1, size
    if beams_v * beams_h != size or beams_v < 1 or beams_h < 1:
        raise ValueError(
            f"cannot build a 2^{bits}-entry codebook on a {n_vert}x{n_horiz} "
            f"array (attempted {beams_v}x{beams_h} beams)")
    grid = np.kron(_dft_beams(n_vert, beams_v), _dft_beams(n_horiz, beams_h))
    return Codebook(entries=np.ascontiguousarray(grid.T),
                    oversampling=(Fraction(beams_v, n_vert),
                                  Fraction(beams_h, n_horiz)),
                    bits=bits)


@dataclass(frozen=True)
class FeedbackReport:
    """Per-user feedback: a 1-based index and the scheme that produced it."""

    user: int
    index: int
    scheme: str
    degenerate: bool = False


def select_codebook_index(codebook, h_hat, user=0):
    """Codebook entry with the largest correlation magnitude |c_k^H h_hat|.

    Ties resolve to the smallest index; an all-zero input is flagged as
    degenerate and reports index 1.
    """
    h_hat = np.asarray(h_hat, dtype=np.complex128)
    scores = np.abs(codebook.entries.conj() @ h_hat)
    if not np.any(scores > 0.0):
        return FeedbackReport(user=user, index=1, scheme="dft", degenerate=True)
    return FeedbackReport(user=user, index=int(np.argmax(scores)) + 1,
                          scheme="dft")


def mixture_feedback(mixture, points, scheme):
    """One report per row of ``points``: its most responsible component.

    ``mixture`` scores the rows in one call: an observation mixture scores
    pilot observations, a channel-domain model scores channels.
    """
    log_resp = mixture.log_responsibilities(np.atleast_2d(points))
    return [FeedbackReport(user=j, index=int(k) + 1, scheme=scheme)
            for j, k in enumerate(np.argmax(log_resp, axis=1))]
