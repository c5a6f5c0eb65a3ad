"""Sum-rate evaluation and Monte-Carlo sweeps over the system axes.

A sweep draws multi-user constellations from an evaluation dataset and runs
the full pipeline (observe -> feedback -> precode -> sum-rate) for every
requested scheme on the same channels and the same pilot noise, so scheme
comparisons are paired. Constellation seeds derive from the master seed by
index; together with the config hash they determine every emitted number.

Scheme tags
-----------
``gmm-obs``/``gmm-perfect`` and ``tgmm-obs``/``tgmm-perfect`` pick a mixture
component from pilot observations or perfect CSI (full / Toeplitz model);
``dft:perfect``, ``dft:gmm``, ``dft:tgmm``, ``dft:lmmse``, ``dft:omp`` select
a DFT codebook entry from perfect or estimated CSI. A mixture scheme whose
tag ends in ``+swmmse`` gets stochastic WMMSE precoders; every other scheme,
with or without a ``+rci`` suffix, gets RCI (codebook schemes cannot take
``+swmmse``: there is no generative model to sample).
"""

import hashlib
import json
import logging
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import read_fields, read_kv
from .estimators import (build_omp_dictionary, estimate_gmm, estimate_lmmse,
                         estimate_omp)
from .feedback import (build_dft_codebook, build_pilot_matrix,
                       mixture_feedback, observe, select_codebook_index)
from .gmm import fit_em, load_model, project_to_observation, sample_moments
from .precoding import (_sum_rate_matrix, directional_representatives,
                        rci_precoders, swmmse_precoders, swmmse_samples,
                        swmmse_white)
from .scene import ArrayGeometry, load_dataset, read_geometry

logger = logging.getLogger(__name__)

# sweep axis -> the config field a point along it sets
SWEEP_AXES = {"snr": "snr_db", "pilots": "pilots", "bits": "bits",
              "users": "users", "iterations": "iters"}

# mixture family of a tag -> the covariance constraint of its model
MIXTURE_FAMILIES = {"gmm": "full", "tgmm": "toeplitz"}
DFT_ESTIMATORS = ("perfect", "gmm", "tgmm", "lmmse", "omp")

DEFAULT_SCHEMES = ("gmm-obs", "tgmm-obs", "dft:gmm", "dft:tgmm",
                   "dft:lmmse", "dft:omp")

# pilot energy per row and transmit power budget: the SNR sets the noise
UNIT_POWER = 1.0

# named config presets: desk for CI-scale runs, full for the paper's scale
PROFILES = {
    "desk": dict(geometry=ArrayGeometry(2, 8, 1.0, 0.5), bits=4, users=4,
                 pilots=8, constellations=100),
    "full": dict(geometry=ArrayGeometry(4, 16, 1.0, 0.5), bits=6, users=8,
                 pilots=8, constellations=500),
}


def sum_rate(channels, precoders, sigma_n2):
    """Sum of per-user rates log2(1 + SINR_j) in bps/Hz.

    SINR_j pairs the bilinear gains ``|h_j^T v_m|^2``: the own-precoder term
    over the interference from all other precoders plus the noise variance.
    """
    channels = np.asarray(channels, dtype=np.complex128)
    vectors = precoders.vectors if hasattr(precoders, "vectors") else precoders
    if channels.shape[0] != np.asarray(vectors).shape[0]:
        raise ValueError("need one precoder per channel")
    return float(_sum_rate_matrix(channels, np.asarray(vectors), sigma_n2))


def parse_scheme(tag):
    """Split a scheme tag into (source, constraint, designer).

    ``source`` is "obs" or "perfect" for mixture feedback and
    "dft:<estimator>" for codebook feedback. ``constraint`` ("full" or
    "toeplitz") names the mixture model the scheme needs, None when it needs
    none. ``designer`` is the precoder suffix, None without one.
    """
    base, _, suffix = tag.partition("+")
    designer = suffix or None
    if designer not in (None, "rci", "swmmse"):
        raise ValueError(f"unknown precoder suffix in scheme {tag!r}")
    if base.startswith("dft:") and base[4:] in DFT_ESTIMATORS:
        return base, MIXTURE_FAMILIES.get(base[4:]), designer
    family, _, source = base.partition("-")
    if family in MIXTURE_FAMILIES and source in ("obs", "perfect"):
        return source, MIXTURE_FAMILIES[family], designer
    raise ValueError(f"unknown scheme tag {tag!r}")


@dataclass
class ExperimentConfig:
    """Everything a sweep needs; see the README for the flat file schema."""

    geometry: ArrayGeometry
    train_data: str | None = None
    eval_data: str | None = None
    bits: int = 6
    users: int = 8
    pilots: int = 8
    snr_db: tuple = (10.0,)
    constellations: int = 500
    schemes: tuple = DEFAULT_SCHEMES
    iters: int = 300
    seed: int = 0
    model_paths: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("bits", "users", "pilots", "constellations", "iters"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1 and name in ("users", "constellations", "iters"):
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.bits < 0:
            raise ValueError(f"bits must be >= 0, got {self.bits}")
        if not 1 <= self.pilots <= self.geometry.n:
            raise ValueError(f"pilots must lie in 1..{self.geometry.n}, "
                             f"got {self.pilots}")
        if np.ndim(self.snr_db) != 1:
            raise ValueError(f"snr_db must be a sequence, got {self.snr_db!r}")
        if len(self.snr_db) == 0:
            raise ValueError("need at least one snr_db point")
        if not np.all(np.isfinite(self.snr_db)):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        for snr in self.snr_db:
            _noise_variance(snr)
        if isinstance(self.schemes, str):
            raise ValueError(f"schemes must be a sequence, "
                             f"got {self.schemes!r}")
        for tag in self.schemes:
            parse_scheme(tag)
        # one value, one config_hash, whatever container held it
        self.snr_db = tuple(float(snr) for snr in self.snr_db)
        self.schemes = tuple(str(tag) for tag in self.schemes)

    @property
    def sigma_n2(self):
        """The noise variance of the first SNR point."""
        return _noise_variance(self.snr_db[0])

    @classmethod
    def desk_profile(cls, **overrides):
        """Small profile for CI-scale runs: N=16, B=4, 100 constellations."""
        return cls(**{**PROFILES["desk"], **overrides})

    @classmethod
    def from_file(cls, path):
        """Read a flat config file; see the README for its keys."""
        kv = read_kv(path)
        profile = kv.pop("profile", None)
        if profile is not None and profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        kwargs = read_fields(cls, kv, {
            "snr_db": lambda text: tuple(float(v) for v in text.split(",")),
            "schemes": lambda text: tuple(s.strip() for s in text.split(","))})
        base = PROFILES.get(profile, {}).get("geometry", ArrayGeometry())
        kwargs["geometry"] = read_geometry(kv, base)
        kwargs["model_paths"] = {key[len("model."):]: kv.pop(key)
                                 for key in list(kv) if key.startswith("model.")}
        if kv:
            raise ValueError(f"unknown config keys: {sorted(kv)}")
        return cls(**{**PROFILES.get(profile, {}), **kwargs})

    def config_hash(self):
        """Stable hash of every field that influences the results, sorted."""
        values = {**self.__dict__,
                  "model_paths": sorted(self.model_paths.items())}
        payload = repr(sorted(values.items(), key=lambda kv: kv[0]))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _noise_variance(snr_db):
    """The noise variance UNIT_POWER / 10^(snr_db/10), in Python floats,
    which raise on overflow; ValueError unless it is finite and > 0."""
    try:
        noise = UNIT_POWER / 10.0 ** (float(snr_db) / 10.0)
    except (OverflowError, ZeroDivisionError):
        noise = 0.0
    if not 0.0 < noise < np.inf:
        raise ValueError(f"snr_db {snr_db}: no finite noise variance > 0")
    return noise


@dataclass
class SweepResult:
    """Per-axis-value mean sum-rates and standard errors per scheme."""

    axis: str
    values: list
    schemes: list
    means: dict
    std_errors: dict
    per_constellation: dict  # scheme -> (n_values, n_constellations)
    metadata: dict


class Experiment:
    """Loaded datasets, models, and cached derived objects for one config.

    Models are keyed by (constraint, bits). Missing models are loaded from
    ``config.model_paths`` (keys ``full``/``toeplitz`` or ``full.<bits>``)
    or, when training data is available, fitted on demand (logged at INFO).
    What a model determines, alone or with a pilot setup, is kept on the
    model and outlives the Experiment: its score matrix, its components'
    representatives and its observation mixtures (0.7 MB each at N=K=64
    and 8 pilots). Pilot setups, codebooks and training statistics are made
    on first use and kept in one dict here.
    What belongs to one constellation at all its points, its feedback and
    its SWMMSE draws and sample sets, lives in one
    :meth:`run_constellation` call only.
    """

    def __init__(self, config, train_dataset=None, eval_dataset=None,
                 models=None):
        self.config = config
        self.geometry = config.geometry
        self.train = train_dataset
        if self.train is None and config.train_data:
            self.train = load_dataset(config.train_data)
        self.eval = eval_dataset
        if self.eval is None and config.eval_data:
            self.eval = load_dataset(config.eval_data)
        if self.eval is None:
            raise ValueError("an evaluation dataset is required")
        if self.eval.dim != self.geometry.n:
            raise ValueError("evaluation dataset does not match the geometry")
        if config.users > len(self.eval):
            raise ValueError("more users than evaluation channels")
        self.models = dict(models) if models else {}
        self._cache = {}

    # -- resources ---------------------------------------------------------

    def _memo(self, key, make):
        """The value cached under ``key``, made by ``make()`` on first use."""
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def model_for(self, constraint, bits):
        key = (constraint, bits)
        if key in self.models:
            return self.models[key]
        paths = self.config.model_paths
        path = paths.get(f"{constraint}.{bits}") or (
            paths.get(constraint) if bits == self.config.bits else None)
        if path:
            model = load_model(path, geometry=self.geometry)
        elif self.train is not None:
            logger.info("no %s model for B=%d on file: fitting K=%d on %d "
                        "training channels", constraint, bits, 2 ** bits,
                        len(self.train))
            model = fit_em(self.train, 2 ** bits, constraint=constraint,
                           geometry=self.geometry)
        else:
            return None
        self.models[key] = model
        return model

    def train_stats(self):
        return self._memo("train_stats",
                          lambda: sample_moments(self.train.samples))

    def pilot_setup(self, n_pilots, sigma_n2):
        return self._memo(
            ("pilots", n_pilots, sigma_n2),
            lambda: build_pilot_matrix(self.geometry, n_pilots,
                                       sigma_n2=sigma_n2, rho=UNIT_POWER))

    def observation_model(self, constraint, bits, n_pilots, sigma_n2):
        """The model's observation mixture, kept on the model: the geometry,
        the pilot count and the noise variance determine it, as every
        pilot row carries UNIT_POWER."""
        model = self.model_for(constraint, bits)
        key = (self.geometry, n_pilots, sigma_n2)
        if key not in model._observations:
            model._observations[key] = project_to_observation(
                model, self.pilot_setup(n_pilots, sigma_n2))
        return model._observations[key]

    def codebook(self, bits):
        return self._memo(("codebook", bits),
                          lambda: build_dft_codebook(self.geometry, bits))

    def scheme_blocker(self, tag, bits):
        """Reason this scheme cannot run under the current resources, or None."""
        source, constraint, designer = parse_scheme(tag)
        if designer == "swmmse" and source.startswith("dft:"):
            return "codebook schemes have no generative model to sample"
        if constraint and self.model_for(constraint, bits) is None:
            return f"no {constraint} model for B={bits}"
        if source == "dft:lmmse" and self.train is None:
            return "LMMSE needs a training dataset"
        return None

    # -- pipeline ----------------------------------------------------------

    def feedback(self, tag, bits, setup, channels, observations):
        """1-based feedback indices of one scheme, shape (J,), one per row.

        ``observations`` holds the users' pilot observations under
        ``setup``, one row per channel; every scheme of a constellation sees
        the same rows. The scheme must be runnable (see scheme_blocker).
        """
        source, constraint, _ = parse_scheme(tag)
        if source == "perfect":
            return mixture_feedback(self.model_for(constraint, bits), channels)
        if constraint:  # these schemes score through the observation mixture
            obs = self.observation_model(constraint, bits, setup.n_pilots,
                                         setup.sigma_n2)
            if source == "obs":
                return mixture_feedback(obs, observations)
            estimates = estimate_gmm(obs, observations)
        elif source == "dft:perfect":
            estimates = channels
        elif source == "dft:lmmse":
            estimates = estimate_lmmse(*self.train_stats(), setup, observations)
        else:
            dictionary = self._memo("omp_dictionary",
                                    lambda: build_omp_dictionary(self.geometry))
            estimates = [estimate_omp(setup, dictionary, y)
                         for y in observations]
        codebook = self.codebook(bits)
        return np.array([select_codebook_index(codebook, h_hat).index
                         for h_hat in estimates])

    def run_constellation(self, seed, points=None, at_iterations=None):
        """Rates per scheme at every point of one constellation draw.

        ``points`` are the configs of the sweep points (default: the
        experiment's config alone); each sets the pilots, SNR, bits, users
        and iterations. Every point draws from ``seed`` afresh, so all its
        schemes see the same user channels and the same unit pilot noise
        (common random numbers), and a point's rates do not depend on the
        other points. Returns one (rates, skipped) pair per point. With
        ``at_iterations`` (1-based, at most each point's ``iters``) the rate
        of an SWMMSE-designed scheme is an array, one rate per listed
        iteration, evaluated from that iteration's precoder snapshot.

        Work that the points share is done once per call: schemes of one
        feedback source and model share their indices at a point, and
        perfect-CSI indices, which do not depend on the SNR or the pilots,
        are shared across points. The SWMMSE designs run last, grouped by
        their draw (seed, T + 1, J) and then by their sample set (model,
        indices, draw), so the call holds at most one draw and one sample
        set at a time, and designs with equal inputs share both.
        """
        points = [self.config] if points is None else points
        results = []
        feedback = {}  # indices by source, model, users and point
        designs = {}  # draw -> sample set -> [(indices, rates, tag, ...)]
        for row, point in enumerate(points):
            bits = point.bits
            rng = np.random.default_rng(seed)
            picks = rng.choice(len(self.eval), size=point.users, replace=False)
            channels = self.eval.samples[picks].astype(np.complex128)
            setup = self.pilot_setup(point.pilots, point.sigma_n2)
            observations = observe(setup, channels, rng)
            draw = (int(rng.integers(0, 2 ** 63)), point.iters + 1,
                    point.users)

            rates, skipped = {}, {}
            results.append((rates, skipped))
            for tag in point.schemes:
                blocker = self.scheme_blocker(tag, bits)
                if blocker:
                    skipped[tag] = blocker
                    continue
                source, constraint, designer = parse_scheme(tag)
                # perfect CSI sees neither the SNR nor the pilots
                key = (source, constraint, bits, point.users,
                       None if source.endswith("perfect") else row)
                if key not in feedback:
                    feedback[key] = self.feedback(tag, bits, setup, channels,
                                                  observations)
                indices = feedback[key]
                if designer == "swmmse":  # designed below
                    sample_set = (constraint, bits, indices.tobytes())
                    designs.setdefault(draw, {}).setdefault(
                        sample_set, []).append(
                            (indices, rates, tag, channels, point))
                    continue
                chosen = (self.codebook(bits)[indices - 1]
                          if source.startswith("dft:") else
                          directional_representatives(
                              self.model_for(constraint, bits), indices))
                rates[tag] = sum_rate(channels, rci_precoders(
                    chosen, point.sigma_n2, UNIT_POWER), point.sigma_n2)

        for draw, sets in designs.items():
            white = swmmse_white(*draw, self.geometry.n)
            for (constraint, bits, _), group in sets.items():
                samples = swmmse_samples(self.model_for(constraint, bits),
                                         group[0][0], white)
                for _, rates, tag, channels, point in group:
                    rates[tag] = _swmmse_rates(samples, channels, point,
                                               at_iterations)
                del samples  # before the next set is made
            del white
        return results


def _swmmse_rates(samples, channels, point, at_iterations):
    """The rate of one SWMMSE design, or its rates at ``at_iterations``."""
    precoders = swmmse_precoders(samples, point.sigma_n2, UNIT_POWER)
    if at_iterations is None:
        return sum_rate(channels, precoders, point.sigma_n2)
    snaps = precoders.metadata["precoders"]
    return np.array([sum_rate(channels, snaps[t - 1], point.sigma_n2)
                     for t in at_iterations])


def axis_values(experiment, axis, values=None):
    """The points of a sweep along ``axis``: ``values`` or the defaults.

    Each value must make a valid config (see :func:`sweep_point`), a user
    count must not exceed len(eval), and EM and the codebook must serve a
    bit width; otherwise ValueError names the axis and the value.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r} "
                         f"(one of {tuple(SWEEP_AXES)})")
    cfg = experiment.config
    if values is not None:
        for value in values:
            try:
                sweep_point(cfg, axis, value)
                if axis == "users" and value > len(experiment.eval):
                    raise ValueError(f"more users than the "
                                     f"{len(experiment.eval)} evaluation "
                                     f"channels")
                for tag in cfg.schemes:  # fits what the bit width needs
                    if (axis == "bits"
                            and experiment.scheme_blocker(tag, value) is None
                            and tag.startswith("dft:")):
                        experiment.codebook(value)
            except ValueError as exc:
                raise ValueError(f"{axis} value {value!r}: {exc}") from None
        return list(values)
    if axis == "snr":
        return list(cfg.snr_db)
    if axis == "pilots":
        return [v for v in (2, 4, 6, 8, 12, 16) if v <= experiment.geometry.n]
    if axis == "bits":
        return sorted({b for (_, b) in experiment.models} or {cfg.bits})
    if axis == "users":
        return [v for v in (2, 4, 8, 12, 16) if v <= len(experiment.eval)]
    return list(range(1, cfg.iters + 1))  # iterations


def sweep_point(config, axis, value):
    """``config`` with the field of ``axis`` set to ``value``: the snr axis
    sets ``snr_db=(value,)``, the iterations axis ``iters``."""
    value = (value,) if axis == "snr" else value
    return replace(config, **{SWEEP_AXES[axis]: value})


def mean_and_se(rates):
    """Mean and standard error (0 for one sample) over the last axis."""
    n_const = rates.shape[-1]
    if n_const > 1:
        se = rates.std(axis=-1, ddof=1) / np.sqrt(n_const)
    else:
        se = np.zeros(rates.shape[:-1])
    return rates.mean(axis=-1), se


def run_sweep(experiment, axis, values=None):
    """Monte-Carlo sweep of an :class:`Experiment` along one axis.

    ``axis`` is one of SWEEP_AXES. The sweep is constellation-major: one
    :meth:`Experiment.run_constellation` call per constellation covers every
    point. Constellation i reuses the seed [master_seed, i] at every axis
    point, so extending the grid or the constellation count leaves earlier
    per-constellation values unchanged. The iterations axis runs one SWMMSE
    trajectory per constellation and evaluates the rates at the requested
    checkpoints only. A scheme that cannot run at a point (see
    :meth:`Experiment.scheme_blocker`) has NaN rates there, and
    ``metadata["skipped"]`` maps it to {axis value: reason}; a scheme
    skipped at every point is left out of ``schemes``.
    """
    values = axis_values(experiment, axis, values)
    cfg = experiment.config
    started = time.perf_counter()

    # the point configs, and the rows of the result each point fills
    at_iterations = None
    if axis == "iterations":
        points = [sweep_point(cfg, axis, max(values))]
        rows = [slice(None)]
        at_iterations = values
    else:
        points = [sweep_point(cfg, axis, value) for value in values]
        rows = [slice(row, row + 1) for row in range(len(values))]

    n_const = cfg.constellations
    collected = {tag: np.full((len(values), n_const), np.nan)
                 for tag in cfg.schemes}
    ran, skipped_at = set(), {}
    for i in range(n_const):
        found = experiment.run_constellation([cfg.seed, i], points,
                                             at_iterations)
        for row, (rates, skipped) in zip(rows, found):
            for tag, rate in rates.items():
                collected[tag][row, i] = rate
            ran.update(rates)
            for tag, reason in skipped.items():
                skipped_at.setdefault(tag, {}).update(
                    dict.fromkeys(values[row], reason))

    schemes = [tag for tag in cfg.schemes if tag in ran]
    collected = {tag: collected[tag] for tag in schemes}
    means, std_errors = {}, {}
    for tag in schemes:
        means[tag], std_errors[tag] = mean_and_se(collected[tag])
    metadata = {
        "config_hash": cfg.config_hash(),
        "master_seed": cfg.seed,
        "constellations": n_const,
        "skipped": skipped_at,
        "runtime_s": time.perf_counter() - started,
    }
    return SweepResult(axis=axis, values=values, schemes=schemes, means=means,
                       std_errors=std_errors, per_constellation=collected,
                       metadata=metadata)


def _fmt(value):
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit_csv(result, path):
    """Write a sweep result as CSV with full (repr) float precision.

    Header: the axis name, then a ``<scheme>_mean,<scheme>_se`` pair per
    scheme; one row per axis value. Output bytes are deterministic for a
    given result.
    """
    header = [result.axis]
    for tag in result.schemes:
        header += [f"{tag}_mean", f"{tag}_se"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i, value in enumerate(result.values):
            row = [_fmt(value)]
            for tag in result.schemes:
                row.append(_fmt(result.means[tag][i]))
                row.append(_fmt(result.std_errors[tag][i]))
            fh.write(",".join(row) + "\n")


def read_sweep_csv(path):
    """Parse a CSV written by :func:`emit_csv` into (axis, header, rows)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header[0], header, rows


def dump_raw(result, path):
    """Persist per-constellation rates as a float64 ``.npy`` array at ``path``.

    Row ``v * C + i`` holds the per-scheme rates of axis value ``v`` and
    constellation ``i`` (C constellations), one column per scheme, so a
    sweep that ran no scheme dumps (V * C, 0). A one-line JSON sidecar
    ``<path>.jsonl`` names the scheme order, the axis, the config hash and
    the master seed.
    """
    n_rows = len(result.values) * result.metadata["constellations"]
    stacked = np.empty((n_rows, len(result.schemes)))
    for s_idx, tag in enumerate(result.schemes):
        stacked[:, s_idx] = result.per_constellation[tag].reshape(-1)
    with open(path, "wb") as fh:
        np.save(fh, stacked)
    with open(str(path) + ".jsonl", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({
            "schemes": result.schemes, "axis": result.axis,
            "config_hash": result.metadata["config_hash"],
            "master_seed": result.metadata["master_seed"]}) + "\n")


def export_trajectory_csv(precoders, path):
    """Write an SWMMSE trajectory as ``iteration,sum_rate,power`` CSV."""
    objective = precoders.metadata["objective"]
    power = precoders.metadata["power"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,sum_rate,power\n")
        for i in range(len(objective)):
            fh.write(f"{i + 1},{_fmt(objective[i])},{_fmt(power[i])}\n")
