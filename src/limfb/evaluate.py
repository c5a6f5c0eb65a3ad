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
import time
from dataclasses import dataclass, field

import numpy as np

from .config import read_fields, read_kv
from .estimators import (build_omp_dictionary, estimate_gmm, estimate_lmmse,
                         estimate_omp)
from .feedback import (build_dft_codebook, build_pilot_matrix,
                       mixture_feedback, select_codebook_index)
from .gmm import fit_em, load_model, project_to_observation, sample_moments
from .precoding import (SwmmseOptions, _check_rho, _sum_rate_matrix,
                        directional_representatives, rci_precoders,
                        swmmse_precoders)
from .scene import ArrayGeometry, load_dataset, read_geometry

logger = logging.getLogger(__name__)

SWEEP_AXES = ("snr", "pilots", "bits", "users", "iterations")

# mixture family of a tag -> the covariance constraint of its model
MIXTURE_FAMILIES = {"gmm": "full", "tgmm": "toeplitz"}
DFT_ESTIMATORS = ("perfect", "gmm", "tgmm", "lmmse", "omp")

DEFAULT_SCHEMES = ("gmm-obs", "tgmm-obs", "dft:gmm", "dft:tgmm",
                   "dft:lmmse", "dft:omp")

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
    return _sum_rate_matrix(channels, np.asarray(vectors), sigma_n2)


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
    rho: float = 1.0
    seed: int = 0
    model_paths: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("constellations", "users", "iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 1 <= self.pilots <= self.geometry.n:
            raise ValueError(f"pilots must lie in 1..{self.geometry.n}, "
                             f"got {self.pilots}")
        _check_rho(self.rho)
        if not self.snr_db:
            raise ValueError("need at least one snr_db point")
        for tag in self.schemes:
            parse_scheme(tag)

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
        """Stable hash over every field that influences the results."""
        payload = repr(sorted(self.__dict__.items(), key=lambda kv: kv[0]))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


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
    Everything derived from them is made on first use and kept in one dict;
    a component's representative is made when a report first names it.
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
                                       sigma_n2=sigma_n2, rho=self.config.rho))

    def observation_model(self, constraint, bits, n_pilots, sigma_n2):
        return self._memo(
            ("observation", constraint, bits, n_pilots, sigma_n2),
            lambda: project_to_observation(self.model_for(constraint, bits),
                                           self.pilot_setup(n_pilots, sigma_n2)))

    def codebook(self, bits):
        return self._memo(("codebook", bits),
                          lambda: build_dft_codebook(self.geometry, bits))

    def representatives(self, constraint, bits, indices):
        """Rows for the 1-based component ``indices``, each computed once."""
        cache = self._memo(("representatives", constraint, bits), dict)
        missing = [k for k in dict.fromkeys(indices) if k not in cache]
        if missing:
            model = self.model_for(constraint, bits)
            cache.update(zip(missing, directional_representatives(model, missing)))
        return np.vstack([cache[k] for k in indices])

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
        if source == "dft:perfect":
            estimates = channels
        elif constraint:
            estimates = estimate_gmm(self.model_for(constraint, bits), obs,
                                     observations)
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

    def _precoders(self, tag, bits, indices, sigma_n2, swmmse_seed, iters):
        source, constraint, designer = parse_scheme(tag)
        rho = self.config.rho
        if designer == "swmmse":
            model = self.model_for(constraint, bits)
            options = SwmmseOptions(max_iters=iters, seed=swmmse_seed)
            return swmmse_precoders(model, indices, sigma_n2, rho, options)
        if source.startswith("dft:"):
            chosen = self.codebook(bits).entries[indices - 1]
        else:
            chosen = self.representatives(constraint, bits, indices)
        return rci_precoders(chosen, sigma_n2, rho)

    def run_constellation(self, seed, n_pilots=None, sigma_n2=None, bits=None,
                          users=None, iters=None, at_iterations=None):
        """Rates per scheme for one constellation draw.

        All schemes see the same user channels and the same unit pilot noise
        (common random numbers). Returns (rates, skipped). With
        ``at_iterations`` (1-based, at most ``iters``) the rate of an
        SWMMSE-designed scheme is an array, one rate per listed iteration,
        evaluated from that iteration's precoder snapshot.
        """
        cfg = self.config
        n_pilots = cfg.pilots if n_pilots is None else n_pilots
        bits = cfg.bits if bits is None else bits
        users = cfg.users if users is None else users
        iters = cfg.iters if iters is None else iters
        if sigma_n2 is None:
            sigma_n2 = cfg.rho / 10.0 ** (cfg.snr_db[0] / 10.0)
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(self.eval), size=users, replace=False)
        channels = self.eval.samples[picks].astype(np.complex128)
        unit_noise = (rng.standard_normal((users, n_pilots))
                      + 1j * rng.standard_normal((users, n_pilots)))
        unit_noise /= np.sqrt(2.0)
        swmmse_seed = int(rng.integers(0, 2 ** 63))

        setup = self.pilot_setup(n_pilots, sigma_n2)
        observations = (channels @ setup.pilot_matrix.T
                        + np.sqrt(sigma_n2) * unit_noise)

        rates = {}
        skipped = {}
        for tag in cfg.schemes:
            blocker = self.scheme_blocker(tag, bits)
            if blocker:
                skipped[tag] = blocker
                continue
            indices = self.feedback(tag, bits, setup, channels, observations)
            precoders = self._precoders(tag, bits, indices, sigma_n2,
                                        swmmse_seed, iters)
            if at_iterations is not None and precoders.designer == "swmmse":
                snaps = precoders.metadata["precoders"]
                rates[tag] = np.array([sum_rate(channels, snaps[t - 1], sigma_n2)
                                       for t in at_iterations])
            else:
                rates[tag] = sum_rate(channels, precoders, sigma_n2)
        return rates, skipped


def axis_values(experiment, axis, values=None):
    """The points of a sweep along ``axis``: ``values`` or the defaults.

    An iteration must be >= 1, a pilot count lie in 1..N, a bit width >= 0
    and a user count in 1..len(eval); a value out of range raises
    ValueError, as does a bit width that EM or the codebook cannot serve.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r} (one of {SWEEP_AXES})")
    if values is not None:
        lo, hi = {"iterations": (1, np.inf),
                  "pilots": (1, experiment.geometry.n),
                  "bits": (0, np.inf),
                  "users": (1, len(experiment.eval))}.get(axis, (-np.inf, np.inf))
        bad = [v for v in values if not lo <= v <= hi]
        if bad:
            raise ValueError(f"{axis} values must lie in {lo}..{hi}, got {bad}")
        if axis == "bits":
            for bits in values:
                for tag in experiment.config.schemes:
                    if (experiment.scheme_blocker(tag, bits) is None
                            and tag.startswith("dft:")):
                        experiment.codebook(bits)
        return list(values)
    cfg = experiment.config
    if axis == "snr":
        return list(cfg.snr_db)
    if axis == "pilots":
        return [v for v in (2, 4, 6, 8, 12, 16) if v <= experiment.geometry.n]
    if axis == "bits":
        return sorted({b for (_, b) in experiment.models} or {cfg.bits})
    if axis == "users":
        return [v for v in (2, 4, 8, 12, 16) if v <= len(experiment.eval)]
    return list(range(1, cfg.iters + 1))  # iterations


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

    ``axis`` is one of SWEEP_AXES. Constellation i reuses the seed
    [master_seed, i] at every axis point, so extending the grid or the
    constellation count leaves earlier per-constellation values unchanged.
    The iterations axis runs one SWMMSE trajectory per constellation and
    evaluates the rates at the requested checkpoints only.
    """
    values = axis_values(experiment, axis, values)
    cfg = experiment.config
    started = time.time()

    # (rows of the result, run_constellation arguments) per sweep point
    if axis == "iterations":
        points = [(slice(None), {"iters": max(values), "at_iterations": values})]
    elif axis == "snr":
        points = [(row, {"sigma_n2": cfg.rho / 10.0 ** (value / 10.0)})
                  for row, value in enumerate(values)]
    else:
        name = {"pilots": "n_pilots", "bits": "bits", "users": "users"}[axis]
        points = [(row, {name: int(value)}) for row, value in enumerate(values)]

    n_const = cfg.constellations
    collected = {}
    skipped_all = {}
    for row, kwargs in points:
        for i in range(n_const):
            rates, skipped = experiment.run_constellation([cfg.seed, i],
                                                          **kwargs)
            skipped_all.update(skipped)
            for tag, rate in rates.items():
                store = collected.setdefault(
                    tag, np.empty((len(values), n_const)))
                store[row, i] = rate

    schemes = [tag for tag in cfg.schemes if tag in collected]
    means, std_errors = {}, {}
    for tag in schemes:
        means[tag], std_errors[tag] = mean_and_se(collected[tag])
    metadata = {
        "config_hash": cfg.config_hash(),
        "master_seed": cfg.seed,
        "constellations": n_const,
        "skipped": skipped_all,
        "runtime_s": time.time() - started,
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
    constellation ``i`` (C constellations), one column per scheme; a
    JSON-lines sidecar ``<path>.jsonl`` maps rows to axis values and
    constellation indices and names the scheme order.
    """
    n_values = len(result.values)
    n_const = result.metadata["constellations"]
    stacked = np.zeros((n_values * n_const, max(len(result.schemes), 1)))
    for s_idx, tag in enumerate(result.schemes):
        stacked[:, s_idx] = result.per_constellation[tag].reshape(-1)
    with open(path, "wb") as fh:
        np.save(fh, stacked)
    with open(str(path) + ".jsonl", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({
            "schemes": result.schemes, "axis": result.axis,
            "config_hash": result.metadata["config_hash"],
            "master_seed": result.metadata["master_seed"]}) + "\n")
        for row in range(n_values * n_const):
            fh.write(json.dumps({
                "row": row,
                "value": result.values[row // n_const],
                "constellation": row % n_const}) + "\n")


def export_trajectory_csv(precoders, path):
    """Write an SWMMSE trajectory as ``iteration,sum_rate,power`` CSV."""
    objective = precoders.metadata["objective"]
    power = precoders.metadata["power"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,sum_rate,power\n")
        for i in range(len(objective)):
            fh.write(f"{i + 1},{_fmt(objective[i])},{_fmt(power[i])}\n")
