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
a DFT codebook entry from perfect or estimated CSI. An optional ``+rci`` or
``+swmmse`` suffix overrides the configured precoder for that scheme
(codebook schemes always use RCI: there is no generative model to sample).
"""

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import read_kv
from .estimators import (build_omp_dictionary, estimate_gmm, estimate_lmmse,
                         estimate_omp)
from .feedback import (build_dft_codebook, build_pilot_matrix,
                       mixture_feedback, select_codebook_index)
from .gmm import fit_em, load_model, project_to_observation, sample_moments
from .precoding import (SwmmseOptions, _sum_rate_matrix,
                        directional_representatives, rci_precoders,
                        swmmse_precoders)
from .scene import ArrayGeometry, load_dataset

logger = logging.getLogger(__name__)

SWEEP_AXES = ("snr", "pilots", "bits", "users", "iterations")

_MIXTURE_FAMILIES = {"gmm": "full", "tgmm": "toeplitz"}
_DFT_ESTIMATORS = ("perfect", "gmm", "tgmm", "lmmse", "omp")

DEFAULT_SCHEMES = ("gmm-obs", "tgmm-obs", "dft:gmm", "dft:tgmm",
                   "dft:lmmse", "dft:omp")


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
    """Split a scheme tag into (kind, detail, designer_override).

    ``kind`` is "mixture" or "codebook"; ``detail`` is (family, domain) for
    mixtures and the estimator name for codebook schemes.
    """
    base, _, suffix = tag.partition("+")
    designer = suffix or None
    if designer not in (None, "rci", "swmmse"):
        raise ValueError(f"unknown precoder suffix in scheme {tag!r}")
    if base.startswith("dft:"):
        estimator = base[4:]
        if estimator not in _DFT_ESTIMATORS:
            raise ValueError(f"unknown estimator in scheme {tag!r}")
        return "codebook", estimator, designer
    parts = base.split("-")
    if len(parts) == 2 and parts[0] in _MIXTURE_FAMILIES \
            and parts[1] in ("obs", "perfect"):
        return "mixture", (parts[0], parts[1]), designer
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
    precoder: str = "rci"
    iters: int = 300
    rho: float = 1.0
    seed: int = 0
    model_paths: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.constellations < 1:
            raise ValueError("need at least one constellation")
        if self.users < 1:
            raise ValueError("need at least one user")
        if not 1 <= self.pilots <= self.geometry.n:
            raise ValueError(f"pilots must lie in 1..{self.geometry.n}, "
                             f"got {self.pilots}")
        if self.precoder not in ("rci", "swmmse"):
            raise ValueError(f"unknown precoder {self.precoder!r}")
        for tag in self.schemes:
            parse_scheme(tag)

    @classmethod
    def desk_profile(cls, **overrides):
        """Small profile for CI-scale runs: N=16, B=4, 100 constellations."""
        base = dict(geometry=ArrayGeometry(2, 8, 1.0, 0.5), bits=4, users=4,
                    pilots=8, constellations=100)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def full_profile(cls, **overrides):
        """Full-scale profile: N=64, B=6, 500 constellations."""
        base = dict(geometry=ArrayGeometry(4, 16, 1.0, 0.5), bits=6, users=8,
                    pilots=8, constellations=500)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def from_file(cls, path):
        kv = read_kv(path)
        profile = kv.pop("profile", None)
        maker = {"desk": cls.desk_profile, "full": cls.full_profile,
                 None: cls}.get(profile)
        if maker is None:
            raise ValueError(f"unknown profile {profile!r}")
        kwargs = {}
        geom_keys = ("n_vert", "n_horiz", "spacing_vert", "spacing_horiz")
        if any(k in kv for k in geom_keys) or maker is cls:
            kwargs["geometry"] = ArrayGeometry(
                n_vert=int(kv.pop("n_vert", 4)),
                n_horiz=int(kv.pop("n_horiz", 16)),
                spacing_vert=float(kv.pop("spacing_vert", 1.0)),
                spacing_horiz=float(kv.pop("spacing_horiz", 0.5)),
            )
        for key in ("train_data", "eval_data", "precoder"):
            if key in kv:
                kwargs[key] = kv.pop(key)
        for key in ("bits", "users", "pilots", "constellations", "iters", "seed"):
            if key in kv:
                kwargs[key] = int(kv.pop(key))
        if "rho" in kv:
            kwargs["rho"] = float(kv.pop("rho"))
        if "snr_db" in kv:
            kwargs["snr_db"] = tuple(float(v) for v in
                                     kv.pop("snr_db").split(","))
        if "schemes" in kv:
            kwargs["schemes"] = tuple(s.strip() for s in
                                      kv.pop("schemes").split(","))
        model_paths = {k[len("model."):]: v for k, v in kv.items()
                       if k.startswith("model.")}
        for k in list(kv):
            if k.startswith("model."):
                kv.pop(k)
        if kv:
            raise ValueError(f"unknown config keys: {sorted(kv)}")
        if model_paths:
            kwargs["model_paths"] = model_paths
        return maker(**kwargs)

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
    A mixture component's directional representative is computed on first
    use, when a report first names it, and cached.
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
        self._train_stats = None
        self._pilots = {}
        self._observations = {}
        self._codebooks = {}
        self._representatives = {}
        self._omp_dictionary = None

    # -- resources ---------------------------------------------------------

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
        if self._train_stats is None:
            if self.train is None:
                return None
            self._train_stats = sample_moments(self.train.samples)
        return self._train_stats

    def pilot_setup(self, n_pilots, sigma_n2):
        key = (n_pilots, sigma_n2)
        if key not in self._pilots:
            base = build_pilot_matrix(self.geometry, n_pilots, self.config.rho)
            self._pilots[key] = base.with_noise(sigma_n2)
        return self._pilots[key]

    def observation_model(self, constraint, bits, n_pilots, sigma_n2):
        key = (constraint, bits, n_pilots, sigma_n2)
        if key not in self._observations:
            model = self.model_for(constraint, bits)
            setup = self.pilot_setup(n_pilots, sigma_n2)
            self._observations[key] = project_to_observation(model, setup)
        return self._observations[key]

    def codebook(self, bits):
        if bits not in self._codebooks:
            self._codebooks[bits] = build_dft_codebook(self.geometry, bits)
        return self._codebooks[bits]

    def representatives(self, constraint, bits, indices):
        """Rows for the 1-based component ``indices``, each computed once."""
        cache = self._representatives.setdefault((constraint, bits), {})
        missing = [k for k in dict.fromkeys(indices) if k not in cache]
        if missing:
            model = self.model_for(constraint, bits)
            cache.update(zip(missing, directional_representatives(model, missing)))
        return np.vstack([cache[k] for k in indices])

    def omp_dictionary(self):
        if self._omp_dictionary is None:
            self._omp_dictionary = build_omp_dictionary(self.geometry)
        return self._omp_dictionary

    def scheme_blocker(self, tag, bits):
        """Reason this scheme cannot run under the current resources, or None."""
        kind, detail, designer = parse_scheme(tag)
        if kind == "mixture":
            family, _ = detail
            if self.model_for(_MIXTURE_FAMILIES[family], bits) is None:
                return f"no {family} model for B={bits}"
        else:
            if designer == "swmmse":
                return "codebook schemes have no generative model to sample"
            if detail in ("gmm", "tgmm"):
                if self.model_for(_MIXTURE_FAMILIES[detail], bits) is None:
                    return f"no {detail} model for B={bits}"
            if detail == "lmmse" and self.train_stats() is None:
                return "LMMSE needs a training dataset"
        return None

    # -- pipeline ----------------------------------------------------------

    def feedback(self, tag, bits, setup, channels, observations):
        """Per-user feedback reports of one scheme, one per channel row.

        ``observations`` holds the users' pilot observations under
        ``setup``, one row per channel; every scheme of a constellation sees
        the same rows. The scheme must be runnable (see scheme_blocker).
        """
        kind, detail, _ = parse_scheme(tag)
        if kind == "mixture":
            family, domain = detail
            constraint = _MIXTURE_FAMILIES[family]
            if domain == "obs":
                mixture = self.observation_model(constraint, bits,
                                                 setup.n_pilots, setup.sigma_n2)
                points = observations
            else:
                mixture, points = self.model_for(constraint, bits), channels
            return mixture_feedback(mixture, points, tag)
        codebook = self.codebook(bits)
        estimates = self._estimate(detail, bits, setup, channels, observations)
        return [replace(select_codebook_index(codebook, h_hat, user=j),
                        scheme=tag) for j, h_hat in enumerate(estimates)]

    def _estimate(self, estimator, bits, setup, channels, observations):
        """Channel estimates of all users, one row each."""
        if estimator == "perfect":
            return channels
        if estimator in ("gmm", "tgmm"):
            constraint = _MIXTURE_FAMILIES[estimator]
            model = self.model_for(constraint, bits)
            obs = self.observation_model(constraint, bits, setup.n_pilots,
                                         setup.sigma_n2)
            return estimate_gmm(model, setup, observations, obs=obs)
        if estimator == "lmmse":
            return estimate_lmmse(*self.train_stats(), setup, observations)
        if estimator == "omp":
            return [estimate_omp(setup, self.omp_dictionary(), y)
                    for y in observations]
        raise ValueError(f"unknown estimator {estimator!r}")

    def _precoders(self, tag, bits, reports, sigma_n2, swmmse_seed, iters):
        kind, detail, designer = parse_scheme(tag)
        if designer is None:
            designer = "rci" if kind == "codebook" else self.config.precoder
        rho = self.config.rho
        if designer == "swmmse":
            family = detail[0]
            model = self.model_for(_MIXTURE_FAMILIES[family], bits)
            options = SwmmseOptions(max_iters=iters, seed=swmmse_seed)
            return swmmse_precoders(model, reports, sigma_n2, rho, options)
        if kind == "mixture":
            chosen = self.representatives(_MIXTURE_FAMILIES[detail[0]], bits,
                                          [r.index for r in reports])
        else:
            chosen = self.codebook(bits).entries[[r.index - 1 for r in reports]]
        return rci_precoders(chosen, sigma_n2, rho)

    def run_constellation(self, seed, n_pilots=None, sigma_n2=None, bits=None,
                          users=None, iters=None, want_trajectory=False):
        """Rates per scheme for one constellation draw.

        All schemes see the same user channels and the same unit pilot noise
        (common random numbers). Returns (rates, skipped); with
        ``want_trajectory`` the rates of SWMMSE-designed schemes are arrays
        over iterations (evaluated from the precoder snapshots) instead of
        scalars.
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
            reports = self.feedback(tag, bits, setup, channels, observations)
            precoders = self._precoders(tag, bits, reports, sigma_n2,
                                        swmmse_seed, iters)
            if want_trajectory and precoders.designer == "swmmse":
                snaps = precoders.metadata["precoders"]
                rates[tag] = np.array([
                    _sum_rate_matrix(channels, snaps[t], sigma_n2)
                    for t in range(snaps.shape[0])])
            else:
                rates[tag] = sum_rate(channels, precoders, sigma_n2)
        return rates, skipped


def _default_axis_values(experiment, axis):
    cfg = experiment.config
    n = experiment.geometry.n
    if axis == "snr":
        return list(cfg.snr_db)
    if axis == "pilots":
        return [v for v in (2, 4, 6, 8, 12, 16) if v <= n]
    if axis == "bits":
        return sorted({b for (_, b) in experiment.models} or {cfg.bits})
    if axis == "users":
        return [v for v in (2, 4, 8, 12, 16) if v <= len(experiment.eval)]
    if axis == "iterations":
        return list(range(1, cfg.iters + 1))
    raise ValueError(f"unknown sweep axis {axis!r}")


def run_sweep(experiment, axis, values=None):
    """Monte-Carlo sweep along one axis; see SWEEP_AXES.

    Constellation i reuses the seed [master_seed, i] at every axis point, so
    extending the grid or the constellation count leaves earlier
    per-constellation values unchanged. The iterations axis runs one SWMMSE
    trajectory per constellation and reads the rates off the precoder
    snapshots instead of re-running per point.
    """
    if isinstance(experiment, ExperimentConfig):
        experiment = Experiment(experiment)
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r} (one of {SWEEP_AXES})")
    cfg = experiment.config
    if values is None:
        values = _default_axis_values(experiment, axis)
    values = list(values)
    started = time.time()

    n_const = cfg.constellations
    seeds = [[cfg.seed, i] for i in range(n_const)]
    collected = {}
    skipped_all = {}

    if axis == "iterations":
        for i, seed in enumerate(seeds):
            rates, skipped = experiment.run_constellation(
                seed, iters=max(values), want_trajectory=True)
            skipped_all.update(skipped)
            for tag, rate in rates.items():
                store = collected.setdefault(
                    tag, np.empty((len(values), n_const)))
                if np.ndim(rate) == 0:
                    store[:, i] = rate
                else:
                    store[:, i] = [rate[v - 1] for v in values]
    else:
        point_kwargs = []
        for value in values:
            kw = {}
            if axis == "snr":
                kw["sigma_n2"] = cfg.rho / 10.0 ** (value / 10.0)
            elif axis == "pilots":
                kw["n_pilots"] = int(value)
            elif axis == "bits":
                kw["bits"] = int(value)
            elif axis == "users":
                kw["users"] = int(value)
            point_kwargs.append(kw)
        for v_idx, kw in enumerate(point_kwargs):
            for i, seed in enumerate(seeds):
                rates, skipped = experiment.run_constellation(seed, **kw)
                skipped_all.update(skipped)
                for tag, rate in rates.items():
                    store = collected.setdefault(
                        tag, np.empty((len(values), n_const)))
                    store[v_idx, i] = rate

    schemes = [tag for tag in cfg.schemes if tag in collected]
    means = {tag: collected[tag].mean(axis=1) for tag in schemes}
    sem = {tag: collected[tag].std(axis=1, ddof=1) / np.sqrt(n_const)
           if n_const > 1 else np.zeros(len(values)) for tag in schemes}
    metadata = {
        "config_hash": cfg.config_hash(),
        "master_seed": cfg.seed,
        "constellations": n_const,
        "skipped": skipped_all,
        "runtime_s": time.time() - started,
    }
    return SweepResult(axis=axis, values=values, schemes=schemes, means=means,
                       std_errors=sem, per_constellation=collected,
                       metadata=metadata)


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
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
