"""Workloads of the limfb benchmark: set-up, timed work and output checks.

Every call into limfb goes through a module or class attribute
(``gmm.fit_em``, ``evaluate.run_sweep``, ...), so the tracer in ``spans.py``
can substitute its timing wrappers without touching ``src/``.
"""

import hashlib
import itertools
import time
from dataclasses import dataclass

import numpy as np

from limfb import evaluate, gmm, scene, toeplitz

RCI_SCHEMES = ("gmm-obs", "tgmm-obs", "gmm-perfect", "tgmm-perfect",
               "dft:perfect", "dft:gmm", "dft:tgmm", "dft:lmmse", "dft:omp")
ALL_SCHEMES = RCI_SCHEMES + ("gmm-obs+swmmse", "tgmm-obs+swmmse")
# train-n64 serves a short sweep from the models it has just fitted.
TRAIN_SWEEP_SCHEMES = ("gmm-obs", "tgmm-obs", "dft:gmm", "dft:tgmm")

# Relative log-likelihood drop at which fit_em itself warns.
LL_DROP_TOL = 1e-3


@dataclass(frozen=True)
class Scale:
    """Problem sizes; ``paper`` is what the benchmark measures."""

    geometry: scene.ArrayGeometry
    bits: int
    users: int
    swmmse_iters: int
    train_count: int        # training channels of train-n64
    sweep_train_count: int  # training channels behind the sweep models
    eval_count: int
    em_iters: int           # fixed EM budget of the train-n64 fits
    model_em_iters: int     # fixed EM budget of the sweep models
    constellations: dict    # per workload, per run_sweep call


SCALES = {
    "paper": Scale(scene.ArrayGeometry(4, 16), bits=6, users=8,
                   swmmse_iters=300, train_count=20_000,
                   sweep_train_count=2048, eval_count=2048, em_iters=1,
                   model_em_iters=2,
                   constellations={"train-n64": 2, "sweep-all-n64": 1}),
    # seconds-long smoke scale: N=16, K=16, 4 users, short SWMMSE
    "toy": Scale(scene.ArrayGeometry(2, 8), bits=4, users=4, swmmse_iters=10,
                 train_count=512, sweep_train_count=256, eval_count=256,
                 em_iters=1, model_em_iters=2,
                 constellations={"train-n64": 2, "sweep-all-n64": 1}),
}


@dataclass(frozen=True)
class Workload:
    name: str
    axis: str
    values: tuple
    schemes: tuple
    times_fits: bool  # train-n64 times its fits; sweep-all fits in set-up
    scenes: int       # input sets of a run, which its cycles take in turn
    sweeps_per_cycle: int


WORKLOADS = {w.name: w for w in (
    Workload("train-n64", "snr", (10.0,), TRAIN_SWEEP_SCHEMES, True, 1, 4),
    Workload("sweep-all-n64", "snr", (0.0, 10.0, 20.0), ALL_SCHEMES, False, 3,
             1),
)}


@dataclass(frozen=True)
class Seeds:
    """Every seed of one input set of a run, from the workload seed.

    An input set is a scene with its data, EM start and constellations.
    Every cycle on the same set repeats the same work, so it must reproduce
    the same output bytes.
    """

    scene: int
    train: int
    eval: int
    em: int
    sweep: int

    @classmethod
    def derive(cls, seed, index):
        state = np.random.SeedSequence([seed, index]).generate_state(5)
        return cls(*(int(v) for v in state))


def scheme_metric(tag):
    return ("evaluate.scheme." + tag.replace(":", "-").replace("+", "-")
            + ".ms_per_constellation")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def check_fit(model, budget, geometry):
    """Invariants of a fit at a fixed budget; returns the violations."""
    problems = []
    ll = np.asarray(model.fit_log_likelihoods, dtype=float)
    if len(ll) != budget:
        problems.append(f"LL trace has {len(ll)} entries, budget {budget}")
    if not np.all(np.isfinite(ll)):
        problems.append("LL trace is not finite")
    drops = np.flatnonzero(ll[1:] < ll[:-1] - LL_DROP_TOL * np.abs(ll[:-1]))
    if drops.size:
        problems.append(f"LL dropped beyond tolerance at iterations "
                        f"{(drops + 1).tolist()}")
    if np.any(model.weights <= 0) or abs(model.weights.sum() - 1.0) > 1e-12:
        problems.append("weights are not positive or do not sum to 1")
    try:
        np.linalg.cholesky(model.covariances)
    except np.linalg.LinAlgError:
        problems.append("a covariance is not Cholesky-factorable")
    if model.constraint == "toeplitz" and not all(
            toeplitz.check_structure(cov, geometry)
            for cov in model.covariances):
        problems.append("a Toeplitz covariance fails check_structure")
    return problems


def check_sweep(result, schemes, n_values, n_const, csv_path):
    """Failed rate operations, violations and the CSV digest of a sweep."""
    failed, problems = 0, []
    for tag in schemes:
        rates = result.per_constellation.get(tag)
        if rates is None:
            failed += n_values * n_const
            problems.append(f"scheme {tag} skipped: "
                            f"{result.metadata['skipped'].get(tag)}")
            continue
        bad = int(np.count_nonzero(~(np.isfinite(rates) & (rates >= 0.0))))
        if bad:
            failed += bad
            problems.append(f"scheme {tag}: {bad} rates not finite or < 0")
    evaluate.emit_csv(result, csv_path)
    _, header, rows = evaluate.read_sweep_csv(csv_path)
    parsed = {tag: [row[header.index(f"{tag}_mean")] for row in rows]
              for tag in result.schemes}
    if any(parsed[tag] != [float(v) for v in result.means[tag]]
           for tag in result.schemes):
        failed = n_values * n_const * len(schemes)
        problems.append("emit_csv output does not parse back to the means")
    with open(csv_path, "rb") as fh:
        return failed, problems, sha256(fh.read())


class Bench:
    """One workload at one scale and seed: set-up, timed work and its tally."""

    def __init__(self, workload, scale, seed, out_dir):
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.out_dir = out_dir
        self.n_const = scale.constellations[workload.name]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.hashes = {}

    def _record(self, what, ops, failed, problems):
        self.attempted += ops
        self.failed += failed
        self.problems += [f"{what}: {p}" for p in problems]

    def _digest(self, key, digest):
        """Keep the first digest of ``key``; a repeat must reproduce it."""
        first = self.hashes.setdefault(key, digest)
        if first != digest:
            self._record(key, 1, 1, ["a repeat of the same inputs gave "
                                     "different output bytes"])

    @property
    def train_count(self):
        return (self.scale.train_count if self.workload.times_fits
                else self.scale.sweep_train_count)

    def setup(self, index=0):
        """Datasets and, on sweep-all-n64, both models, for input set
        ``index``.

        Returns (seconds, state, fit seconds per iteration by constraint).
        """
        started = time.perf_counter()
        seeds = Seeds.derive(self.seed, index)
        config = scene.SceneConfig(self.scale.geometry, seed=seeds.scene)
        train = scene.normalize_dataset(scene.generate_channels(
            config, self.train_count, sample_seed=seeds.train))
        evals = scene.normalize_dataset(scene.generate_channels(
            config, self.scale.eval_count, sample_seed=seeds.eval))
        state = {"index": index, "seeds": seeds, "train": train,
                 "eval": evals}
        per_iter = {}
        if not self.workload.times_fits:
            per_iter = self.fit_models(state, self.scale.model_em_iters)
        return time.perf_counter() - started, state, per_iter

    def fit_models(self, state, budget):
        """Full and Toeplitz fits into ``state``; s per iteration."""
        per_iter = {}
        for constraint in ("full", "toeplitz"):
            state[constraint], per_iter[constraint] = self.fit(
                state, constraint, budget)
        return per_iter

    def fit(self, state, constraint, budget):
        """One fit_em call at a fixed budget; (model, s per iteration)."""
        options = gmm.EmOptions(max_iters=budget, rel_loglik_tol=0.0,
                                seed=state["seeds"].em)
        started = time.perf_counter()
        model = gmm.fit_em(state["train"], 2 ** self.scale.bits, constraint,
                           options, geometry=self.scale.geometry)
        elapsed = time.perf_counter() - started
        lls = model.fit_log_likelihoods
        problems = check_fit(model, budget, self.scale.geometry)
        self._record(f"fit_em {constraint}", 1, int(bool(problems)), problems)
        self._digest(f"{state['index']}.loglik.{constraint}",
                     sha256(np.asarray(lls, dtype="<f8").tobytes()))
        return model, elapsed / max(len(lls), 1)

    def sweep(self, state, schemes=None):
        """One run_sweep call on a fresh Experiment; ms per constellation."""
        schemes = schemes or self.workload.schemes
        scale, values = self.scale, self.workload.values
        config = evaluate.ExperimentConfig(
            geometry=scale.geometry, bits=scale.bits, users=scale.users,
            constellations=self.n_const, schemes=schemes,
            iters=scale.swmmse_iters, seed=state["seeds"].sweep)
        experiment = evaluate.Experiment(
            config, train_dataset=state["train"], eval_dataset=state["eval"],
            models={("full", scale.bits): state["full"],
                    ("toeplitz", scale.bits): state["toeplitz"]})
        started = time.perf_counter()
        result = evaluate.run_sweep(experiment, self.workload.axis, values)
        elapsed = time.perf_counter() - started
        n_ops = len(values) * self.n_const * len(schemes)
        name = schemes[0] if len(schemes) == 1 else "sweep"
        csv_path = (self.out_dir
                    / f"{self.workload.name}-{name.replace(':', '-')}.csv")
        failed, problems, digest = check_sweep(
            result, schemes, len(values), self.n_const, csv_path)
        self._record(f"run_sweep {name}", n_ops, failed, problems)
        if len(schemes) == len(self.workload.schemes):
            self._digest(f"{state['index']}.sweep_csv", digest)
        return elapsed * 1e3 / (len(values) * self.n_const)

    def timed_pass(self, state):
        """train-n64's fits, then one sweep; wall seconds by part."""
        parts = {}
        if self.workload.times_fits:
            started = time.perf_counter()
            self.fit_models(state, self.scale.em_iters)
            parts["fit_em"] = time.perf_counter() - started
        started = time.perf_counter()
        self.sweep(state)
        parts["run_sweep"] = time.perf_counter() - started
        return parts


MIN_CYCLES = 3


def measure(bench, seconds):
    """The untraced run: ``seconds`` of repeated cycles, at least three.

    A cycle is one set-up of the next input set in turn, then on train-n64
    one fit, full and Toeplitz in turn, then the workload's run_sweep calls
    once both models exist. A train-n64 sweep uses the latest model of each
    kind, fitted on the same inputs in this cycle or the one before; so
    its sweeps fall between fits, at twice as many points in time as if
    each cycle made both fits. Another cycle starts only while one more of
    the last length still fits, so the samples of every metric spread over
    the whole run. Returns every sample.
    """
    scenes = bench.workload.scenes
    models = [{} for _ in range(scenes)]
    samples = {"setup_s": [], "em_full_s_per_iter": [],
               "em_toeplitz_s_per_iter": [], "sweep_ms_per_constellation": []}
    started = time.perf_counter()
    for cycle in itertools.count():
        cycle_started = time.perf_counter()
        index = cycle % scenes
        setup_s, state, per_iter = bench.setup(index)
        samples["setup_s"].append(setup_s)
        if bench.workload.times_fits:
            constraint = ("full", "toeplitz")[cycle // scenes % 2]
            models[index][constraint], value = bench.fit(
                state, constraint, bench.scale.em_iters)
            per_iter = {constraint: value}
            state.update(models[index])
        for constraint, value in per_iter.items():
            samples[f"em_{constraint}_s_per_iter"].append(value)
        if "full" in state and "toeplitz" in state:
            for _ in range(bench.workload.sweeps_per_cycle):
                samples["sweep_ms_per_constellation"].append(
                    bench.sweep(state))
        now = time.perf_counter()
        last = now - cycle_started
        if cycle + 1 >= max(MIN_CYCLES, scenes) and (
                now - started + last > seconds):
            return samples
