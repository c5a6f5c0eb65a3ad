"""Outside-in span tracing for the limfb benchmark.

Spans are recorded by substituting timing wrappers for the module and class
attributes that callers look up (``limfb.evaluate.estimate_gmm``,
``limfb.gmm.toeplitz_mstep``, ``ObservationGmm.log_responsibilities``, ...).
Nothing inside ``src/`` is edited. Spans stay in memory as
``[name, parent_id, start, end]`` lists and are aggregated or written out
when the run ends. The benchmark is single-threaded, so one stack of open
spans gives every span its parent.
"""

import functools
import json
import logging
import time

import numpy as np

# (owner path, attribute, span name); owners are resolved on limfb.
TRACE_POINTS = (
    ("scene", "generate_channels", "scene.generate_channels"),
    ("scene", "normalize_dataset", "scene.normalize_dataset"),
    ("gmm", "fit_em", "gmm.fit_em"),
    ("gmm", "toeplitz_mstep", "toeplitz.toeplitz_mstep"),
    ("gmm", "realize_spectral", "toeplitz.realize_spectral"),
    ("gmm.GmmModel", "log_responsibilities",
     "gmm.GmmModel.log_responsibilities"),
    ("gmm.ObservationGmm", "log_responsibilities",
     "gmm.ObservationGmm.log_responsibilities"),
    ("evaluate", "run_sweep", "evaluate.run_sweep"),
    ("evaluate.Experiment", "run_constellation", "evaluate.run_constellation"),
    ("evaluate", "sum_rate", "evaluate.sum_rate"),
    ("evaluate", "project_to_observation", "gmm.project_to_observation"),
    ("evaluate", "build_pilot_matrix", "feedback.build_pilot_matrix"),
    ("evaluate", "build_dft_codebook", "feedback.build_dft_codebook"),
    ("evaluate", "select_codebook_index", "feedback.select_codebook_index"),
    ("evaluate", "estimate_gmm", "estimators.estimate_gmm"),
    ("evaluate", "estimate_lmmse", "estimators.estimate_lmmse"),
    ("evaluate", "estimate_omp", "estimators.estimate_omp"),
    ("evaluate", "build_omp_dictionary", "estimators.build_omp_dictionary"),
    ("evaluate", "directional_representatives",
     "precoding.directional_representatives"),
    ("evaluate", "rci_precoders", "precoding.rci_precoders"),
    ("evaluate", "swmmse_precoders", "precoding.swmmse_precoders"),
)

# Warnings the library logs on degenerate fits and designs, by format string.
LOG_COUNTERS = {
    "log-likelihood decreased": "em_loglik_decreases",
    "re-seeding collapsed component": "em_reseeds",
    "singular RCI system": "rci_singular_ridges",
    "covariance Cholesky failed": "cholesky_fallbacks",
    "near-degenerate dominant eigenvalue": "degenerate_representatives",
}


def _resolve(limfb, path):
    owner = limfb
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """Installs timing wrappers on limfb and keeps the spans they record."""

    def __init__(self, limfb):
        self.limfb = limfb
        self.spans = []
        self.counters = {name: 0 for name in LOG_COUNTERS.values()}
        self.counters.update(feedback_degenerate=0, rci_ridged=0)
        self.swmmse_power_slack = []
        self.swmmse_final_ridge = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        observe = {
            "gmm.fit_em": self._label_fit,
            "feedback.select_codebook_index": self._observe_feedback,
            "precoding.rci_precoders": self._observe_rci,
            "precoding.swmmse_precoders": self._observe_swmmse,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(span, result)
            return result

        return traced

    def _label_fit(self, span, model):
        span[0] = f"gmm.fit_em.{model.constraint}"
        span.append(len(model.fit_log_likelihoods))

    def _observe_feedback(self, span, report):
        self.counters["feedback_degenerate"] += int(report.degenerate)

    def _observe_rci(self, span, precoders):
        self.counters["rci_ridged"] += int(precoders.metadata["ridged"])

    def _observe_swmmse(self, span, precoders):
        self.swmmse_power_slack.append(precoders.rho - precoders.power)
        self.swmmse_final_ridge.append(float(precoders.metadata["ridge"][-1]))
        span.append(len(precoders.metadata["ridge"]))

    def __enter__(self):
        for owner_path, attr, name in TRACE_POINTS:
            owner = _resolve(self.limfb, owner_path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        self._handler = _CountingHandler(self.counters)
        logging.getLogger("limfb").addHandler(self._handler)
        return self

    def __exit__(self, *exc):
        logging.getLogger("limfb").removeHandler(self._handler)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def write(self, path):
        """Dump every span as JSON lines: id, name, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": span[0],
                                     "parent": span[1], "start": span[2],
                                     "end": span[3]}) + "\n")


class _CountingHandler(logging.Handler):
    """Counts limfb warnings by the format string they were logged with."""

    def __init__(self, counters):
        super().__init__(logging.WARNING)
        self.counters = counters

    def emit(self, record):
        for prefix, counter in LOG_COUNTERS.items():
            if str(record.msg).startswith(prefix):
                self.counters[counter] += 1


def aggregate(spans, offset=0):
    """Per span name: calls, total and self seconds, durations, work units.

    Self time is a span's duration minus its direct children's durations;
    spans nest strictly, so the children never overlap. ``spans`` may be a
    contiguous slice of the recorded list that starts at id ``offset``.
    """
    child_time = np.zeros(len(spans))
    for span in spans:
        if span[1] >= offset:
            child_time[span[1] - offset] += span[3] - span[2]
    layers = {}
    for sid, span in enumerate(spans):
        entry = layers.setdefault(span[0], {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0, "durations": [],
                                            "units": 0})
        duration = span[3] - span[2]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[sid]
        entry["durations"].append(duration)
        if len(span) > 4:
            entry["units"] += span[4]
    return layers


def subtree(spans, root):
    """Span ``root`` and its descendants, which follow it contiguously."""
    end = root + 1
    while end < len(spans) and spans[end][2] < spans[root][3]:
        end += 1
    return spans[root:end]


def percentile(durations, q, min_tail=10):
    """The q-th percentile of ``durations``, or None when undefined.

    The median is reported from one sample on; a higher percentile only
    when at least ``min_tail`` samples lie beyond it.
    """
    n = len(durations)
    if n == 0 or (q > 50 and n * (1.0 - q / 100.0) < min_tail):
        return None
    return float(np.percentile(durations, q))
