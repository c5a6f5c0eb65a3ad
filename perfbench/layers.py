"""Per-layer metrics of a traced run, named ``<module>.<function>.<stat>``."""

from spans import aggregate, percentile
from workloads import ALL_SCHEMES, scheme_metric

# Spans reported with calls and self time, and the unit of their per-call
# percentiles (None: no percentiles).
CALL_SPANS = (
    ("toeplitz.toeplitz_mstep", "ms"),
    ("toeplitz.realize_spectral", None),
    ("gmm.project_to_observation", None),
    ("gmm.ObservationGmm.log_responsibilities", "us"),
    ("gmm.GmmModel.log_responsibilities", "us"),
    ("feedback.select_codebook_index", "us"),
    ("estimators.estimate_gmm", "us"),
    ("estimators.estimate_lmmse", "us"),
    ("estimators.estimate_omp", "us"),
    ("precoding.rci_precoders", "us"),
    ("precoding.swmmse_precoders", "ms"),
    ("evaluate.run_constellation", "ms"),
    ("evaluate.sum_rate", None),
)
SELF_SPANS = ("scene.generate_channels", "scene.normalize_dataset",
              "precoding.directional_representatives")
_SCALE = {"ms": 1e3, "us": 1e6}

LAYER_UNITS = {}
for _span, _unit in CALL_SPANS:
    LAYER_UNITS[f"{_span}.calls"] = "count"
    LAYER_UNITS[f"{_span}.self_s"] = "s"
    if _unit:
        LAYER_UNITS[f"{_span}.p50_{_unit}"] = _unit
for _span in SELF_SPANS:
    LAYER_UNITS[f"{_span}.self_s"] = "s"
for _constraint in ("full", "toeplitz"):
    LAYER_UNITS[f"gmm.fit_em.{_constraint}.self_s_per_iter"] = "s"
    LAYER_UNITS[f"gmm.fit_em.{_constraint}.iters"] = "count"
LAYER_UNITS["gmm.fit_em.estep_gflop_per_iter"] = "GFLOP"
LAYER_UNITS["gmm.fit_em.full.gflops_achieved"] = "GFLOP/s"
LAYER_UNITS["precoding.swmmse_precoders.ms_per_iter"] = "ms"
for _tag in ALL_SCHEMES:
    LAYER_UNITS[scheme_metric(_tag)] = "ms"
LAYER_UNITS["trace.overhead_s"] = "s"


def layer_metrics(spans, bench):
    """(metrics, p95 tails) from the recorded spans of one workload.

    A layer the workload never calls reports 0 calls and 0 s. The p95 is
    only reported, outside the metrics, where ten samples lie beyond it.
    """
    layers = aggregate(spans)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": [],
             "units": 0}
    metrics, tails = {}, {}
    for span, unit in CALL_SPANS:
        entry = layers.get(span, empty)
        metrics[f"{span}.calls"] = entry["calls"]
        metrics[f"{span}.self_s"] = entry["self_s"]
        if unit:
            p50 = percentile(entry["durations"], 50) or 0.0
            metrics[f"{span}.p50_{unit}"] = p50 * _SCALE[unit]
            p95 = percentile(entry["durations"], 95)
            if p95 is not None:
                tails[f"{span}.p95_{unit}"] = p95 * _SCALE[unit]
    for span in SELF_SPANS:
        metrics[f"{span}.self_s"] = layers.get(span, empty)["self_s"]
    for constraint in ("full", "toeplitz"):
        entry = layers.get(f"gmm.fit_em.{constraint}", empty)
        metrics[f"gmm.fit_em.{constraint}.iters"] = entry["units"]
        metrics[f"gmm.fit_em.{constraint}.self_s_per_iter"] = (
            entry["self_s"] / entry["units"] if entry["units"] else 0.0)

    # Computed, not counted: the E-step whitens L samples against K
    # triangular N x N factors (N^2/2 complex multiply-adds of 8 flops each);
    # the M-step scatter adds an N x N complex product per sample and
    # component, twice the E-step.
    scale = bench.scale
    lkn2 = bench.train_count * 2 ** scale.bits * scale.geometry.n ** 2
    metrics["gmm.fit_em.estep_gflop_per_iter"] = 4 * lkn2 / 1e9
    full_per_iter = metrics["gmm.fit_em.full.self_s_per_iter"]
    metrics["gmm.fit_em.full.gflops_achieved"] = (
        12 * lkn2 / 1e9 / full_per_iter if full_per_iter else 0.0)

    swmmse = layers.get("precoding.swmmse_precoders", empty)
    metrics["precoding.swmmse_precoders.ms_per_iter"] = (
        swmmse["total_s"] * 1e3 / swmmse["units"] if swmmse["units"] else 0.0)
    return metrics, tails
