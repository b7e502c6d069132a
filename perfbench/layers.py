"""Which library functions the traced run wraps, and the per-layer metrics.

Each span is named after the module whose global the caller resolves
(``em_engine.log_prior`` is the ``log_prior`` that the E pass of EM calls)
and ``latentscore.*`` for the benchmark's own calls into the package.  A
metric named ``<layer>.<function>.<kind>`` sums the spans listed for it.
Counts and times are per top-level call of the workload, so a faster commit
that fits more calls into the run reports the same work per call.
"""

from __future__ import annotations

from spans import Target, ratio, self_times, worker_busy_ratio


def _run_em_result(args, kwargs, em):
    return em.iterations_used, em.converged


def _report_failures(args, kwargs, report):
    return tuple(report.measures), tuple(report.failures)


def _fitted_mode(args, kwargs, em):
    # experiment.run_sweep calls fit(data, spec, prior, config, rng).
    return em.params, args[0], args[2]


TARGETS = (
    Target("latentscore.em_engine", "tournament_init",
           "em_engine.tournament_init"),
    Target("latentscore.em_engine", "run_em", "em_engine.run_em",
           _run_em_result),
    Target("latentscore.em_engine", "log_prior", "em_engine.log_prior"),
    Target("latentscore.em_engine", "m_step_map", "em_engine.m_step_map"),
    Target("latentscore.em_engine", "counts_from_posteriors",
           "em_engine.counts_from_posteriors"),
    Target("latentscore.em_engine", "generate_model",
           "em_engine.generate_model"),
    Target("latentscore.scoring", "laplace_score", "scoring.laplace_score"),
    Target("latentscore.scoring", "neg_hessian", "scoring.neg_hessian"),
    Target("latentscore.scoring", "grad_g", "scoring.grad_g"),
    Target("latentscore.scoring", "log_det_pd", "scoring.log_det_pd"),
    Target("latentscore.scoring", "e_step", "scoring.e_step"),
    Target("latentscore.scoring", "fractional_bd", "scoring.fractional_bd"),
    Target("latentscore.scoring", "oracle_exact", "scoring.oracle_exact"),
    Target("latentscore.scoring", "log_likelihood", "scoring.log_likelihood"),
    Target("latentscore.model_core", "free_to_params",
           "model_core.free_to_params"),
    Target("latentscore.model_core", "expected_counts",
           "model_core.expected_counts"),
    Target("latentscore.model_core", "log_likelihood",
           "model_core.log_likelihood"),
    Target("latentscore.experiment", "fit", "experiment.fit", _fitted_mode),
    Target("latentscore.experiment", "score_report",
           "experiment.score_report", _report_failures),
    Target("latentscore.experiment", "generate_model",
           "experiment.generate_model"),
    Target("latentscore.experiment", "sample_dataset",
           "experiment.sample_dataset"),
    Target("latentscore", "run_sweep", "latentscore.run_sweep"),
    Target("latentscore", "emit_reports", "latentscore.emit_reports"),
    Target("latentscore", "fit", "latentscore.fit"),
    Target("latentscore", "score_report", "latentscore.score_report",
           _report_failures),
    Target("latentscore", "generate_model", "latentscore.generate_model"),
    Target("latentscore", "sample_dataset", "latentscore.sample_dataset"),
)

FITS = ("experiment.fit", "latentscore.fit")
REPORTS = ("experiment.score_report", "latentscore.score_report")
LOGLIK = ("scoring.log_likelihood", "model_core.log_likelihood")

# (metric, unit, kind, spans); kind is "calls", "total" or "self".
SPAN_METRICS = [
    ("em_engine.tournament_init.calls", "count", "calls",
     ("em_engine.tournament_init",)),
    ("em_engine.tournament_init.total_s", "s", "total",
     ("em_engine.tournament_init",)),
    ("em_engine.tournament_init.self_s", "s", "self",
     ("em_engine.tournament_init",)),
    ("em_engine.run_em.calls", "count", "calls", ("em_engine.run_em",)),
    ("em_engine.run_em.total_s", "s", "total", ("em_engine.run_em",)),
    ("em_engine.log_prior.calls", "count", "calls", ("em_engine.log_prior",)),
    ("em_engine.m_step_map.calls", "count", "calls",
     ("em_engine.m_step_map",)),
    ("em_engine.m_step_map.total_s", "s", "total", ("em_engine.m_step_map",)),
    ("em_engine.counts_from_posteriors.total_s", "s", "total",
     ("em_engine.counts_from_posteriors",)),
    ("em_engine.generate_model.calls", "count", "calls",
     ("em_engine.generate_model",)),
    ("scoring.score_report.calls", "count", "calls", REPORTS),
    ("scoring.score_report.total_s", "s", "total", REPORTS),
    ("scoring.laplace_score.calls", "count", "calls",
     ("scoring.laplace_score",)),
    ("scoring.laplace_score.total_s", "s", "total",
     ("scoring.laplace_score",)),
    ("scoring.neg_hessian.total_s", "s", "total", ("scoring.neg_hessian",)),
    ("scoring.grad_g.calls", "count", "calls", ("scoring.grad_g",)),
    ("scoring.grad_g.total_s", "s", "total", ("scoring.grad_g",)),
    ("scoring.log_det_pd.total_s", "s", "total", ("scoring.log_det_pd",)),
    ("scoring.e_step.total_s", "s", "total", ("scoring.e_step",)),
    ("scoring.fractional_bd.total_s", "s", "total",
     ("scoring.fractional_bd",)),
    ("scoring.oracle_exact.calls", "count", "calls",
     ("scoring.oracle_exact",)),
    ("scoring.oracle_exact.total_s", "s", "total", ("scoring.oracle_exact",)),
    ("model_core.free_to_params.calls", "count", "calls",
     ("model_core.free_to_params",)),
    ("model_core.free_to_params.total_s", "s", "total",
     ("model_core.free_to_params",)),
    ("model_core.expected_counts.total_s", "s", "total",
     ("model_core.expected_counts",)),
    ("model_core.log_likelihood.calls", "count", "calls", LOGLIK),
    ("model_core.log_likelihood.total_s", "s", "total", LOGLIK),
    ("experiment.run_sweep.total_s", "s", "total", ("latentscore.run_sweep",)),
    ("experiment.fit.total_s", "s", "total", ("experiment.fit",)),
    ("experiment.score_report.total_s", "s", "total",
     ("experiment.score_report",)),
    ("experiment.emit_reports.total_s", "s", "total",
     ("latentscore.emit_reports",)),
    ("synth_data.sample_dataset.total_s", "s", "total",
     ("experiment.sample_dataset", "latentscore.sample_dataset")),
    ("synth_data.generate_model.total_s", "s", "total",
     ("experiment.generate_model", "latentscore.generate_model")),
]

# Share of the workers' capacity (threads x call wall time) spent in a layer;
# each names the reason its workload was chosen.
SHARES = [
    ("share.fit", FITS),
    ("share.tournament_init", ("em_engine.tournament_init",)),
    ("share.neg_hessian", ("scoring.neg_hessian",)),
    ("share.oracle_exact", ("scoring.oracle_exact",)),
]

MEASURES = ("laplace", "bic", "draper", "mled", "cs", "oracle")

# Metrics the workload computes itself, after the loop.
WORKLOAD_METRICS = [
    ("mode_grad_inf", "nats"),
    ("trace_overhead_ratio", "ratio"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: unit for name, unit, _, _ in SPAN_METRICS}
    units["em_engine.run_em.iterations"] = "count"
    units["em_engine.run_em.converged_ratio"] = "ratio"
    units["scoring.laplace_score.ok_ratio"] = "ratio"
    for m in MEASURES:
        units[f"scoring.{m}.failed_ratio"] = "ratio"
    units["experiment.threads"] = "count"
    units["experiment.worker_busy_ratio"] = "ratio"
    for name, _ in SHARES:
        units[name] = "ratio"
    units["share.base_s"] = "s"
    units.update(WORKLOAD_METRICS)
    return units


def _entry(value, unit, base=None):
    entry = {"value": float(value), "unit": unit}
    if base is not None:
        entry["base"] = base
    return entry


def layer_metrics(spans, calls: int, call_seconds: float,
                  absent: set[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans of ``calls`` traced top-level calls.

    ``call_seconds`` is their summed wall time.  Returns the metrics that
    could be computed and the names of those whose every span is absent.
    """
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)
    out: dict = {}
    missing: list[str] = []

    def have(names) -> bool:
        return not all(n in absent for n in names)

    def picked(names):
        return [s for n in names for s in by_name.get(n, ())]

    for name, unit, kind, names in SPAN_METRICS:
        if not have(names):
            missing.append(name)
            continue
        group = picked(names)
        if kind == "calls":
            value = len(group)
        elif kind == "total":
            value = sum(s.duration for s in group)
        else:
            value = sum(selfs[s.id] for s in group)
        out[name] = _entry(value / calls, unit)

    if have(("em_engine.run_em",)):
        runs = [s.info for s in by_name.get("em_engine.run_em", ()) if s.ok]
        out["em_engine.run_em.iterations"] = _entry(
            sum(i for i, _ in runs) / len(runs) if runs else 0.0, "count",
            f"mean over {len(runs)} run_em calls")
        r = ratio(sum(1 for _, c in runs if c), len(runs))
        out["em_engine.run_em.converged_ratio"] = _entry(
            r.value, "ratio", f"{r.part:g} of {r.base:g} run_em calls")
    else:
        missing += ["em_engine.run_em.iterations",
                    "em_engine.run_em.converged_ratio"]

    if have(("scoring.laplace_score",)):
        lap = by_name.get("scoring.laplace_score", ())
        r = ratio(sum(1 for s in lap if s.ok), len(lap))
        out["scoring.laplace_score.ok_ratio"] = _entry(
            r.value, "ratio", f"{r.part:g} of {r.base:g} laplace calls")
    else:
        missing.append("scoring.laplace_score.ok_ratio")

    if have(REPORTS):
        reports = [s.info for s in picked(REPORTS) if s.ok]
        for m in MEASURES:
            asked = sum(1 for measures, _ in reports if m in measures)
            failed = sum(1 for measures, fails in reports
                         if m in measures and m in fails)
            r = ratio(failed, asked)
            out[f"scoring.{m}.failed_ratio"] = _entry(
                r.value, "ratio", f"{r.part:g} of {r.base:g} reports")
    else:
        missing += [f"scoring.{m}.failed_ratio" for m in MEASURES]

    threads = 1
    if have(("experiment.fit",)) and have(("latentscore.run_sweep",)):
        sweeps = by_name.get("latentscore.run_sweep", ())
        cells = picked(("experiment.fit", "experiment.score_report"))
        per_sweep = {s.id: set() for s in sweeps}
        for c in cells:
            if c.parent in per_sweep:
                per_sweep[c.parent].add(c.thread)
        observed = max((len(t) for t in per_sweep.values()), default=0)
        out["experiment.threads"] = _entry(observed, "count")
        r = worker_busy_ratio(sum(c.duration for c in cells), observed,
                              sum(s.duration for s in sweeps))
        out["experiment.worker_busy_ratio"] = _entry(
            r.value, "ratio", f"{r.part:.4f} s of {r.base:.4f} s capacity")
        threads = max(observed, 1)
    else:
        missing += ["experiment.threads", "experiment.worker_busy_ratio"]

    capacity = threads * call_seconds
    for name, names in SHARES:
        if not have(names):
            missing.append(name)
            continue
        r = ratio(sum(s.duration for s in picked(names)), capacity)
        out[name] = _entry(r.value, "ratio",
                           f"{r.part:.4f} s of {r.base:.4f} s capacity")
    out["share.base_s"] = _entry(capacity / calls, "s",
                                 f"{threads} thread(s) x call wall time")
    return out, missing
