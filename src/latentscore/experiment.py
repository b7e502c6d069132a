"""Arity-recovery sweeps: fit every candidate hidden arity to synthetic data
and compare where each score measure puts its peak.

One sweep draws a true model, samples ``replicates`` datasets from it, strips
the hidden column, and fits every arity in ``test_c_range`` to every dataset.
Each (replicate, test arity) cell runs one tournament-initialized MAP fit and
evaluates all requested measures at that mode; a failing measure invalidates
only its own cell entry.

Randomness is budgeted by stream index so a run is a pure function of the
master seed: cell k (replicate-major order) uses SeededStream(master_seed, k),
while the true model and the datasets live on high stream indices that small
cell counts can never reach.  Cells run one after another in task order on
the calling thread, so every emitted byte is identical across reruns.

The dataclass fields are the only statement of the record schema: run.json's
``config`` block holds exactly the fields of :class:`ExperimentConfig`, and
each entry of ``cells`` exactly those of :class:`CellResult`.  Reading a
record back ignores keys that name no field and gives absent fields their
defaults.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass, field, fields
from time import perf_counter

from .em_engine import (
    DegeneratePriorError,
    EmConfig,
    StarvedRowError,
    fit,
)
from .model_core import (
    ModelSpec,
    ParamSet,
    PriorSet,
    align_hidden_arity,
    dimension,
    model_to_json_dict,
    params_from_json_dict,
)
from .numerics import NumericalFailureError, SeededStream
from .scoring import MEASURES, check_measures, score_report
from .synth_data import generate_model, sample_dataset, strip_hidden

log = logging.getLogger(__name__)

# Stream indices for the sweep's own draws; cells use small indices 0..K-1.
_MODEL_STREAM = 2 ** 32
_DATASET_STREAM_BASE = 2 ** 32 + 1


class SelectionError(RuntimeError):
    """No valid score to select from (every candidate arity failed)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep depends on; JSON-serializable for re-rendering."""

    n_observed: int
    c_true: int
    n_samples: int
    test_c_range: tuple[int, int]
    replicates: int
    epsilon: float = 0.01
    measures: tuple[str, ...] = MEASURES
    master_seed: int = 1
    output_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "test_c_range",
                           tuple(int(c) for c in self.test_c_range))
        object.__setattr__(self, "measures", tuple(self.measures))
        if self.n_observed < 1:
            raise ValueError("n_observed must be >= 1")
        if self.c_true < 1:
            raise ValueError("c_true must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if len(self.test_c_range) != 2:
            raise ValueError("test_c_range must be an inclusive (low, high) "
                             "pair")
        lo, hi = self.test_c_range
        if lo < 1 or hi < lo:
            raise ValueError("test_c_range must satisfy 1 <= low <= high")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not self.measures:
            raise ValueError("measures must be non-empty")
        check_measures(self.measures)

    @property
    def test_arities(self) -> tuple[int, ...]:
        lo, hi = self.test_c_range
        return tuple(range(lo, hi + 1))

    @property
    def alpha(self) -> float:
        """Every Dirichlet hyperparameter is 1 + epsilon."""
        return 1.0 + self.epsilon


def _from_fields(cls, doc: dict):
    """Build ``cls`` from the keys of ``doc`` that name its fields; other
    keys are ignored and absent fields take their defaults."""
    return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})


def config_from_json_dict(doc: dict) -> ExperimentConfig:
    return _from_fields(ExperimentConfig, doc)


@dataclass
class CellResult:
    """One (replicate, test arity) fit and its scores."""

    replicate: int
    test_c: int
    dim: int
    final_g: float | None
    converged: bool
    iterations_used: int
    scores: dict[str, float] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)


@dataclass
class SweepResult:
    config: ExperimentConfig
    true_model: ParamSet
    cells: list[CellResult]

    def replicate_cells(self, replicate: int) -> list[CellResult]:
        return [c for c in self.cells if c.replicate == replicate]

    def measure_curve(self, replicate: int, measure: str) -> dict[int, float]:
        """test_c -> log score over the cells where the measure is valid."""
        return {c.test_c: c.scores[measure]
                for c in self.replicate_cells(replicate)
                if measure in c.scores}


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run every cell of the sweep; deterministic given the master seed."""
    spec_true = ModelSpec((2,) * config.n_observed, config.c_true)
    true_model = generate_model(
        spec_true, SeededStream(config.master_seed, _MODEL_STREAM))
    datasets = []
    for rep in range(config.replicates):
        complete = sample_dataset(
            true_model, config.n_samples,
            SeededStream(config.master_seed, _DATASET_STREAM_BASE + rep))
        datasets.append(strip_hidden(complete))

    tasks = [(rep, tc) for rep in range(config.replicates)
             for tc in config.test_arities]
    em_cfg = EmConfig()

    def run_cell(k: int, rep: int, tc: int) -> CellResult:
        spec_fit = ModelSpec(spec_true.observed_arities, tc)
        data_fit = align_hidden_arity(spec_fit, datasets[rep])
        prior = PriorSet.symmetric(spec_fit, config.alpha)
        rng = SeededStream(config.master_seed, k)
        started = perf_counter()
        try:
            em = fit(data_fit, spec_fit, prior, em_cfg, rng)
        except (NumericalFailureError, DegeneratePriorError,
                StarvedRowError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
            log.warning("cell rep=%d c=%d failed to fit: %s", rep, tc, reason)
            return CellResult(replicate=rep, test_c=tc,
                              dim=dimension(spec_fit), final_g=None,
                              converged=False, iterations_used=0,
                              failures={m: reason for m in config.measures})
        report = score_report(em, data_fit, prior, config.measures)
        log.debug("cell rep=%d c=%d: %d iterations, %.3fs",
                  rep, tc, em.iterations_used, perf_counter() - started)
        return CellResult(replicate=rep, test_c=tc, dim=report.dim,
                          final_g=em.final_g, converged=em.converged,
                          iterations_used=em.iterations_used,
                          scores=report.scores, failures=report.failures)

    log.info("sweep: %d cells", len(tasks))
    started = perf_counter()
    cells = [run_cell(k, rep, tc) for k, (rep, tc) in enumerate(tasks)]
    log.info("sweep finished in %.3fs", perf_counter() - started)
    for measure in config.measures:
        log.info("sweep: %s failed in %d of %d cells", measure,
                 sum(measure in cell.failures for cell in cells), len(cells))
    return SweepResult(config=config, true_model=true_model, cells=cells)


# ---------------------------------------------------------------------------
# Selection and summaries.

def select_model(curve: dict[int, float]) -> int:
    """Test arity whose score is highest; ties go to the smallest arity."""
    if not curve:
        raise SelectionError("no valid cells to select from")
    return max(sorted(curve), key=curve.__getitem__)


def delta_c(selections: dict[str, int]) -> dict[str, int]:
    """Per-measure selected arity minus the laplace-selected arity."""
    if "laplace" not in selections:
        raise ValueError("delta_c needs the laplace selection as baseline")
    base = selections["laplace"]
    return {m: s - base for m, s in selections.items() if m != "laplace"}


def replicate_selections(result: SweepResult, replicate: int) -> dict[str, int]:
    """Selected arity per measure, skipping measures with no valid cell."""
    selections = {}
    for measure in result.config.measures:
        curve = result.measure_curve(replicate, measure)
        if curve:
            selections[measure] = select_model(curve)
    return selections


def summarize_deltas(result: SweepResult) -> list[dict]:
    """Mean and sample sd of delta_c per measure (laplace excluded)."""
    per_measure: dict[str, list[float]] = {
        m: [] for m in result.config.measures if m != "laplace"}
    for rep in range(result.config.replicates):
        selections = replicate_selections(result, rep)
        if "laplace" not in selections:
            continue
        for measure, d in delta_c(selections).items():
            per_measure[measure].append(float(d))
    rows = []
    for measure, deltas in per_measure.items():
        mean, sd = _mean_sd(deltas)
        rows.append({"measure": measure, "replicates_used": len(deltas),
                     "mean_delta_c": mean, "sd_delta_c": sd})
    return rows


def _mean_sd(values: list[float]):
    n = len(values)
    if n == 0:
        return None, None
    mean = sum(values) / n
    if n < 2:
        return mean, None
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, var ** 0.5


# ---------------------------------------------------------------------------
# Files.  All floats print through repr, which round-trips exactly, and all
# iteration orders are fixed, so reruns produce identical bytes.

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_safe(text: str) -> str:
    return text.replace(",", ";").replace("\n", " ")


def result_to_json_dict(result: SweepResult) -> dict:
    return {
        "config": asdict(result.config),
        "true_model": model_to_json_dict(result.true_model),
        "cells": [asdict(c) for c in result.cells],
    }


def result_from_json_dict(doc: dict) -> SweepResult:
    return SweepResult(config=config_from_json_dict(doc["config"]),
                       true_model=params_from_json_dict(doc["true_model"]),
                       cells=[_from_fields(CellResult, c)
                              for c in doc["cells"]])


def emit_reports(result: SweepResult, out_dir) -> None:
    """Write curves.csv, selection.csv, summary.csv, and run.json."""
    os.makedirs(out_dir, exist_ok=True)
    config = result.config

    lines = ["replicate,test_c,measure,log_score,valid,reason"]
    for cell in result.cells:
        for measure in config.measures:
            if measure in cell.scores:
                lines.append(f"{cell.replicate},{cell.test_c},{measure},"
                             f"{_fmt(cell.scores[measure])},true,")
            else:
                reason = _csv_safe(cell.failures.get(measure, ""))
                lines.append(f"{cell.replicate},{cell.test_c},{measure},"
                             f",false,{reason}")
    _write_lines(os.path.join(out_dir, "curves.csv"), lines)

    lines = ["replicate,measure,selected_c,delta_c"]
    for rep in range(config.replicates):
        selections = replicate_selections(result, rep)
        deltas = (delta_c(selections) if "laplace" in selections else {})
        for measure in config.measures:
            sel = selections.get(measure)
            if measure == "laplace":
                d = 0 if sel is not None else None
            else:
                d = deltas.get(measure)
            lines.append(f"{rep},{measure},{_fmt(sel)},{_fmt(d)}")
    _write_lines(os.path.join(out_dir, "selection.csv"), lines)

    lines = ["measure,mean_delta_c,sd_delta_c"]
    for row in summarize_deltas(result):
        lines.append(f"{row['measure']},{_fmt(row['mean_delta_c'])},"
                     f"{_fmt(row['sd_delta_c'])}")
    _write_lines(os.path.join(out_dir, "summary.csv"), lines)

    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(result_to_json_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
