"""Command-line entry points.

Subcommands: ``generate`` (synthesize a model and dataset), ``train`` (EM fit
of one dataset), ``score`` (evaluate measures for one dataset under one
trained model), ``sweep`` (full arity-recovery experiment), and ``report``
(re-render the CSVs from a stored run.json).  Exit codes: 0 on success, 2 for
usage errors, 1 for anything else (with a diagnostic line on stderr).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import MISSING, fields

from .em_engine import EmConfig, fit, result_metadata
from .experiment import (
    ExperimentConfig,
    config_from_json_dict,
    emit_reports,
    result_from_json_dict,
    run_sweep,
)
from .model_core import (
    Dataset,
    ModelSpec,
    PriorSet,
    binary_spec,
    read_model,
    write_model,
)
from .numerics import SeededStream
from .scoring import MEASURES, score_report
from .synth_data import (
    generate_model,
    read_dataset,
    sample_dataset,
    strip_hidden,
    write_dataset,
)


def _parse_c_range(text: str) -> tuple[int, int]:
    """'2:8' -> (2, 8); a bare integer means a single-point range."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (int(lo), int(hi))
    v = int(text)
    return (v, v)


def _parse_measures(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _cmd_generate(args) -> int:
    spec = binary_spec(args.n, args.c)
    model = generate_model(spec, SeededStream(args.seed, 0))
    data = sample_dataset(model, args.samples, SeededStream(args.seed, 1))
    if not args.keep_hidden:
        data = strip_hidden(data)
    write_model(model, args.out_model)
    write_dataset(data, args.out_data)
    print(f"wrote {args.out_model} and {args.out_data} "
          f"({args.samples} records)")
    return 0


def _cmd_train(args) -> int:
    data = read_dataset(args.data)
    if data.is_complete:
        data = strip_hidden(data)
    spec = ModelSpec(data.spec.observed_arities, args.c)
    prior = (PriorSet.symmetric(spec, 1.0 + args.epsilon)
             if args.mode == "map" else None)
    em = fit(data, spec, prior, EmConfig(), SeededStream(args.seed, 0))
    write_model(em.params, args.out, extra={"metadata": result_metadata(em)})
    print(f"wrote {args.out} (converged={em.converged}, "
          f"iterations={em.iterations_used}, g={em.final_g!r})")
    return 0


def _cmd_score(args) -> int:
    params = read_model(args.model)
    data = read_dataset(args.data)
    if data.is_complete:
        data = strip_hidden(data)
    # The model, not the file, fixes the arities; Dataset checks the rows.
    data = Dataset(params.spec, data.rows)
    prior = PriorSet.symmetric(params.spec, 1.0 + args.epsilon)
    measures = _parse_measures(args.measures)
    if args.oracle and "oracle" not in measures:
        measures = measures + ("oracle",)
    report = score_report(params, data, prior, measures)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        print(report.csv_header(), file=out)
        print(report.csv_row(), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    for measure, reason in report.failures.items():
        print(f"error: {measure}: {reason}", file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_sweep(args) -> int:
    merged: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        # A stored run.json works as a config file; so does a bare config.
        merged = dict(doc.get("config", doc))
    # Each flag's dest is its field's name; an unset flag (or an empty
    # --measures) leaves the file's value or the field's default.
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value not in (None, ()):
            merged[f.name] = value
    missing = [f.name for f in fields(ExperimentConfig)
               if f.default is MISSING and merged.get(f.name) is None]
    if missing:
        raise ValueError(f"sweep config is missing: {', '.join(missing)}")
    config = config_from_json_dict(merged)
    if config.output_dir is None:
        raise ValueError("no output directory (use --out or the config file)")
    result = run_sweep(config)
    emit_reports(result, config.output_dir)
    print(f"wrote curves.csv, selection.csv, summary.csv, run.json "
          f"to {config.output_dir}")
    return 0


def _cmd_report(args) -> int:
    with open(args.run, encoding="utf-8") as fh:
        result = result_from_json_dict(json.load(fh))
    out = args.out or os.path.dirname(os.path.abspath(args.run))
    emit_reports(result, out)
    print(f"re-rendered CSVs to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentscore",
        description="Marginal-likelihood approximations for hidden-root "
                    "naive-Bayes models")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a model and a dataset")
    p.add_argument("--n", type=int, default=8, help="observed binary leaves")
    p.add_argument("--c", type=int, default=4, help="hidden arity")
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-model", default="model.json")
    p.add_argument("--out-data", default="data.csv")
    p.add_argument("--keep-hidden", action="store_true",
                   help="keep the hidden column instead of discarding it")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="fit a model to a dataset with EM")
    p.add_argument("--data", default="data.csv")
    p.add_argument("--c", type=int, required=True,
                   help="hidden arity of the model to fit")
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="prior is Dirichlet(1 + epsilon)")
    p.add_argument("--mode", choices=("map", "ml"), default="map",
                   help="map: maximize log likelihood + log prior; ml: "
                        "maximize the log likelihood (no prior, so "
                        "--epsilon is unused)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="model.json")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score one dataset under one model")
    p.add_argument("--data", default="data.csv")
    p.add_argument("--model", default="model.json")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--measures", default=",".join(MEASURES))
    p.add_argument("--oracle", action="store_true",
                   help="also compute the exact enumeration oracle")
    p.add_argument("--out", default=None, help="write the CSV here instead "
                   "of stdout")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("sweep", help="run an arity-recovery experiment")
    p.add_argument("--config", default=None,
                   help="JSON config (a stored run.json also works); "
                        "flags override its values")
    p.add_argument("--n", dest="n_observed", type=int, metavar="N")
    p.add_argument("--c-true", type=int)
    p.add_argument("--samples", dest="n_samples", type=int,
                   metavar="SAMPLES")
    p.add_argument("--test-c", dest="test_c_range", type=_parse_c_range,
                   metavar="LO:HI")
    p.add_argument("--replicates", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--measures", type=_parse_measures)
    p.add_argument("--seed", dest="master_seed", type=int, metavar="SEED")
    p.add_argument("--out", dest="output_dir", metavar="OUT")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="re-render CSVs from a stored run.json")
    p.add_argument("--run", required=True)
    p.add_argument("--out", default=None,
                   help="defaults to the run.json's directory")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
