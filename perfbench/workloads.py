"""One benchmark workload in its own process: set up, run, check, report.

``run.py`` starts this file once per setup sample and once for the measured
run; it prints one JSON object as its last line.  Each workload drives the
library's public API with the calls a CLI subcommand makes, one client,
calls back to back, and every input derives from ``--seed``:

- ``sweep-n8``: ``run_sweep`` + ``emit_reports`` (``latentscore sweep``) on
  the acceptance shape, 8 binary leaves, c_true=4, N=400, arities 2..8, one
  replicate per call, default worker count.  Tournament EM dominates, and it
  is the only workload through the thread pool and the report writer.
- ``score-n32``: ``score_report`` with the five measures (``latentscore
  score``) at one mode of the cost fixture: 32 binary leaves, c=8 fitted to
  N=400 rows from c_true=4, alpha 2.  The fit is set-up; inside the run the
  finite-difference Hessian is nearly all the time and EM is absent.
- ``oracle-n20``: ``fit`` then ``score_report`` with the oracle (``train`` +
  ``score --oracle``) on a fresh 3-leaf, c=2, N=20, alpha 1.01 instance per
  call.  The c^N enumeration dominates time and memory, and EM runs at a
  size where fixed cost per fit, not array work, sets its speed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

from layers import TARGETS, layer_metrics
from reference import Reference
from spans import Tracer, ratio, tail

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SEED_STRIDE = 1_000_003
SWEEP_FILES = ("curves.csv", "selection.csv", "summary.csv", "run.json")
# Guards against buying speed with a looser mode.  An oracle-n20 mode may lie
# at most MODE_GAP nats of g below where a tight EM run from it ends; the seed
# code stays under 1e-3 on every instance probed, while a tournament of 8
# starts instead of 64 goes past 1e-2 on about one instance in twelve, and
# one of 2 starts on about one in four.  The score-n32
# mode may not fall below the baseline's g for its seed by more than
# MODE_REL_TOL of |g|, the change EM's stopping rule allows in one step.
MODE_GAP = 1e-2
MODE_REL_TOL = 1e-5
NOT_PD = "NotPositiveDefiniteError"
# Before each call the reference runs for REF_SHARE of a typical call's
# time, and at least REF_MIN_SAMPLES times.
REF_SHARE, REF_MIN_SAMPLES = 0.1, 2


def import_library():
    """Import latentscore from this checkout's ``src``, nowhere else."""
    package = CHECKOUT / "src" / "latentscore"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {package}")
    sys.path.insert(0, str(package.parent))
    import latentscore
    if Path(latentscore.__file__).resolve().parent != package.resolve():
        raise SystemExit("perfbench: imported latentscore from "
                         f"{latentscore.__file__}, not {package}")
    return latentscore


def derive(seed: int, k: int) -> int:
    """The library seed of input ``k`` under workload seed ``seed``."""
    return (seed * SEED_STRIDE + k) % (1 << 63)


def baseline_notes(seed: int) -> dict:
    """What ``baseline.json`` noted for score-n32 on this seed, if anything."""
    path = HERE / "baseline.json"
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text(encoding="utf-8"))
    entry = doc["workloads"].get("score-n32", {})
    return entry.get("notes_by_seed", {}).get(str(seed), {})


def grad_inf(ls, params, data, prior) -> float:
    """Largest free-coordinate component of grad g at a fitted mode."""
    g = ls.grad_g(ls.params_to_free(params), data, prior)
    return float(abs(g).max())


def mode_gap(ls, params, data, prior) -> float:
    """How much g still rises when EM runs on tightly from a fitted mode."""
    tight = ls.EmConfig(rel_tol=1e-12, max_iters_after_init=5000)
    end = ls.run_em(params, data, prior, tight)
    return end.final_g - end.g_trace[0]


def entry_errors(scores, failures, measures, where) -> list[str]:
    """Each measure must be a finite score or a failure with a reason."""
    errors = []
    for m in measures:
        if m in scores:
            if not math.isfinite(scores[m]):
                errors.append(f"{where} {m}: score {scores[m]!r}")
        elif not failures.get(m):
            errors.append(f"{where} {m}: neither a score nor a reason")
    return errors


class SweepN8:
    unit = "cell"
    notes: dict = {}

    def __init__(self, ls, seed, workdir):
        import latentscore.experiment as experiment
        self.ls, self.experiment = ls, experiment
        self.seed, self.workdir = seed, workdir

    def inputs(self, k):
        return self.ls.ExperimentConfig(
            n_observed=8, c_true=4, n_samples=400, test_c_range=(2, 8),
            replicates=1, master_seed=derive(self.seed, k))

    def call(self, config, tag):
        out = self.workdir / tag
        result = self.ls.run_sweep(config)
        self.ls.emit_reports(result, out)
        return result, out

    def units(self, output) -> int:
        return len(output[0].cells)

    def check(self, output) -> list[str]:
        result, out = output
        errors = []
        for cell in result.cells:
            errors += entry_errors(cell.scores, cell.failures,
                                   result.config.measures,
                                   f"rep {cell.replicate} c={cell.test_c}")
        again = out.with_name(out.name + "-rerender")
        with open(out / "run.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.ls.emit_reports(self.experiment.result_from_json_dict(doc), again)
        for name in SWEEP_FILES:
            if (out / name).read_bytes() != (again / name).read_bytes():
                errors.append(f"re-rendered {name} differs from the original")
        shutil.rmtree(out)
        shutil.rmtree(again)
        return errors

    def grads(self, output):
        return []


class ScoreN32:
    unit = "report"

    def __init__(self, ls, seed, workdir):
        self.ls = ls
        s = derive(seed, 0)
        spec = ls.binary_spec(32, 8)
        truth = ls.generate_model(ls.binary_spec(32, 4), ls.SeededStream(s, 0))
        drawn = ls.strip_hidden(
            ls.sample_dataset(truth, 400, ls.SeededStream(s, 1)))
        self.data = ls.Dataset(spec, drawn.rows)
        self.prior = ls.PriorSet.symmetric(spec, 2.0)
        self.em = ls.fit(self.data, spec, self.prior, ls.EmConfig(),
                         ls.SeededStream(s, 2))
        g = ls.log_posterior_g(self.em.params, self.data, self.prior)
        self.notes = {"mode_g": g}
        self.baseline = baseline_notes(seed)
        self.setup_errors = []
        base_g = self.baseline.get("mode_g")
        if base_g is not None and g < base_g - MODE_REL_TOL * abs(base_g):
            self.setup_errors.append(
                f"score-n32 set-up fit: g at the mode is {g!r}, below the "
                f"baseline's {base_g!r} for this seed")
        self.not_pd_errors = None
        self.first = None
        self.mode_grad = None

    def inputs(self, k):
        return None

    def call(self, _, tag):
        return self.ls.score_report(self.em, self.data, self.prior)

    def units(self, report) -> int:
        return 1

    def check(self, report) -> list[str]:
        """All five finite, except that laplace may fail as not positive
        definite when the curvature at the mode really is not."""
        errors = list(self.setup_errors)
        not_pd = report.failures.get("laplace", "").startswith(NOT_PD + ":")
        if not_pd:
            self.notes["laplace"] = "not-pd"
            errors += self.verify_not_pd()
        elif "laplace" in report.scores:
            self.notes["laplace"] = "finite"
        for m in self.ls.MEASURES:
            if m in report.scores:
                if not math.isfinite(report.scores[m]):
                    errors.append(f"score-n32 {m}: score {report.scores[m]!r}")
            elif not (m == "laplace" and not_pd):
                errors.append(f"score-n32 {m}: failed: "
                              f"{report.failures.get(m)!r}")
        bits = ({m: float(v).hex() for m, v in report.scores.items()},
                report.failures)
        if self.first is None:
            self.first = bits
        elif bits != self.first:
            errors.append(f"scores at the same mode changed: {bits} "
                          f"after {self.first}")
        return errors

    def verify_not_pd(self) -> list[str]:
        """Once per process: the full -H at the mode must fail Cholesky, and
        the baseline must not have had laplace finite on this seed."""
        if self.not_pd_errors is None:
            import numpy as np
            ls = self.ls
            a = ls.neg_hessian(ls.params_to_free(self.em.params), self.data,
                               self.prior)
            self.not_pd_errors = []
            try:
                np.linalg.cholesky(a)
                self.not_pd_errors.append(
                    "laplace failed as not positive definite, but -H at the "
                    "mode factorizes")
            except np.linalg.LinAlgError:
                pass
            if self.baseline.get("laplace") == "finite":
                self.not_pd_errors.append(
                    "laplace is not positive definite on a seed where the "
                    "baseline had it finite")
        return self.not_pd_errors

    def grads(self, report):
        if self.mode_grad is not None:
            return []
        self.mode_grad = grad_inf(self.ls, self.em.params, self.data,
                                  self.prior)
        return [self.mode_grad]


class OracleN20:
    unit = "instance"
    notes: dict = {}

    def __init__(self, ls, seed, workdir):
        self.ls, self.seed = ls, seed
        self.spec = ls.binary_spec(3, 2)
        self.prior = ls.PriorSet.symmetric(self.spec, 1.01)

    def inputs(self, k):
        ls = self.ls
        s = derive(self.seed, k)
        model = ls.generate_model(self.spec, ls.SeededStream(s, 0))
        data = ls.strip_hidden(
            ls.sample_dataset(model, 20, ls.SeededStream(s, 1)))
        return s, data

    def call(self, instance, tag):
        ls = self.ls
        s, data = instance
        em = ls.fit(data, self.spec, self.prior, rng=ls.SeededStream(s, 2))
        report = ls.score_report(em, data, self.prior,
                                 ls.MEASURES + ("oracle",))
        return instance, em, report

    def units(self, output) -> int:
        return 1

    def check(self, output) -> list[str]:
        ls = self.ls
        (s, data), em, report = output
        oracle = report.scores.get("oracle")
        if oracle is None or not math.isfinite(oracle):
            return [f"seed {s}: oracle is {oracle!r}: "
                    f"{report.failures.get('oracle')}"]
        errors = []
        gap = mode_gap(ls, em.params, data, self.prior)
        if not gap <= MODE_GAP:
            errors.append(f"seed {s}: g rises by {gap!r} beyond the fitted "
                          f"mode, more than {MODE_GAP:g}")
        stats = ls.e_step(em.params, data)
        n = data.n_samples
        for i, table in enumerate([stats.root] + list(stats.leaves)):
            if abs(float(table.sum()) - n) > 1e-9:
                errors.append(f"seed {s}: e_step table {i} totals "
                              f"{float(table.sum())!r}, not {n}")
        import numpy as np
        perm = np.random.default_rng(s).permutation(n)
        shuffled = ls.Dataset(self.spec, data.rows[perm])
        moved = abs(ls.oracle_exact(shuffled, self.spec, self.prior) - oracle)
        if not moved <= 1e-9:
            errors.append(f"seed {s}: oracle moved by {moved!r} when the "
                          "rows were shuffled")
        return errors

    def grads(self, output):
        (_, data), em, _ = output
        return [grad_inf(self.ls, em.params, data, self.prior)]


WORKLOADS = {"sweep-n8": SweepN8, "score-n32": ScoreN32,
             "oracle-n20": OracleN20}


def environment() -> dict:
    import numpy
    import scipy
    import latentscore.experiment as experiment
    resolve = getattr(experiment, "_thread_count", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "latent_score_threads": resolve(7) if resolve else "absent",
        "openblas_threads": openblas_threads(numpy),
    }


def openblas_threads(numpy):
    """Thread count OpenBLAS reports, or the variable that sets it."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


class Loop:
    """Calls back to back for about ``seconds`` of wall time.

    A call starts only while the loop, after half of a typical iteration
    more, would still end inside the budget, so a run overshoots it by at
    most about half an iteration.  Checks run outside the timed calls.
    """

    def __init__(self, workload, seconds):
        self.workload, self.seconds = workload, seconds
        self.attempted = self.failed = self.units = 0
        self.errors: list[str] = []
        self.grads: list[float] = []
        self.iteration_s: list[float] = []

    def more(self, started) -> bool:
        if not self.iteration_s:
            return True
        spent = perf_counter() - started
        return spent + 0.5 * median(self.iteration_s) < self.seconds

    def attempt(self, inputs, tag, span=nullcontext, keep_grads=True):
        """One timed call plus its checks; the call's seconds, or None."""
        self.attempted += 1
        seconds = None
        try:
            start = perf_counter()
            with span():
                output = self.workload.call(inputs, tag)
            seconds = perf_counter() - start
            errors = self.workload.check(output)
            if not errors:
                self.units += self.workload.units(output)
                if keep_grads:
                    self.grads += self.workload.grads(output)
        except Exception:
            errors = [traceback.format_exc()]
        if errors:
            self.failed += 1
            self.errors += errors
            return None
        return seconds


def run_plain(workload, seconds) -> tuple[Loop, dict]:
    loop = Loop(workload, seconds)
    calls, rates, refs = [], [], []
    reference = Reference()
    try:
        started = perf_counter()
        k = 0
        while loop.more(started):
            t0 = perf_counter()
            budget = REF_SHARE * median(calls) if calls else 0.0
            spent = [reference.sample() for _ in range(REF_MIN_SAMPLES)]
            while sum(spent) < budget:
                spent.append(reference.sample())
            refs += spent
            units = loop.units
            s = loop.attempt(workload.inputs(k), f"call{k}")
            if s is not None:
                calls.append(s)
                rates.append((loop.units - units) / s)
            loop.iteration_s.append(perf_counter() - t0)
            k += 1
    finally:
        reference.close()
    metrics = {}
    if calls:
        # Medians over calls, so a few seconds of a slowed host move a
        # run's figures less than a mean over the run would.
        ref = median(refs)
        metrics["throughput_per_ref"] = {
            "value": median(rates) * ref, "unit": "1/ref",
            "base": f"{workload.unit}s per reference time of {ref:.6f} s, "
                    f"the median of {len(refs)} samples"}
        metrics["call_p50_ref"] = {
            "value": median(calls) / ref, "unit": "ref",
            "base": f"call p50 over reference time of {ref:.6f} s"}
        metrics["throughput_per_s"] = {
            "value": median(rates), "unit": "1/s",
            "base": f"median over {len(calls)} calls of {workload.unit}s "
                    f"per call second; {loop.units} {workload.unit}s in "
                    f"{sum(calls):.4f} s"}
        metrics["call_p50_s"] = {"value": median(calls), "unit": "s",
                                 "base": f"{len(calls)} calls"}
        t = tail(calls)
        if t is not None:
            metrics["call_tail_s"] = {
                "value": t.value, "unit": "s",
                "base": f"p{t.percentile:.4g} of {t.samples} calls"}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mib"] = {"value": rss, "unit": "MiB"}
    r = ratio(loop.failed, loop.attempted)
    metrics["failed_op_ratio"] = {"value": r.value, "unit": "ratio",
                                  "base": f"{r.part:g} of {r.base:g} calls"}
    if loop.grads:
        metrics["mode_grad_inf"] = {"value": median(loop.grads),
                                    "unit": "nats",
                                    "base": f"median of {len(loop.grads)}"}
    return loop, metrics


def run_traced(workload, seconds) -> tuple[Loop, dict, list[str]]:
    """Pairs of one untraced and one traced call on the same inputs.

    The order inside a pair alternates.  Per-layer metrics come from the
    traced calls; the ratio of the two sides' summed time is the tracing
    overhead.  The wrappers are bound only while the call runs, so the
    checks that follow it are not counted as library work.
    """
    loop = Loop(workload, seconds)
    tracer = Tracer()

    @contextmanager
    def traced_call():
        tracer.install(TARGETS)
        try:
            with tracer.top("call"):
                yield
        finally:
            tracer.uninstall()

    plain, traced = [], []
    started = perf_counter()
    k = 0
    while loop.more(started):
        t0 = perf_counter()
        tracer.install(TARGETS)
        try:
            inputs = workload.inputs(k)
        finally:
            tracer.uninstall()
        pair = {}
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            pair[with_trace] = loop.attempt(
                inputs, f"call{k}-{int(with_trace)}",
                traced_call if with_trace else nullcontext,
                keep_grads=with_trace)
        if None not in pair.values():
            plain.append(pair[False])
            traced.append(pair[True])
        loop.iteration_s.append(perf_counter() - t0)
        k += 1
    if not traced:
        return loop, {}, []
    metrics, missing = layer_metrics(tracer.spans, len(traced), sum(traced),
                                     tracer.absent)
    modes = [s.info for s in tracer.spans
             if s.name == "experiment.fit" and s.ok]
    grads = loop.grads + [grad_inf(workload.ls, *m) for m in modes]
    if grads:
        metrics["mode_grad_inf"] = {"value": median(grads), "unit": "nats",
                                    "base": f"median of {len(grads)} modes"}
    else:
        missing.append("mode_grad_inf")
    r = ratio(sum(traced), sum(plain))
    metrics["trace_overhead_ratio"] = {
        "value": r.value, "unit": "ratio",
        "base": f"{r.part:.4f} s traced over {r.base:.4f} s untraced, "
                f"{len(traced)} pairs"}
    return loop, metrics, missing


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.time() just before this process was started")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    ls = import_library()
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](ls, args.seed, workdir)
        setup_s = time.time() - args.spawned_at
        doc = {"setup_s": setup_s}
        if not args.setup_only:
            if args.trace:
                loop, metrics, missing = run_traced(workload, args.seconds)
            else:
                loop, metrics = run_plain(workload, args.seconds)
                missing = []
            doc.update(attempted=loop.attempted, failed=loop.failed,
                       errors=loop.errors[:20], metrics=metrics,
                       absent=missing, environment=environment(),
                       notes=workload.notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
