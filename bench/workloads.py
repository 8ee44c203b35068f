"""The three workloads. Each builds its inputs from the seed, measures the
program for about ``seconds``, then checks the outputs with ``oracle``.

All runs are one process, a closed loop with one client: each operation
starts when the previous one has returned.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from msjoint import build_buckets
from msjoint.inference import FitConfig, StopRule, compute_fim, fit, stderr
from msjoint.io import read_cohort, write_cohort
from msjoint.likelihood import LikelihoodEngine
from msjoint.params import flatten
from msjoint.predict import condition_cohort, predict_state_grid
from msjoint.sampler import SamplerConfig
from msjoint.simulate import generate_cohort

import oracle
import study
import tracing

# The paper's fit settings; the run stops after ITERS_PER_SECOND * seconds
# iterations, or at the paper's 500 if that comes first.
FIT_CONFIG = dict(learning_rate=0.5, n_draws=15)
FIT_SAMPLER = SamplerConfig(n_chains=5, warmup=150)
PAPER_ITERATIONS = 500
ITERS_PER_SECOND = 3.5

FIM_DRAWS = 250
TRUNCATIONS = (2.0, 5.0, 8.0)
HORIZONS = np.array([2.0, 5.0, 8.0, 11.0, 14.0])
SWEEP_SAMPLER = SamplerConfig(n_chains=5, warmup=400, thin=5)
# Single-patient requests condition with the study's warmup of 150 sweeps
# (predict's default is 500) so that a run holds 100 requests, the fewest
# that leave ten beyond the p90.
PATIENT_SAMPLER = SamplerConfig(n_chains=5, warmup=150, thin=5)
PATIENTS_PER_SECOND = 10 / 3
PREDICT_DRAWS = 200

STUDY_COHORTS_PER_SECOND = 0.8
STUDY_SUBJECTS = 1000
RECURRENT_COHORTS_PER_SECOND = 0.25
RECURRENT_SUBJECTS = 1000


@dataclass
class Run:
    seed: int
    seconds: int
    traced: bool
    out_dir: Path
    tracer: object = None
    families: study.Families = None
    engine: type = LikelihoodEngine
    attempted: int = 0
    failed: int = 0
    setup_times: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def __post_init__(self):
        if self.traced:
            self.tracer = tracing.Tracer()
            self.families = tracing.counting_families(self.tracer)
            self.engine = tracing.traced_engine_class(self.tracer)
        else:
            self.tracer = tracing.NullTracer()
            self.families = study.Families()

    def metric(self, name, value, unit):
        self.metrics[name] = (float(value), unit)

    @contextmanager
    def paused(self):
        """Nothing called inside is traced (set-up and checks)."""
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def setup(self, build, reps=1):
        """Run ``build`` reps times; setup_s is the median over every set-up
        of the run."""
        with self.paused():
            for _ in range(reps):
                t0 = perf_counter()
                result = build()
                self.setup_times.append(perf_counter() - t0)
        self.metric("setup_s", median(self.setup_times), "s")
        return result

    def attempt(self, fn, *args, **kwargs):
        """One operation; a raised exception counts as failed, returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted and reported, the run goes on
            self.failed += 1
            print(f"operation failed: {exc!r}", file=sys.stderr)
            return None

    def peak_rss(self):
        self.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    def op_latencies(self, seconds):
        """op_p50_ms and op_p90_ms: latency of the workload's repeated operation."""
        self.metric("op_p50_ms", _quantile_ms(seconds, 50), "ms")
        self.metric("op_p90_ms", _quantile_ms(seconds, 90), "ms")

    def check(self, problems):
        self.problems.extend(problems)


def _quantile_ms(values, q):
    return float(np.percentile(np.asarray(values) * 1e3, q))


# --------------------------------------------------------------------------


def study_fit(run: Run) -> None:
    iterations = min(PAPER_ITERATIONS, math.ceil(ITERS_PER_SECOND * run.seconds))

    def build():
        model = study.study_model(run.families)
        cohort, _ = generate_cohort(model.design, model.truth, n=1000, m=20, seed=run.seed)
        return model, cohort

    model, cohort = run.setup(build, reps=3)
    stamps = []
    t0 = perf_counter()
    with run.tracer.span("inference.fit"):
        engine = run.engine(cohort, model.design, model.graph)
        report = fit(
            cohort, model.design, model.graph, model.init,
            FitConfig(max_iterations=iterations, **FIT_CONFIG), StopRule(rtol=0.1), FIT_SAMPLER,
            seed=run.seed, engine=engine, callback=lambda *_: stamps.append(perf_counter()),
        )
    run.metric("work_s", perf_counter() - t0, "s")
    run.peak_rss()
    run.op_latencies(np.diff(stamps))
    run.attempted += report.iterations
    run.tracer.add("inference.iterations", report.iterations)
    run.tracer.add("inference.nonfinite_skips", report.iterations - len(stamps))
    print(f"study-fit: {report.iterations} iterations, stop: {report.stop_reason}, largest deviation "
          f"from the reference table {oracle.table_deviation(flatten(report.params)).max():.2f} SE")

    with run.paused():
        if not np.all(np.isfinite(report.theta_history)):
            run.check(["non-finite parameter iterate"])
        if report.iterations >= 20:  # the first few Adam steps from zero may overshoot
            run.check(oracle.check_ascent(report.loglik_history))
        if iterations == PAPER_ITERATIONS:
            run.check(oracle.check_table(flatten(report.params)))
        # the engine at the fitted parameters against the reference likelihoods
        rng = np.random.default_rng(run.seed)
        idx = rng.choice(len(cohort), size=4, replace=False)
        b = rng.standard_normal((len(cohort), 3)) * np.sqrt(study.Q_DIAG)
        plain = LikelihoodEngine(cohort, model.design, model.graph)
        records = [cohort[i] for i in idx]
        want = [oracle.reference_loglik(r, b[i], report.params, model.design, model.graph) for r, i in zip(records, idx)]
        run.check(oracle.check_close("posterior log-density", plain.posterior_logdensity(report.params, b)[idx], want, 1e-9))
        grad = plain.grad_theta(report.params, b, subset=np.sort(idx))
        fd = oracle.fd_scores(records, b[idx], report.params, model.design, model.graph).sum(axis=0)
        run.check(oracle.check_close("gradient vs finite differences", grad, fd, oracle.FD_TOL))


def study_analysis(run: Run) -> None:
    n_patients = math.ceil(PATIENTS_PER_SECOND * run.seconds)

    def build():
        model = study.study_model(run.families)
        cohort, _ = generate_cohort(model.design, model.truth, n=1000, m=20, seed=run.seed)
        heldout, _ = generate_cohort(model.design, model.truth, n=200, m=20, seed=run.seed + 1000)
        return model, cohort, heldout

    model, cohort, heldout = run.setup(build, reps=3)
    design, truth, graph = model.design, model.truth, model.graph

    t_work = t0 = perf_counter()
    with run.tracer.span("inference.fim"):
        engine = run.engine(cohort, design, graph)
        fim = compute_fim(cohort, design, graph, truth, FIT_SAMPLER, n_samples=FIM_DRAWS, seed=run.seed, engine=engine)
        errs = stderr(fim)
    fim_s = perf_counter() - t0
    run.attempted += 1

    # Requests come for patients still at risk at their truncation time,
    # two in state 0 (healthy) for every one in state 1 (ill): a request
    # costs about a third more from state 1, so with the seed's own mix the
    # median would move with the share of ill patients.
    at_risk = {state: [(rec, t) for rec in heldout for t in TRUNCATIONS if rec.trajectory.state_at(t) == state]
               for state in (0, 1)}
    rng = np.random.default_rng(run.seed + 2000)
    sweep, sweep_s = [], 0.0  # (t, draws, [probs per individual])
    latencies, requests = [], []
    served = {0: 0, 1: 0}  # requests so far per state
    # The sweep's truncations alternate with thirds of the request stream, so
    # that both metrics sample the whole run rather than one stretch of it.
    for t, chunk in zip(TRUNCATIONS, np.array_split(np.arange(n_patients), len(TRUNCATIONS))):
        t0 = perf_counter()
        with run.tracer.span("predict.condition"):
            draws = condition_cohort(
                heldout, t, design, truth, graph, SWEEP_SAMPLER, n_draws=PREDICT_DRAWS,
                seed=int(rng.integers(2**63)),
            )
        run.attempted += 1
        probs = []
        for i, rec in enumerate(heldout):
            run.tracer.add("predict.draws", PREDICT_DRAWS)
            with run.tracer.span("predict.grid"):
                out = run.attempt(
                    predict_state_grid, rec, t, np.minimum(HORIZONS, rec.censoring_time), design, truth, graph,
                    n_draws=PREDICT_DRAWS, rng=rng.spawn(1)[0], b_draws=draws[:, i, :],
                )
            probs.append(None if out is None else out[0])
        sweep.append((t, draws, probs))
        sweep_s += perf_counter() - t0

        for j in chunk:
            state = 0 if j % 3 < 2 else 1
            rec, t_req = at_risk[state][served[state] % len(at_risk[state])]
            served[state] += 1
            run.tracer.add("predict.draws", PREDICT_DRAWS)
            t0 = perf_counter()
            with run.tracer.span("predict.grid"):
                out = run.attempt(
                    predict_state_grid, rec, t_req, np.minimum(HORIZONS, rec.censoring_time), design, truth, graph,
                    n_draws=PREDICT_DRAWS, rng=np.random.default_rng([run.seed, j]), sampler_config=PATIENT_SAMPLER,
                )
            latencies.append(perf_counter() - t0)
            requests.append((rec, t_req, None if out is None else out[0]))
    run.metric("work_s", perf_counter() - t_work, "s")
    run.op_latencies(latencies)
    run.peak_rss()
    print(f"study-analysis: FIM {fim_s:.3f} s, cohort sweep {sweep_s:.3f} s, "
          f"requests {sum(latencies):.3f} s")

    with run.paused():
        run.check(oracle.check_fim(fim.matrix, errs))
        rng = np.random.default_rng(run.seed)
        idx = rng.choice(len(cohort), size=3, replace=False)
        b = rng.standard_normal((len(cohort), 3)) * np.sqrt(study.Q_DIAG)
        scores = LikelihoodEngine(cohort, design, graph).individual_scores(truth, b)[0, idx]
        fd = oracle.fd_scores([cohort[i] for i in idx], b[idx], truth, design, graph)
        run.check(oracle.check_close("individual scores vs finite differences", scores, fd, oracle.FD_TOL))

        agreement = oracle.SweepAgreement()
        for t, draws, probs in sweep:
            psi = truth.gamma + draws  # the study's psi = gamma + b
            for i, (rec, p) in enumerate(zip(heldout, probs)):
                if p is None:
                    continue
                horizons = np.minimum(HORIZONS, rec.censoring_time)
                run.check(oracle.check_past_mass(p, horizons, t, rec.trajectory))
                later = horizons > t
                ref = oracle.illness_death_probs(
                    psi[:PREDICT_DRAWS, i], rec.covariates, t, rec.trajectory.state_at(t), horizons[later]
                )
                for k, ui in enumerate(np.nonzero(later)[0]):
                    agreement.add(t, int(ui), p[ui], ref[:, k])
        run.check(agreement.problems())
        print(f"study-analysis: worst sweep deviation {agreement.worst_z():.2f} SE")
        for rec, t, p in requests:
            if p is not None:
                run.check(oracle.check_past_mass(p, np.minimum(HORIZONS, rec.censoring_time), t, rec.trajectory))


def cohort_sim(run: Run) -> None:
    n_study = max(1, round(STUDY_COHORTS_PER_SECOND * run.seconds))
    n_recurrent = max(1, round(RECURRENT_COHORTS_PER_SECOND * run.seconds))
    # recurrent cohorts are spread evenly among the study cohorts, so that
    # both throughputs sample the whole run rather than one stretch of it
    plan = sorted([((i + 0.5) / n_study, "study") for i in range(n_study)]
                  + [((k + 0.5) / n_recurrent, "recurrent") for k in range(n_recurrent)])

    def build():
        return study.study_model(run.families), study.recurrent_model(run.families)

    # a few milliseconds each: set up again before every cohort, so that the
    # median covers the whole run
    run.setup(build, reps=4)
    seeds = np.random.default_rng(run.seed).integers(2**31, size=len(plan))
    io_dir = run.out_dir / f"io-{os.getpid()}"
    cohorts = []  # (design name, model, cohort, latent, read back)

    def round_trip(cohort, name):
        path = io_dir / name
        with run.tracer.span("io.write"):
            write_cohort(cohort, path)
        with run.tracer.span("io.read"):
            back = read_cohort(path)
        run.tracer.add("io.bytes", sum(f.stat().st_size for f in path.iterdir()))
        shutil.rmtree(path)
        return back

    rates = {"study": [], "recurrent": []}
    study_latencies = []
    io_s = work_s = 0.0
    try:
        for r, ((_, name), seed) in enumerate(zip(plan, seeds)):
            study_m, recurrent_m = run.setup(build)
            model, n = (study_m, STUDY_SUBJECTS) if name == "study" else (recurrent_m, RECURRENT_SUBJECTS)
            t0 = perf_counter()
            out = run.attempt(generate_cohort, model.design, model.truth, n=n, m=20, seed=int(seed))
            elapsed = perf_counter() - t0
            work_s += elapsed
            if out is None:
                continue
            cohort, latent = out
            work = n if name == "study" else sum(len(rec.trajectory) - 1 for rec in cohort)
            rates[name].append(work / elapsed)
            if name == "study":
                study_latencies.append(elapsed)
            t0 = perf_counter()
            back = run.attempt(round_trip, cohort, f"cohort{r}")
            io_s += perf_counter() - t0
            cohorts.append((name, model, cohort, latent, back))
    finally:
        shutil.rmtree(io_dir, ignore_errors=True)
    run.metric("work_s", work_s + io_s, "s")
    run.op_latencies(study_latencies)
    run.peak_rss()
    print(f"cohort-sim: {median(rates['study']):.1f} study subjects/s, "
          f"{median(rates['recurrent']):.1f} recurrent transitions/s, CSV write and read {io_s:.3f} s")

    with run.paused():
        uniforms = {"study": [], "recurrent": []}
        for name, model, cohort, latent, back in cohorts:
            run.check(oracle.check_cohort(cohort, model.graph))
            if name == "study":
                counts = build_buckets(model.graph, cohort.trajectories(), cohort.censoring_times()).counts()
                run.check(oracle.check_counts(counts))
            if back is not None:
                run.check(oracle.check_round_trip(cohort, back))
            uniforms[name].append(oracle.sojourn_uniforms(name, model.graph, cohort, latent["psi"]))
        for name, parts in uniforms.items():
            u = np.concatenate(parts) if parts else np.zeros(0)
            run.check(oracle.check_uniform(f"{name} sojourn uniforms", u))
            print(f"cohort-sim: {name} sojourns {u.size}, sqrt(n) KS {oracle.ks_uniform(u) if u.size else float('nan'):.2f}")


WORKLOADS = {"study-fit": study_fit, "study-analysis": study_analysis, "cohort-sim": cohort_sim}
