"""Spans and counters for the traced run, recorded from the benchmark's own
files around the calls into each layer of the program.

Three kinds of entry point are wrapped:

* an engine subclass, handed to ``fit(engine=)`` and ``compute_fim(engine=)``
  and put in place of ``predict.LikelihoodEngine``;
* counting subclasses of the families and hazards, used in the designs;
* module-level functions the program calls by name (``step_transitions`` in
  ``predict`` and ``simulate``, ``simulate.invert_cumulative_hazard``,
  ``sampler.mh_step``, ``predict.posterior_condition`` and
  ``design.run_self_check``), swapped for wrappers while the run lasts.

A span records its name, start, end and parent; a span's self time is its
duration minus the time its children cover. Element counts come from array
shapes, not from measurement.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

from msjoint import design as design_mod
from msjoint import predict, sampler, simulate
from msjoint.families import PiecewiseAffine, ValueLink, ValueSlopeLink
from msjoint.hazards import ExponentialHazard, WeibullHazard
from msjoint.likelihood import LikelihoodEngine

import study


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    def span(self, name, force=False):
        return nullcontext()

    def add(self, key, value=1):
        pass


class Tracer:
    """Spans kept in flat in-memory arrays, plus named counters. While
    ``paused`` (during set-up) only forced spans are recorded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.paused = False
        self.invert_depth = 0

    @contextmanager
    def span(self, name: str, force: bool = False):
        if self.paused and not force:
            yield
            return
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(np.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def add(self, key: str, value=1) -> None:
        if not self.paused:
            self.counts[key] += value

    def elems(self, key: str, out):
        self.add(key, np.size(out))
        return out

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (span count, inclusive seconds, self seconds)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(dur.size)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        return {
            n: (int((name == i).sum()), float(dur[name == i].sum()), float(own[name == i].sum()))
            for i, n in enumerate(self.names)
        }

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


# --------------------------------------------------------------------------
# Counting subclasses


class _Counted:
    def __init__(self, *args, tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer


class CountingPiecewiseAffine(_Counted, PiecewiseAffine):
    def value(self, t, psi):
        return self.tracer.elems("families.regression_value_elems", super().value(t, psi))

    def time_derivative(self, t, psi):
        return self.tracer.elems("families.regression_value_elems", super().time_derivative(t, psi))

    def jac_psi(self, t, psi):
        return self.tracer.elems("families.regression_jac_elems", super().jac_psi(t, psi))

    def time_derivative_jac_psi(self, t, psi):
        return self.tracer.elems("families.regression_jac_elems", super().time_derivative_jac_psi(t, psi))


class _CountedLink(_Counted):
    def value(self, t, x, psi):
        tr = self.tracer
        with tr.span("families.link_value"):
            out = super().value(t, x, psi)
        tr.add("families.link_value_calls")
        tr.add("families.link_value_elems", out.size)
        if tr.invert_depth:
            # one quadrature pass over out.shape[0] rows of an inversion
            tr.add("simulate.quadrature_rows", out.shape[0])
        return out

    def jac_psi(self, t, x, psi):
        tr = self.tracer
        with tr.span("families.link_jac"):
            out = super().jac_psi(t, x, psi)
        tr.add("families.link_jac_calls")
        tr.add("families.link_jac_elems", out.size)
        return out


class CountingValueSlopeLink(_CountedLink, ValueSlopeLink):
    pass


class CountingValueLink(_CountedLink, ValueLink):
    pass


class _CountedHazard(_Counted):
    def log_hazard(self, u, values):
        return self.tracer.elems("hazards.log_hazard_elems", super().log_hazard(u, values))


class CountingExponentialHazard(_CountedHazard, ExponentialHazard):
    pass


class CountingWeibullHazard(_CountedHazard, WeibullHazard):
    pass


def counting_families(tracer: Tracer) -> study.Families:
    def bind(cls):
        return lambda *args, **kwargs: cls(*args, tracer=tracer, **kwargs)

    return study.Families(
        regression=bind(CountingPiecewiseAffine),
        value_slope=bind(CountingValueSlopeLink),
        value=bind(CountingValueLink),
        exponential=bind(CountingExponentialHazard),
        weibull=bind(CountingWeibullHazard),
    )


def traced_engine_class(tracer: Tracer) -> type:
    class TracedEngine(LikelihoodEngine):
        def __init__(self, *args, **kwargs):
            with tracer.span("likelihood.engine_build"):
                super().__init__(*args, **kwargs)

        def posterior_logdensity(self, params, b):
            b = np.asarray(b)
            tracer.add("likelihood.logdensity_calls")
            tracer.add("likelihood.logdensity_rows", b.size // b.shape[-1])
            with tracer.span("likelihood.logdensity"):
                return super().posterior_logdensity(params, b)

        def grad_theta(self, *args, **kwargs):
            tracer.add("likelihood.grad_calls")
            with tracer.span("likelihood.grad"):
                return super().grad_theta(*args, **kwargs)

        def individual_scores(self, *args, **kwargs):
            tracer.add("likelihood.scores_calls")
            with tracer.span("likelihood.scores"):
                return super().individual_scores(*args, **kwargs)

    return TracedEngine


@contextmanager
def instrumented(tracer: Tracer):
    """Swap the program's by-name entry points for traced wrappers, and
    restore them on exit."""
    mh_step = sampler.mh_step
    step = simulate.step_transitions
    invert = simulate.invert_cumulative_hazard
    condition = predict.posterior_condition
    self_check = design_mod.run_self_check

    def traced_mh_step(chains, log_density):
        with tracer.span("sampler.mh_step"):
            accepted = mh_step(chains, log_density)
        tracer.add("sampler.sweeps")
        tracer.add("sampler.proposals", accepted.size)
        tracer.add("sampler.accepted", int(accepted.sum()))
        return accepted

    def traced_step(design, params, x, psi, cur_t, cur_s, lower, cap, rngs, active, successors, **kw):
        tracer.add("simulate.step_calls")
        tracer.add("simulate.step_rows", int(np.count_nonzero(active)))
        with tracer.span("simulate.step"):
            return step(design, params, x, psi, cur_t, cur_s, lower, cap, rngs, active, successors, **kw)

    def traced_invert(intensity_fn, lower, cap, thresholds, **kw):
        tracer.add("simulate.invert_calls")
        tracer.add("simulate.invert_rows", np.size(lower))
        tracer.invert_depth += 1
        try:
            with tracer.span("simulate.invert"):
                return invert(intensity_fn, lower, cap, thresholds, **kw)
        finally:
            tracer.invert_depth -= 1

    def traced_condition(*args, **kwargs):
        with tracer.span("predict.condition"):
            return condition(*args, **kwargs)

    def traced_self_check(design):
        with tracer.span("design.self_check", force=True):
            return self_check(design)

    patches = [
        (sampler, "mh_step", traced_mh_step),
        (simulate, "step_transitions", traced_step),
        (predict, "step_transitions", traced_step),
        (simulate, "invert_cumulative_hazard", traced_invert),
        (predict, "posterior_condition", traced_condition),
        (predict, "LikelihoodEngine", traced_engine_class(tracer)),
        (design_mod, "run_self_check", traced_self_check),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    for mod, name, fn in patches:
        setattr(mod, name, fn)
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def layer_metrics(tracer: Tracer, setups: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run: name -> (value, unit)."""
    tot = tracer.totals()
    c = tracer.counts

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    proposals = c["sampler.proposals"]
    inverted = c["simulate.invert_rows"]
    return {
        "likelihood.grad_calls": (c["likelihood.grad_calls"], "count"),
        "likelihood.grad_s": (incl("likelihood.grad"), "s"),
        "likelihood.scores_calls": (c["likelihood.scores_calls"], "count"),
        "likelihood.scores_s": (incl("likelihood.scores"), "s"),
        "likelihood.logdensity_calls": (c["likelihood.logdensity_calls"], "count"),
        "likelihood.logdensity_rows": (c["likelihood.logdensity_rows"], "count"),
        "likelihood.logdensity_s": (incl("likelihood.logdensity"), "s"),
        "likelihood.engine_build_s": (incl("likelihood.engine_build"), "s"),
        "sampler.sweeps": (c["sampler.sweeps"], "count"),
        "sampler.proposals": (proposals, "count"),
        "sampler.accept_rate": (c["sampler.accepted"] / proposals if proposals else 0.0, "ratio"),
        "sampler.self_s": (own("sampler.mh_step"), "s"),
        "inference.iterations": (c["inference.iterations"], "count"),
        "inference.nonfinite_skips": (c["inference.nonfinite_skips"], "count"),
        "inference.self_s": (own("inference.fit"), "s"),
        "simulate.step_calls": (c["simulate.step_calls"], "count"),
        "simulate.step_rows": (c["simulate.step_rows"], "count"),
        "simulate.step_s": (incl("simulate.step"), "s"),
        "simulate.invert_calls": (c["simulate.invert_calls"], "count"),
        "simulate.invert_rows": (inverted, "count"),
        "simulate.invert_s": (incl("simulate.invert"), "s"),
        "simulate.passes_per_row": (c["simulate.quadrature_rows"] / inverted if inverted else 0.0, "count"),
        "families.link_value_calls": (c["families.link_value_calls"], "count"),
        "families.link_value_elems": (c["families.link_value_elems"], "count"),
        "families.link_value_s": (incl("families.link_value"), "s"),
        "families.link_jac_calls": (c["families.link_jac_calls"], "count"),
        "families.link_jac_elems": (c["families.link_jac_elems"], "count"),
        "families.link_jac_s": (incl("families.link_jac"), "s"),
        "families.regression_value_elems": (c["families.regression_value_elems"], "count"),
        "families.regression_jac_elems": (c["families.regression_jac_elems"], "count"),
        "hazards.log_hazard_elems": (c["hazards.log_hazard_elems"], "count"),
        "design.self_check_s": (incl("design.self_check") / setups, "s"),
        "predict.condition_s": (incl("predict.condition"), "s"),
        "predict.grid_s": (own("predict.grid"), "s"),
        "predict.draws": (c["predict.draws"], "count"),
        "io.write_s": (incl("io.write"), "s"),
        "io.read_s": (incl("io.read"), "s"),
        "io.bytes": (c["io.bytes"], "bytes"),
    }
