"""In-memory cohort data model: covariates, longitudinal measurements,
trajectories and censoring."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .graph import TransitionGraph

TimeStatePair = tuple[float, int]


def state_occupied_at(pairs, t: float) -> int:
    """State held at time t along time-ordered (time, state) pairs: the state
    of the last pair at or before t (the first state when t precedes them)."""
    state = pairs[0][1]
    for time, s in pairs:
        if time <= t:
            state = s
    return state


def first_unordered(pairs) -> int | None:
    """Index of the first (time, state) pair whose time is NaN or not above
    the one before, or None when the times strictly increase (the rule
    :class:`Trajectory` keeps)."""
    if pairs[0][0] != pairs[0][0]:
        return 0
    for k in range(1, len(pairs)):
        if not pairs[k - 1][0] < pairs[k][0]:
            return k
    return None


@dataclass(frozen=True)
class Trajectory:
    """Observed portion of a multi-state path: ordered (time, state) pairs.

    The first pair is the observed initial pair; times strictly increase.
    Times may be negative. Edge-membership of consecutive pairs is checked
    against a graph at model binding, not here.
    """

    pairs: tuple[TimeStatePair, ...]

    def __post_init__(self):
        if len(self.pairs) == 0:
            raise ValueError("a trajectory needs at least the initial (time, state) pair")
        pairs = tuple((float(t), int(s)) for t, s in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if first_unordered(pairs) is not None:
            raise ValueError("trajectory times must be strictly increasing (NaN is not)")

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.pairs])

    @property
    def last_time(self) -> float:
        return self.pairs[-1][0]

    def __len__(self) -> int:
        return len(self.pairs)

    def state_at(self, t: float) -> int:
        """State occupied at time ``t`` (the initial state for t < T_0)."""
        return state_occupied_at(self.pairs, t)

    def truncated(self, t: float) -> "Trajectory":
        """Prefix of pairs with transition time <= t."""
        kept = tuple(p for p in self.pairs if p[0] <= t)
        if not kept:
            raise ValueError(f"truncation time {t} precedes the initial time {self.pairs[0][0]}")
        return Trajectory(kept)


@dataclass(frozen=True)
class IndividualRecord:
    """One individual's covariates, longitudinal data, trajectory and censoring.

    ``measurements`` is an (n_i, d) array; a row is either fully observed or
    fully missing (all-NaN). Rows with measurement time beyond the censoring
    time must be missing. ``censoring_time`` may be +inf.
    """

    covariates: np.ndarray
    measurement_times: np.ndarray
    measurements: np.ndarray
    trajectory: Trajectory
    censoring_time: float = np.inf

    def __post_init__(self):
        object.__setattr__(self, "covariates", np.atleast_1d(np.asarray(self.covariates, dtype=float)))
        object.__setattr__(self, "measurement_times", np.asarray(self.measurement_times, dtype=float))
        y = np.asarray(self.measurements, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        object.__setattr__(self, "measurements", y)
        object.__setattr__(self, "censoring_time", float(self.censoring_time))
        if self.measurement_times.ndim != 1:
            raise ValueError("measurement_times must be a vector")
        if y.shape[0] != self.measurement_times.shape[0]:
            raise ValueError("one measurement row per measurement time is required")

    @property
    def n_measurements(self) -> int:
        return int(self.measurement_times.shape[0])

    @property
    def missing_rows(self) -> np.ndarray:
        return np.all(np.isnan(self.measurements), axis=1) if self.measurements.size else np.ones(self.n_measurements, dtype=bool)

    @property
    def observed_rows(self) -> np.ndarray:
        if self.measurements.shape[1] == 0:
            return np.zeros(self.n_measurements, dtype=bool)
        return ~np.any(np.isnan(self.measurements), axis=1)

    def truncated(self, t: float) -> "IndividualRecord":
        """Data observed up to time t: measurements at times <= t, trajectory
        pairs with transition time <= t, censoring at min(t, C). Nothing is
        observed past the censoring time C, so truncating after C gives the
        same record as truncating at C."""
        t = min(t, self.censoring_time)
        keep = self.measurement_times <= t
        return IndividualRecord(
            covariates=self.covariates,
            measurement_times=self.measurement_times[keep],
            measurements=self.measurements[keep],
            trajectory=self.trajectory.truncated(t),
            censoring_time=t,
        )


@dataclass(frozen=True)
class Cohort:
    """A list of individuals sharing covariate dimension k and biomarker
    dimension d."""

    individuals: tuple[IndividualRecord, ...]
    n_covariates: int = field(default=-1)
    n_biomarkers: int = field(default=-1)

    def __post_init__(self):
        object.__setattr__(self, "individuals", tuple(self.individuals))
        if self.individuals:
            k = self.individuals[0].covariates.shape[0]
            d = self.individuals[0].measurements.shape[1]
        else:
            k = max(self.n_covariates, 0)
            d = max(self.n_biomarkers, 0)
        if self.n_covariates < 0:
            object.__setattr__(self, "n_covariates", k)
        if self.n_biomarkers < 0:
            object.__setattr__(self, "n_biomarkers", d)
        for i, rec in enumerate(self.individuals):
            if rec.covariates.shape[0] != self.n_covariates:
                raise ValueError(f"individual {i}: covariate dimension mismatch")
            if rec.measurements.shape[1] != self.n_biomarkers and rec.n_measurements > 0:
                raise ValueError(f"individual {i}: biomarker dimension mismatch")

    def __len__(self) -> int:
        return len(self.individuals)

    def __iter__(self):
        return iter(self.individuals)

    def __getitem__(self, i: int) -> IndividualRecord:
        return self.individuals[i]

    def trajectories(self) -> list[tuple[TimeStatePair, ...]]:
        return [rec.trajectory.pairs for rec in self.individuals]

    def censoring_times(self) -> list[float]:
        return [rec.censoring_time for rec in self.individuals]


def validate_cohort(cohort: Cohort, graph: TransitionGraph) -> list[str]:
    """Collect violations of the data contract; empty list means valid.

    Checks per individual: trajectory states in range and consecutive pairs on
    graph edges, a censoring time that is not NaN, last transition not after
    censoring, infinite censoring only in an absorbing last state (else the
    survival term is not finite), finite covariates and measurement times,
    measurement rows either fully observed or fully missing (NaN marks a
    missing value) with no infinite value, and rows beyond censoring marked
    missing.
    """
    violations: list[str] = []
    for i, rec in enumerate(cohort):
        traj = rec.trajectory
        for _, s in traj.pairs:
            if not 0 <= s < graph.num_states:
                violations.append(f"individual {i}: state out of range ({s})")
        for (t0, s0), (t1, s1) in zip(traj.pairs, traj.pairs[1:]):
            if 0 <= s0 < graph.num_states and 0 <= s1 < graph.num_states:
                if (s0, s1) not in graph.edges:
                    violations.append(
                        f"individual {i}: transition ({s0}, {s1}) is not a graph edge"
                    )
        if np.isnan(rec.censoring_time):
            violations.append(f"individual {i}: censoring time is NaN")
        if traj.last_time > rec.censoring_time:
            violations.append(
                f"individual {i}: transition after censoring "
                f"({traj.last_time} > {rec.censoring_time})"
            )
        s_last = traj.pairs[-1][1]
        if rec.censoring_time == np.inf and 0 <= s_last < graph.num_states and graph.successors(s_last):
            violations.append(f"individual {i}: infinite censoring with non-absorbing last state")
        for k in np.nonzero(~np.isfinite(rec.covariates))[0]:
            violations.append(f"individual {i}: covariate {k} is not finite ({rec.covariates[k]})")
        for j in np.nonzero(~np.isfinite(rec.measurement_times))[0]:
            violations.append(
                f"individual {i}: measurement row {j} has a non-finite time ({rec.measurement_times[j]})"
            )
        y = rec.measurements
        if y.shape[1] > 0:
            nan_count = np.isnan(y).sum(axis=1)
            partial = (nan_count > 0) & (nan_count < y.shape[1])
            for j in np.nonzero(partial)[0]:
                violations.append(f"individual {i}: measurement row {j} is partially missing")
            for j in np.nonzero(np.isinf(y).sum(axis=1))[0]:
                violations.append(f"individual {i}: measurement row {j} has an infinite value")
            late = (rec.measurement_times > rec.censoring_time) & (nan_count < y.shape[1])
            for j in np.nonzero(late)[0]:
                violations.append(
                    f"individual {i}: measurement row {j} beyond censoring is not marked missing"
                )
    return violations
