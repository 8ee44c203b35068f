"""Directed transition graphs and counts of observed transitions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .dataset import first_unordered

Edge = tuple[int, int]


@dataclass(frozen=True)
class TransitionGraph:
    """Directed graph of permitted state transitions.

    States are dense integer indices ``0..num_states-1``; labels are
    display-only. Immutable after construction, safe for concurrent reads.
    """

    num_states: int
    edges: frozenset[Edge]
    labels: tuple[str, ...] | None = None
    _succ: tuple[tuple[int, ...], ...] = field(repr=False, compare=False, default=())

    def successors(self, state: int) -> tuple[int, ...]:
        """Successor states of ``state``, sorted ascending."""
        self._check_state(state)
        return self._succ[state]

    def is_absorbing(self, state: int) -> bool:
        """True iff ``state`` has no outgoing edges."""
        self._check_state(state)
        return len(self._succ[state]) == 0

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.num_states:
            raise ValueError(f"state {state} out of range [0, {self.num_states})")


def build_graph(
    num_states: int,
    edges: Sequence[Edge],
    labels: Sequence[str] | None = None,
) -> TransitionGraph:
    """Validate states/edges and build a graph with O(1) successor lookup.

    Raises ValueError naming the offending edge on duplicates, self-loops or
    out-of-range endpoints.
    """
    if num_states < 1:
        raise ValueError("num_states must be a positive integer")
    seen: set[Edge] = set()
    for e in edges:
        k, kp = int(e[0]), int(e[1])
        if not (0 <= k < num_states and 0 <= kp < num_states):
            raise ValueError(f"edge ({k}, {kp}) references a state outside [0, {num_states})")
        if k == kp:
            raise ValueError(f"edge ({k}, {kp}) is a self-loop")
        if (k, kp) in seen:
            raise ValueError(f"edge ({k}, {kp}) is duplicated")
        seen.add((k, kp))
    if labels is not None and len(labels) != num_states:
        raise ValueError("labels must have one entry per state")
    succ: list[list[int]] = [[] for _ in range(num_states)]
    for k, kp in seen:
        succ[k].append(kp)
    return TransitionGraph(
        num_states=num_states,
        edges=frozenset(seen),
        labels=tuple(labels) if labels is not None else None,
        _succ=tuple(tuple(sorted(s)) for s in succ),
    )


def reaches(graph: TransitionGraph, from_states: set[int], to_states: set[int]) -> bool:
    """True iff a directed path of length >= 0 joins the two sets.

    Every state reaches itself (zero-length path).
    """
    if not from_states or not to_states:
        raise ValueError("state sets must be non-empty")
    for s in from_states | to_states:
        graph._check_state(s)
    if from_states & to_states:
        return True
    frontier = list(from_states)
    visited = set(from_states)
    while frontier:
        state = frontier.pop()
        for nxt in graph.successors(state):
            if nxt in to_states:
                return True
            if nxt not in visited:
                visited.add(nxt)
                frontier.append(nxt)
    return False


@dataclass(frozen=True)
class TransitionBuckets:
    """Number of observed transitions along each edge of a graph."""

    by_edge: dict[Edge, int]

    def counts(self) -> dict[Edge, int]:
        return dict(self.by_edge)


def build_buckets(
    graph: TransitionGraph,
    trajectories: Sequence[Sequence[tuple[float, int]]],
    censoring_times: Sequence[float],
) -> TransitionBuckets:
    """Count every observed consecutive transition under its edge.

    Each consecutive pair ((T_l, S_l), (T_{l+1}, S_{l+1})) of trajectory i is
    counted under edge (S_l, S_{l+1}). Times must keep the
    :class:`~msjoint.dataset.Trajectory` rule: strictly increasing, no NaN.
    """
    if len(trajectories) != len(censoring_times):
        raise ValueError("one censoring time per trajectory is required")
    by_edge = dict.fromkeys(graph.sorted_edges(), 0)
    for i, traj in enumerate(trajectories):
        if len(traj) == 0:
            raise ValueError(f"trajectory of individual {i} is empty")
        if first_unordered(traj) is not None:
            raise ValueError(f"trajectory of individual {i} has non-increasing or NaN times")
        for (_, s0), (_, s1) in zip(traj, traj[1:]):
            edge = (int(s0), int(s1))
            if edge not in by_edge:
                raise ValueError(
                    f"individual {i}: transition {edge} is not an edge of the graph"
                )
            by_edge[edge] += 1
    return TransitionBuckets(by_edge)
