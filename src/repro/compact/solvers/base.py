"""Solver-backend contract, diagnostics, and registry.

A *solver backend* computes the least solution of a difference-constraint
system ``x[t] - x[s] >= w`` with every variable at least ``lower_bound``
— the longest-path problem of section 6.4.2.  Backends are
interchangeable through :class:`SolverBackend` and are looked up by name
in a process-wide registry, so callers (leaf-cell compactor, flat
compactor, rubber-band pass, CLI) select an algorithm without knowing
its implementation:

* ``bellman-ford`` — the paper's sorted-edge relaxation (the baseline);
* ``topological`` — O(V+E) longest path over the condensation of the
  constraint graph (exact on cyclic systems too);
* ``incremental`` — re-solve that reuses a prior solution and relaxes
  only the cone reachable from changed constraints.

The ``hint`` argument has one meaning for every backend: seed the
relaxation at ``max(hint[v], lower_bound)`` instead of ``lower_bound``
and return the least solution *at or above the hint*.  Passing no hint
returns the global least solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ...core.errors import InfeasibleConstraintsError, SolverConfigurationError
from ..constraints import ConstraintSystem, Variable

try:  # pragma: no cover - typing fallback for very old interpreters
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

__all__ = [
    "SolveStats",
    "SolverBackend",
    "resolve_weights",
    "seed_values",
    "positive_cycle_error",
    "register_solver",
    "get_solver",
    "available_solvers",
    "DEFAULT_SOLVER",
]

DEFAULT_SOLVER = "bellman-ford"


@dataclass
class SolveStats:
    """Diagnostics from a solver run.

    ``passes``/``relaxations`` count solver work (a *pass* is one sweep
    over the constraint list for Bellman-Ford; graph-order backends
    report the number of sweep-equivalents they needed).  ``reused`` is
    the number of variables an incremental re-solve kept from the prior
    solution without relaxation.
    """

    passes: int = 0
    relaxations: int = 0
    sorted_edges: bool = False
    solution: Dict[Variable, int] = field(default_factory=dict)
    backend: str = ""
    lower_bound: int = 0
    reused: int = 0

    def width(self) -> int:
        """Extent of the solved placement.

        The left wall of a compaction run is the solver's fixed
        ``lower_bound``, so the width is measured from that wall — not
        from ``min(solution)``, which can sit strictly above the wall
        after a hint-seeded or incremental re-solve (the affected cone
        may lift every variable off the wall).  For a fresh minimal
        solve some variable always rests on ``lower_bound`` and the two
        definitions agree.
        """
        if not self.solution:
            return 0
        low = min(min(self.solution.values()), self.lower_bound)
        return max(self.solution.values()) - low

    def __str__(self) -> str:
        name = self.backend or "solver"
        parts = [
            f"{name}: {len(self.solution)} vars",
            f"width {self.width()}",
            f"{self.passes} pass{'es' if self.passes != 1 else ''}",
            f"{self.relaxations} relaxations",
        ]
        if self.reused:
            parts.append(f"{self.reused} reused")
        return ", ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        """The diagnostics as a JSON-ready dict (no variable solution).

        This is what rides on ``solver.solve`` trace spans and in
        machine-readable reports — counts and shape only; the solution
        mapping stays behind because it is large and non-serialisable
        (its keys are :class:`~repro.compact.constraints.Variable`).
        """
        return {
            "backend": self.backend,
            "passes": self.passes,
            "relaxations": self.relaxations,
            "sorted_edges": self.sorted_edges,
            "variables": len(self.solution),
            "width": self.width(),
            "lower_bound": self.lower_bound,
            "reused": self.reused,
        }


class SolverBackend(Protocol):
    """What the compaction layer requires of a solver implementation."""

    #: registry name, e.g. ``"bellman-ford"``
    name: str

    def solve(
        self,
        system: ConstraintSystem,
        sort_edges: bool = True,
        lower_bound: int = 0,
        pitches: Optional[Dict[str, int]] = None,
        hint: Optional[Dict[Variable, int]] = None,
    ) -> SolveStats:
        """Return the least solution of ``system`` (above ``hint``).

        Raises :class:`InfeasibleConstraintsError` on a positive cycle
        or on a symbolic pitch with no value in ``pitches``.
        """
        ...


def resolve_weights(
    system: ConstraintSystem, pitches: Optional[Dict[str, int]]
) -> List[int]:
    """Effective integer weight of each constraint at fixed pitches.

    A copy of the weight column with ``pitches`` substituted into every
    pitch term, in row order.  Raises :class:`InfeasibleConstraintsError`
    when a pitch variable has no value — symbolic pitches need the
    leaf-cell LP, not a longest-path backend.
    """
    weights = list(system.weights)
    if not system.pitch_terms:
        return weights
    pitches = pitches or {}
    for row, terms in system.pitch_terms.items():
        for pitch, coefficient in terms:
            if pitch not in pitches:
                raise InfeasibleConstraintsError(
                    f"pitch variable {pitch!r} has no value; use the"
                    " leaf-cell LP solver for symbolic pitches"
                )
            weights[row] += coefficient * pitches[pitch]
    return weights


def seed_values(
    system: ConstraintSystem,
    lower_bound: int,
    hint: Optional[Dict[Variable, int]],
) -> List[int]:
    """Initial value per variable index: ``max(hint, lower_bound)``."""
    if not hint:
        return [lower_bound] * len(system.variables)
    return [
        max(hint.get(name, lower_bound), lower_bound)
        for name in system.variables
    ]


#: how many cycle constraints a positive-cycle message spells out
CYCLE_SHOWN = 6


def positive_cycle_error(
    system: ConstraintSystem, weights: List[int], seed: List[int]
) -> InfeasibleConstraintsError:
    """The error for an overconstrained system, naming one positive cycle.

    Failure path only: reruns the relaxation from ``seed`` recording the
    row that last raised each variable.  While that predecessor graph
    is acyclic the values stay bounded, so relaxing a system with a
    positive cycle must close a cycle in it, and every cycle of that
    graph has positive total weight (each row on it was tight when
    recorded, and the values only grew since).  The message
    names the cycle's rows — variables with their labels, kind and
    weight — up to :data:`CYCLE_SHOWN` of them, and the total weight.
    """
    cycle = _find_positive_cycle(system, weights, seed)
    message = "positive cycle: the constraint system is overconstrained"
    if not cycle:
        return InfeasibleConstraintsError(message)
    total = sum(weights[row] for row in cycle)
    parts = [
        f"{system.describe(system.sources[row])} ->"
        f" {system.describe(system.targets[row])}"
        f" ({system.kind_names[system.kinds[row]] or 'constraint'} {weights[row]:+d})"
        for row in cycle[:CYCLE_SHOWN]
    ]
    if len(cycle) > CYCLE_SHOWN:
        parts.append(f"... {len(cycle) - CYCLE_SHOWN} more")
    return InfeasibleConstraintsError(
        f"{message}: {len(cycle)} constraints around a cycle of total"
        f" weight {total:+d}: " + "; ".join(parts),
        cycle=[system.constraint(row) for row in cycle],
    )


def _find_positive_cycle(
    system: ConstraintSystem, weights: List[int], seed: List[int]
) -> List[int]:
    """Rows of one predecessor-graph cycle, in cycle order ([] if none)."""
    n = len(seed)
    sources, targets = system.sources, system.targets
    edges = list(zip(range(len(weights)), sources, targets, weights))
    x = list(seed)
    last_row = [-1] * n
    # Values stay bounded while the predecessor graph is acyclic, and a
    # positive cycle keeps them growing, so a cycle must close; the cap
    # only guards against a caller handing in a feasible system.
    for passes in range(1, 4 * (n + 1) + 1):
        changed = False
        for row, source, target, weight in edges:
            candidate = x[source] + weight
            if candidate > x[target]:
                x[target] = candidate
                last_row[target] = row
                changed = True
        if not changed:
            return []
        if passes > n:
            cycle = _predecessor_cycle(last_row, sources)
            if cycle:
                return cycle
    return []


def _predecessor_cycle(last_row: List[int], sources: List[int]) -> List[int]:
    """A cycle of the graph ``v -> sources[last_row[v]]``, as rows in
    forward (source-to-target) order."""
    state = [0] * len(last_row)  # 0 unseen, 1 on the current walk, 2 done
    for start in range(len(last_row)):
        walk = []
        v = start
        while v >= 0 and state[v] == 0:
            state[v] = 1
            walk.append(v)
            row = last_row[v]
            v = sources[row] if row >= 0 else -1
        if v >= 0 and state[v] == 1:
            members = walk[walk.index(v):]
            return [last_row[u] for u in reversed(members)]
        for u in walk:
            state[u] = 2
    return []


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], "SolverBackend"]] = {}


def register_solver(name: str, factory: Callable[[], "SolverBackend"]) -> None:
    """Register a backend factory under ``name`` (later wins)."""
    _REGISTRY[name] = factory


def get_solver(name: Optional[str] = None) -> "SolverBackend":
    """Instantiate the backend registered under ``name``.

    Each call returns a fresh instance, so stateful backends (the
    incremental re-solver caches the previous run) are private to their
    call site: hold on to the instance to benefit from its cache.
    """
    key = name or DEFAULT_SOLVER
    if key not in _REGISTRY:
        raise SolverConfigurationError(
            f"unknown solver backend {key!r}; available:"
            f" {', '.join(available_solvers())}"
        )
    return _REGISTRY[key]()


def available_solvers() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))
