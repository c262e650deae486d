"""The paper's sorted-edge Bellman-Ford backend (section 6.4.2).

Relaxes the full constraint list pass after pass until a fixpoint.
Bamji: the algorithm "proved to be extremely fast, especially if the
edges are traversed in sorted (according to their abscissa) order" —
when the drawn edge ordering survives compaction, exactly one productive
pass suffices and a second pass confirms the fixpoint.  More than
``|V| + 1`` passes means a positive cycle: the system is infeasible.

This is the reference backend: every other backend must reproduce its
solutions exactly.

The relaxation runs over the system's integer columns: the source,
target and weight lists, stably sorted (one numpy ``argsort``) on the
source variable's drawn abscissa, with the values in a list indexed by
variable — no per-edge objects and no dict traffic in the loop.  The
order contract is the object loop's: the same stable sort key, the same
pass and relaxation counts, the same ``|V| + 1`` pass bound.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..constraints import ConstraintSystem, Variable
from .base import (
    SolveStats,
    positive_cycle_error,
    register_solver,
    resolve_weights,
    seed_values,
)

__all__ = ["BellmanFordSolver"]


class BellmanFordSolver:
    """Pass-based relaxation over the (optionally sorted) edge list."""

    name = "bellman-ford"

    def solve(
        self,
        system: ConstraintSystem,
        sort_edges: bool = True,
        lower_bound: int = 0,
        pitches: Optional[Dict[str, int]] = None,
        hint: Optional[Dict[Variable, int]] = None,
    ) -> SolveStats:
        """Least solution by repeated relaxation passes."""
        weights = resolve_weights(system, pitches)
        sources, targets, ordered = system.sources, system.targets, weights
        if sort_edges and sources:
            sources = np.array(sources, dtype=np.int64)
            order = np.argsort(
                np.array(system.initial, dtype=np.int64)[sources], kind="stable"
            )
            sources = sources[order].tolist()
            targets = np.array(targets, dtype=np.int64)[order].tolist()
            ordered = np.array(weights, dtype=np.int64)[order].tolist()

        seed = seed_values(system, lower_bound, hint)
        x = list(seed)
        limit = len(system.variables) + 1
        passes = 0
        relaxations = 0
        while True:
            passes += 1
            before = relaxations
            for source, target, weight in zip(sources, targets, ordered):
                candidate = x[source] + weight
                if candidate > x[target]:
                    x[target] = candidate
                    relaxations += 1
            if relaxations == before:
                break
            if passes > limit:
                raise positive_cycle_error(system, weights, seed)
        return SolveStats(
            passes=passes,
            relaxations=relaxations,
            sorted_edges=sort_edges,
            solution=dict(zip(system.variables, x)),
            backend=self.name,
            lower_bound=lower_bound,
        )


register_solver(BellmanFordSolver.name, BellmanFordSolver)
