"""Wirelength-minimising refinement pass (the Figure 6.8 fix).

Bellman-Ford "consists of pushing all the objects in a layout as much to
the left as they can go", which develops jogs: connected boxes that were
aligned drift apart up to the slack of the longest path.  The paper asks
for "an algorithm that tries to bring all objects close together as if
they were all connected by rubber bands".

We implement that second pass as a linear program: keep the bounding box
achieved by the first pass, re-solve positions minimising the total
misalignment of connected boxes (centre-to-centre |displacement| terms,
linearised with auxiliary variables).  The difference-constraint matrix
is totally unimodular, so the LP optimum is integral.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import InfeasibleConstraintsError
from ..geometry import batch
from .constraints import ConstraintSystem, Variable
from .scanline import CompactionBox

__all__ = ["alignment_pairs", "rubber_band_solve", "misalignment"]


def alignment_pairs(
    boxes: Sequence[CompactionBox],
) -> List[Tuple[CompactionBox, CompactionBox]]:
    """Pairs of drawn-connected boxes whose centres want to align.

    Every pair of same-layer boxes whose closed rectangles overlap
    (edge and corner contact included), as ``(boxes[i], boxes[j])``
    with ``i < j``, ordered by ``(i, j)``.  The pairs come from the
    sorted-window join :func:`repro.geometry.batch.box_overlap_pairs`,
    so the cost is ``O(n log n)`` plus the same-layer x-overlapping
    candidates rather than all ``n²/2`` pairs.
    """
    codes: Dict[str, int] = {}
    layers = np.fromiter(
        (codes.setdefault(item.layer, len(codes)) for item in boxes),
        dtype=np.int64,
        count=len(boxes),
    )
    first, second = batch.box_overlap_pairs(
        batch.boxes_to_arrays([item.box for item in boxes]), layers
    )
    return [
        (boxes[i], boxes[j]) for i, j in zip(first.tolist(), second.tolist())
    ]


def misalignment(
    pairs: Sequence[Tuple[CompactionBox, CompactionBox]],
    solution: Dict[Variable, int],
) -> int:
    """Total centre-to-centre x misalignment over connected pairs.

    Uses doubled centres to stay on the integer grid.  Zero for a
    perfectly jog-free solution of aligned pairs.
    """
    total = 0
    for a, b in pairs:
        center_a = solution[a.left] + solution[a.right]
        center_b = solution[b.left] + solution[b.right]
        drawn_a = a.box.xmin + a.box.xmax
        drawn_b = b.box.xmin + b.box.xmax
        total += abs((center_a - center_b) - (drawn_a - drawn_b))
    return total


def rubber_band_solve(
    system: ConstraintSystem,
    boxes: Sequence[CompactionBox],
    max_width: int,
    pairs: Optional[Sequence[Tuple[CompactionBox, CompactionBox]]] = None,
    solver: Optional[str] = None,
) -> Dict[Variable, int]:
    """Minimise connected-pair misalignment within ``max_width``.

    Subject to every constraint in ``system`` plus ``0 <= x <= max_width``
    for all variables.  Preserves the bounding box of the greedy solve
    while removing the jogs it introduced.  ``solver`` names the
    longest-path backend used to repair integer rounding: when the
    rounded LP optimum violates a constraint, the backend re-relaxes
    from the rounded point (hint-seeded solve) and the repair is kept if
    it stays inside ``max_width``.
    """
    if system.has_pitch_terms():
        raise InfeasibleConstraintsError(
            "rubber-band pass does not handle symbolic pitches"
        )
    if pairs is None:
        pairs = alignment_pairs(boxes)
    # Deferred: scipy costs most of the package import time, and only
    # this pass and the leaf-cell LP need it.
    from scipy.optimize import linprog

    index = {name: i for i, name in enumerate(system.variables)}
    num_x = len(system.variables)
    num_t = len(pairs)
    num_vars = num_x + num_t

    rows: List[np.ndarray] = []
    rhs: List[float] = []
    # Difference constraints: x[s] - x[t] <= -w.
    for constraint in system.constraints:
        row = np.zeros(num_vars)
        row[index[constraint.source]] = 1.0
        row[index[constraint.target]] = -1.0
        rows.append(row)
        rhs.append(-float(constraint.weight))
    # |d_k - drawn_k| <= t_k where d_k = (l_a + r_a) - (l_b + r_b).
    for k, (a, b) in enumerate(pairs):
        drawn = float((a.box.xmin + a.box.xmax) - (b.box.xmin + b.box.xmax))
        for sign in (1.0, -1.0):
            row = np.zeros(num_vars)
            row[index[a.left]] = sign
            row[index[a.right]] = sign
            row[index[b.left]] = -sign
            row[index[b.right]] = -sign
            row[num_x + k] = -1.0
            rows.append(row)
            rhs.append(sign * drawn)

    cost = np.zeros(num_vars)
    cost[num_x:] = 1.0
    # Mild leftward pressure keeps the solution canonical when several
    # jog-free placements exist.
    cost[:num_x] = 1e-6

    bounds = [(0.0, float(max_width))] * num_x + [(0.0, None)] * num_t
    result = linprog(
        cost,
        A_ub=np.array(rows) if rows else None,
        b_ub=np.array(rhs) if rhs else None,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise InfeasibleConstraintsError(f"rubber-band LP failed: {result.message}")
    solution = {
        name: int(round(result.x[index[name]])) for name in system.variables
    }
    violated = system.check(solution)
    if violated:
        # Repair: least feasible point at or above the rounded one.
        from .solvers import get_solver  # deferred: solvers import siblings

        repaired = get_solver(solver).solve(system, hint=solution).solution
        if max(repaired.values(), default=0) > max_width:
            raise InfeasibleConstraintsError(
                f"rubber-band rounding violated {len(violated)} constraint(s)"
                " and the repair exceeded the width limit"
            )
        return repaired
    return solution
