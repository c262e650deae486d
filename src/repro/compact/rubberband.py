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

from collections.abc import Sequence as SequenceABC
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import InfeasibleConstraintsError
from ..geometry import batch
from .constraints import ConstraintSystem, Variable
from .scanline import CompactionBox, CompactionBoxes

__all__ = ["AlignmentPairs", "alignment_pairs", "rubber_band_solve"]


class AlignmentPairs(SequenceABC):
    """Drawn-connected box pairs as two index columns.

    ``first[k] < second[k]`` index the :class:`CompactionBoxes` table
    ``boxes``; the pairs are ordered by ``(first, second)``.  As a
    sequence it yields ``(boxes[i], boxes[j])`` object tuples, built
    once on first access; ``len`` is the pair count and :meth:`jog`
    sums the misalignment on the columns.
    """

    def __init__(self, boxes: CompactionBoxes, first, second) -> None:
        self.boxes = boxes
        self.first = first
        self.second = second
        self._pairs: Optional[List[Tuple[CompactionBox, CompactionBox]]] = None

    def _objects(self) -> List[Tuple[CompactionBox, CompactionBox]]:
        if self._pairs is None:
            boxes = self.boxes
            self._pairs = [
                (boxes[i], boxes[j])
                for i, j in zip(self.first.tolist(), self.second.tolist())
            ]
        return self._pairs

    def jog(self, values) -> int:
        """Total centre-to-centre misalignment over the pairs.

        ``values`` is the solution as an array indexed like the
        system's variables.  Doubled centres keep the sum on the integer
        grid; it is zero for a jog-free solution of aligned pairs.
        """
        table = self.boxes
        centre = values[table.left] + values[table.right]
        drawn = table.arrays.xmin + table.arrays.xmax
        first, second = self.first, self.second
        offsets = (centre[first] - centre[second]) - (drawn[first] - drawn[second])
        return int(np.abs(offsets).sum())

    def __len__(self) -> int:
        return int(self.first.size)

    def __getitem__(self, index):
        return self._objects()[index]

    def __iter__(self):
        return iter(self._objects())


def alignment_pairs(boxes: CompactionBoxes) -> AlignmentPairs:
    """Pairs of drawn-connected boxes whose centres want to align.

    Every pair of same-layer boxes whose closed rectangles overlap
    (edge and corner contact included), as ``(boxes[i], boxes[j])``
    with ``i < j``, ordered by ``(i, j)``.  The pairs come from the
    sorted-window join :func:`repro.geometry.batch.box_overlap_pairs`
    over the table's columns, so the cost is ``O(n log n)`` plus the
    same-layer x-overlapping candidates rather than all ``n²/2`` pairs;
    the pairs stay index columns until a caller asks for objects.
    """
    first, second = batch.box_overlap_pairs(boxes.arrays, boxes.codes)
    return AlignmentPairs(boxes, first, second)


def rubber_band_solve(
    system: ConstraintSystem,
    boxes: CompactionBoxes,
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
    for source, target, weight in zip(system.sources, system.targets, system.weights):
        row = np.zeros(num_vars)
        row[source] = 1.0
        row[target] = -1.0
        rows.append(row)
        rhs.append(-float(weight))
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
