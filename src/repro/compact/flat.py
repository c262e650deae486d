"""Flat (classical) one-dimensional compaction driver.

The experimental compactor of section 6.4: flatten a cell, generate
constraints with a scan method, solve by Bellman-Ford (optionally with
the rubber-band refinement), and rebuild the geometry.  Supports both
axes by transposing coordinates for the y pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.cell import CellDefinition
from ..geometry import Box, batch
from ..layout.database import FlatLayout, flatten_cell, merge_boxes
from ..obs import trace as obs_trace
from .constraints import ConstraintSystem
from .drc import Violation, check_layout
from .rubberband import alignment_pairs, rubber_band_solve
from .rules import DesignRules
from .scanline import (
    CompactionBoxes,
    add_width_constraints,
    naive_constraints,
    visibility_constraints,
)
from .solver import SolveStats, solve_longest_path

__all__ = ["CompactionResult", "compact_layout", "compact_cell"]


@dataclass
class CompactionResult:
    """Outcome of a flat compaction run."""

    layers: Dict[str, List[Box]] = field(default_factory=dict)
    width_before: int = 0
    width_after: int = 0
    constraint_count: int = 0
    spacing_constraints: int = 0
    stats: Optional[SolveStats] = None
    jog_before: int = 0
    jog_after: int = 0

    def violations(self, rules: DesignRules) -> List[Violation]:
        """DRC the compacted geometry against ``rules``."""
        return check_layout(self.layers, rules)


def _solution_column(system: ConstraintSystem, solution: Dict[str, int]):
    """The solution as an int64 array indexed like ``system.variables``."""
    np = batch.require_numpy()
    return np.fromiter(
        map(solution.__getitem__, system.variables), np.int64, len(system.variables)
    )


def compact_layout(
    layout: FlatLayout,
    rules: DesignRules,
    method: str = "visibility",
    width_mode: str = "preserve",
    rubber_band: bool = False,
    axis: str = "x",
    merge: bool = False,
    sizing: Optional[Dict[Tuple[str, str], int]] = None,
    sort_edges: bool = True,
    solver: Optional[str] = None,
    cache=None,
) -> CompactionResult:
    """Compact a flat layout along one axis.

    ``method`` is ``"visibility"`` (Figure 6.7), ``"naive"`` (band scan),
    ``"naive-indiscriminate"`` (Figure 6.5 overconstraint) or
    ``"naive-skip-hidden"`` (Figure 6.6 bug).  ``merge`` pre-merges boxes
    per layer (section 6.4.1's preprocessing — incompatible with tag-based
    ``sizing``, which is rejected).  ``solver`` names the longest-path
    backend (see :mod:`repro.compact.solvers`); with ``width_mode="min"``
    the constraint graph is acyclic and ``"topological"`` solves it in a
    single O(V+E) sweep.  ``cache`` (a
    :class:`~repro.compact.cache.CompactionCache`) memoizes the whole
    run under a content hash of the input geometry, the rule tables and
    every option listed above; ``cache=None`` is the uncached oracle.
    """
    if merge and sizing:
        raise ValueError(
            "box merging loses the cell tags that device sizing needs"
            " (section 6.4.1); choose one"
        )
    key = None
    if cache is not None:
        from .cache import cache_key, fingerprint_layout, fingerprint_rules

        key = cache_key(
            "flat",
            fingerprint_layout(layout),
            fingerprint_rules(rules),
            method,
            width_mode,
            rubber_band,
            axis,
            merge,
            sorted(sizing.items()) if sizing else None,
            sort_edges,
            solver or "",
        )
        cached = cache.get(key)
        if cached is not None:
            return cached
    np = batch.require_numpy()
    # Decode once: the flat boxes become coordinate columns, the y pass
    # swaps the columns instead of transposing boxes, and the result is
    # decoded back from the solved columns.
    names = sorted(name for name, boxes in layout.layers.items() if boxes)
    drawn = [layout.layers[name] for name in names]
    source = batch.boxes_to_arrays([box for boxes in drawn for box in boxes])
    if merge:
        drawn = [merge_boxes(boxes) for boxes in drawn]
        arrays = batch.boxes_to_arrays([box for boxes in drawn for box in boxes])
    else:
        arrays = source
    if axis == "y":
        arrays = batch.BoxArray(arrays.ymin, arrays.xmin, arrays.ymax, arrays.xmax)
        source = batch.BoxArray(source.ymin, source.xmin, source.ymax, source.xmax)
    layers: List[str] = []
    for name, boxes in zip(names, drawn):
        layers += [name] * len(boxes)

    system = ConstraintSystem()
    with obs_trace.span("compact.constraints", axis=axis) as constraints_span:
        boxes = CompactionBoxes.declare(system, layers, arrays, transposed=axis == "y")
        width_rows = add_width_constraints(
            system, boxes, rules, mode=width_mode, sizing=sizing
        )
        if method == "visibility":
            spacing_count = visibility_constraints(system, boxes, rules)
        elif method == "naive":
            spacing_count = naive_constraints(system, boxes, rules)
        elif method == "naive-indiscriminate":
            spacing_count = naive_constraints(system, boxes, rules, merge_aware=False)
        elif method == "naive-skip-hidden":
            spacing_count = naive_constraints(system, boxes, rules, skip_hidden=True)
        else:
            raise ValueError(f"unknown constraint method {method!r}")
        constraints_span.set(
            variables=len(system.variables),
            width=width_rows,
            connect=len(system) - width_rows - spacing_count,
            spacing=spacing_count,
        )

    with obs_trace.span("solver.solve", axis=axis) as solve_span:
        stats = solve_longest_path(system, sort_edges=sort_edges, solver=solver)
        solve_span.set(**stats.to_dict())
    with obs_trace.span("compact.alignment", axis=axis) as alignment_span:
        align = alignment_pairs(boxes)
        alignment_span.set(pairs=len(align))
    solution = stats.solution
    values = _solution_column(system, solution)
    result = CompactionResult(
        stats=stats, constraint_count=len(system), spacing_constraints=spacing_count
    )
    result.jog_before = align.jog(values)
    if rubber_band and len(align):
        width_limit = max(solution.values()) if solution else 0
        solution = rubber_band_solve(
            system, boxes, width_limit, align, solver=solver
        )
        values = _solution_column(system, solution)
        result.jog_after = align.jog(values)
    else:
        result.jog_after = result.jog_before

    with obs_trace.span("compact.rebuild", axis=axis) as rebuild_span:
        left, right = values[boxes.left], values[boxes.right]
        low, high = np.minimum(left, right), np.maximum(left, right)
        if axis == "y":
            columns = (arrays.ymin, low, arrays.ymax, high)
        else:
            columns = (low, arrays.ymin, high, arrays.ymax)
        rebuilt = batch.boxes_from_arrays(*columns)
        start = 0
        for name, boxes_of_layer in zip(names, drawn):
            if boxes_of_layer:
                result.layers[name] = rebuilt[start:start + len(boxes_of_layer)]
                start += len(boxes_of_layer)
        rebuild_span.set(boxes=len(rebuilt))

    if len(source):
        result.width_before = int(source.xmax.max() - source.xmin.min())
    if rebuilt:
        result.width_after = int(high.max() - low.min())
    if cache is not None and key is not None:
        cache.put(key, result)
    return result


def compact_layout_xy(
    layout: FlatLayout,
    rules: DesignRules,
    order: str = "xy",
    **options,
) -> Tuple[CompactionResult, CompactionResult]:
    """Two one-dimensional passes (the classical x-then-y compactor).

    Section 6.1 notes that one-dimensional compaction "tries to greedily
    optimize one dimension at a time and misses out on the optimizations
    that require a more careful analysis of the interaction between the
    two dimensions" — this driver is that greedy baseline, and the pass
    order matters (try ``order="yx"``).  Returns the two pass results;
    the second result's ``layers`` is the final geometry.
    """
    if sorted(order) != ["x", "y"]:
        raise ValueError("order must be 'xy' or 'yx'")
    first = compact_layout(layout, rules, axis=order[0], **options)
    intermediate = FlatLayout(layout.name + "_pass1")
    for layer, boxes in first.layers.items():
        for box in boxes:
            intermediate.add(layer, box)
    second = compact_layout(intermediate, rules, axis=order[1], **options)
    return first, second


def compact_cell(
    cell: CellDefinition,
    rules: DesignRules,
    name: Optional[str] = None,
    **options,
) -> Tuple[CellDefinition, CompactionResult]:
    """Flatten ``cell``, compact it, and return a new flat cell."""
    layout = flatten_cell(cell)
    result = compact_layout(layout, rules, **options)
    compacted = CellDefinition(name or f"{cell.name}_compacted")
    for layer, boxes in sorted(result.layers.items()):
        compacted.add_boxes(layer, boxes)
    return compacted, result
