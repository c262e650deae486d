"""The array-resident flat compaction pass against its object oracle.

:func:`repro.compact.compact_layout` runs one pass on columns: integer
constraint columns, bulk-generated width/connection/spacing blocks, an
index-based Bellman-Ford and a decode-once rebuild.  This file keeps the
object pipeline that pass replaced — :class:`CompactionBox` lists,
:class:`Constraint` objects in a list, the object-loop sorted-edge
Bellman-Ford and a ``Box.union`` fold — as :func:`compact_layout_oracle`,
and requires *identical* observables over randomized layouts (the
5-seed x 5-density x 2-tech matrix of ``test_sweep_equivalence.py``, both
axes, both width modes), generated multipliers and seeded PLAs: the same
constraint rows in the same order, solution, pass and relaxation counts,
layers, widths, jogs and spacing count.  Infeasible inputs must raise on
both sides.
"""

import random
from collections import Counter
from typing import Dict, List, Optional, Tuple

import pytest

from repro.compact import (
    TECH_A,
    TECH_B,
    CompactionBox,
    CompactionResult,
    Constraint,
    compact_layout,
)
from repro.compact import flat as flat_module
from repro.compact.scanline import visibility_constraints_python
from repro.compact.solvers import SolveStats
from repro.core.errors import InfeasibleConstraintsError
from repro.geometry import Box, batch
from repro.layout.database import FlatLayout, flatten_cell, merge_boxes

from test_sweep_equivalence import CASES, random_pairs


# ----------------------------------------------------------------------
# The object pipeline (the oracle)
# ----------------------------------------------------------------------
class ObjectSystem:
    """Constraints as a list of :class:`Constraint` objects."""

    def __init__(self) -> None:
        self.variables: List[str] = []
        self.initial: Dict[str, int] = {}
        self.constraints: List[Constraint] = []

    def add_variable(self, name: str, initial: int) -> str:
        if name not in self.initial:
            self.variables.append(name)
        self.initial[name] = initial
        return name

    def add(self, source, target, weight, pitch_terms=(), kind=""):
        assert source in self.initial and target in self.initial
        self.constraints.append(
            Constraint(source, target, weight, tuple(pitch_terms), kind)
        )

    def require_equal(self, a, b, offset=0):
        self.add(a, b, offset, kind="equal")
        self.add(b, a, -offset, kind="equal")


def object_bellman_ford(system: ObjectSystem, sort_edges: bool = True) -> SolveStats:
    """Pass-based relaxation over ``(Constraint, weight)`` pairs."""
    constraints = list(system.constraints)
    if sort_edges:
        constraints.sort(key=lambda c: system.initial.get(c.source, 0))
    x = {name: 0 for name in system.variables}
    stats = SolveStats(sorted_edges=sort_edges, backend="bellman-ford")
    limit = len(system.variables) + 1
    while True:
        changed = False
        stats.passes += 1
        for constraint in constraints:
            candidate = x[constraint.source] + constraint.weight
            if candidate > x[constraint.target]:
                x[constraint.target] = candidate
                stats.relaxations += 1
                changed = True
        if not changed:
            break
        if stats.passes > limit:
            raise InfeasibleConstraintsError("positive cycle")
    stats.solution = x
    return stats


def _width_rows(system, items, rules, mode, sizing):
    sizing = sizing or {}
    for item in items:
        directive = sizing.get((item.tag, item.layer))
        if mode == "preserve" and directive is None:
            system.require_equal(item.left, item.right, item.box.width)
            continue
        minimum = rules.width(item.layer)
        if directive is not None:
            minimum = max(minimum, directive)
        if mode == "preserve":
            minimum = max(minimum, item.box.width)
        system.add(item.left, item.right, minimum, kind="width")


def _connection_rows(system, a, b, rules):
    width = rules.width(a.layer)
    overlap = min(a.box.xmax, b.box.xmax) - max(a.box.xmin, b.box.xmin)
    keep = max(0, min(overlap, width))
    left_box, right_box = (a, b) if a.box.xmin <= b.box.xmin else (b, a)
    system.add(left_box.left, right_box.left, 0, kind="connect")
    system.add(left_box.right, right_box.right, 0, kind="connect")
    system.add(right_box.left, left_box.right, keep, kind="connect")


def _visibility_rows(system, items, rules) -> int:
    """The object build of the Figure 6.7 scan: pairs from the batch
    primitive, one object per row (connections first, then spacing);
    under ``REPRO_KERNEL=python`` the interpreted sweep build, which
    appends through ``system.add``."""
    if not batch.use_numpy():
        return visibility_constraints_python(system, items, rules)
    np = batch.require_numpy()
    if len(items) < 2:
        return 0
    names = sorted({item.layer for item in items})
    code_of = {name: code for code, name in enumerate(names)}
    allowed = np.zeros((len(names), len(names)), dtype=bool)
    for a in names:
        for b in names:
            allowed[code_of[a], code_of[b]] = rules.spacing(a, b) is not None
    arrays = batch.boxes_to_arrays([item.box for item in items])
    codes = np.array([code_of[item.layer] for item in items], dtype=np.int64)
    visible, viewer = batch.visible_pairs(arrays, codes, allowed)
    spacing_rows = []
    for i, j in zip(visible.tolist(), viewer.tolist()):
        a, b = items[i], items[j]
        if a.layer == b.layer and a.box.xmax >= b.box.xmin:
            _connection_rows(system, a, b, rules)
            continue
        spacing = rules.spacing(a.layer, b.layer)
        if spacing is not None and a.box.xmax < b.box.xmin:
            spacing_rows.append(Constraint(a.right, b.left, spacing, (), "spacing"))
    system.constraints.extend(spacing_rows)
    return len(spacing_rows)


def _alignment(items):
    np = batch.require_numpy()
    codes: Dict[str, int] = {}
    layers = np.array(
        [codes.setdefault(item.layer, len(codes)) for item in items], dtype=np.int64
    )
    first, second = batch.box_overlap_pairs(
        batch.boxes_to_arrays([item.box for item in items]), layers
    )
    return [(items[i], items[j]) for i, j in zip(first.tolist(), second.tolist())]


def _jog(pairs, solution) -> int:
    total = 0
    for a, b in pairs:
        centre = (solution[a.left] + solution[a.right]) - (
            solution[b.left] + solution[b.right]
        )
        drawn = (a.box.xmin + a.box.xmax) - (b.box.xmin + b.box.xmax)
        total += abs(centre - drawn)
    return total


def _transpose(box: Box) -> Box:
    return Box(box.ymin, box.xmin, box.ymax, box.xmax)


def compact_layout_oracle(
    layout: FlatLayout,
    rules,
    width_mode: str = "preserve",
    axis: str = "x",
    merge: bool = False,
    sizing=None,
    sort_edges: bool = True,
) -> Tuple[CompactionResult, ObjectSystem]:
    """One visibility-method flat pass through the object pipeline."""
    system = ObjectSystem()
    items: List[CompactionBox] = []
    for layer, boxes in sorted(layout.layers.items()):
        for box in merge_boxes(boxes) if merge else boxes:
            box = _transpose(box) if axis == "y" else box
            index = len(items)
            left = system.add_variable(f"e{index}.l", box.xmin)
            right = system.add_variable(f"e{index}.r", box.xmax)
            items.append(CompactionBox(layer, box, left, right))
    _width_rows(system, items, rules, width_mode, sizing)
    spacing = _visibility_rows(system, items, rules)
    stats = object_bellman_ford(system, sort_edges=sort_edges)
    pairs = _alignment(items)
    result = CompactionResult(stats=stats)
    result.spacing_constraints = spacing
    result.constraint_count = len(system.constraints)
    result.jog_before = result.jog_after = _jog(pairs, stats.solution)
    for item in items:
        box = Box(
            stats.solution[item.left],
            item.box.ymin,
            stats.solution[item.right],
            item.box.ymax,
        )
        result.layers.setdefault(item.layer, []).append(
            _transpose(box) if axis == "y" else box
        )
    bbox: Optional[Box] = None
    for boxes in layout.layers.values():
        for box in boxes:
            bbox = box if bbox is None else bbox.union(box)
    if bbox is not None:
        result.width_before = bbox.width if axis == "x" else bbox.height
    spans = [
        (box.xmin, box.xmax) if axis == "x" else (box.ymin, box.ymax)
        for boxes in result.layers.values()
        for box in boxes
    ]
    if spans:
        result.width_after = max(hi for _, hi in spans) - min(lo for lo, _ in spans)
    return result, system


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------
def run_array_pass(monkeypatch, layout, rules, **options):
    """``compact_layout`` plus the system it handed to the solver."""
    seen = []
    solve = flat_module.solve_longest_path

    def capture(system, **kwargs):
        seen.append(system)
        return solve(system, **kwargs)

    monkeypatch.setattr(flat_module, "solve_longest_path", capture)
    try:
        result = compact_layout(layout, rules, **options)
    finally:
        monkeypatch.setattr(flat_module, "solve_longest_path", solve)
    return result, seen[0]


def assert_same_pass(monkeypatch, layout, rules, **options):
    """Both pipelines agree on every observable, or both raise."""
    try:
        expected, oracle_system = compact_layout_oracle(layout, rules, **options)
    except InfeasibleConstraintsError:
        with pytest.raises(InfeasibleConstraintsError):
            run_array_pass(monkeypatch, layout, rules, **options)
        return None
    got, system = run_array_pass(monkeypatch, layout, rules, **options)
    assert list(system.constraints) == oracle_system.constraints
    assert Counter(system.constraints) == Counter(oracle_system.constraints)
    assert system.variables == oracle_system.variables
    assert got.stats.solution == expected.stats.solution
    assert got.stats.passes == expected.stats.passes
    assert got.stats.relaxations == expected.stats.relaxations
    assert dict(got.layers) == dict(expected.layers)
    assert list(got.layers) == list(expected.layers)
    assert (got.width_before, got.width_after) == (
        expected.width_before,
        expected.width_after,
    )
    assert (got.jog_before, got.jog_after) == (expected.jog_before, expected.jog_after)
    assert got.spacing_constraints == expected.spacing_constraints
    assert got.constraint_count == expected.constraint_count
    return got


def layout_of(pairs) -> FlatLayout:
    layout = FlatLayout("random")
    for layer, box in pairs:
        layout.add(layer, box)
    return layout


@pytest.mark.parametrize("seed,n,spread", CASES)
@pytest.mark.parametrize("rules", [TECH_A, TECH_B], ids=lambda r: r.name)
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("width_mode", ["min", "preserve"])
def test_random_layouts_match_oracle(
    monkeypatch, seed, n, spread, rules, axis, width_mode
):
    layout = layout_of(random_pairs(seed, n, spread))
    assert_same_pass(monkeypatch, layout, rules, axis=axis, width_mode=width_mode)


@pytest.mark.parametrize("size", range(2, 9))
@pytest.mark.parametrize("rules", [TECH_A, TECH_B], ids=lambda r: r.name)
def test_generated_multipliers_match_oracle(monkeypatch, size, rules):
    from repro.multiplier import generate_multiplier

    layout = flatten_cell(generate_multiplier(size, size))
    width_mode = "preserve" if size % 2 else "min"
    for axis in "xy":
        assert_same_pass(monkeypatch, layout, rules, axis=axis, width_mode=width_mode)


def seeded_truth_table(seed, inputs=5, outputs=3, terms=8):
    from repro.pla import TruthTable

    rng = random.Random(seed)
    rows = [
        (
            "".join(rng.choice("01-") for _ in range(inputs)),
            "".join(rng.choice("01") for _ in range(outputs)),
        )
        for _ in range(terms)
    ]
    return TruthTable([r[0] for r in rows], [r[1] for r in rows])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rules", [TECH_A, TECH_B], ids=lambda r: r.name)
@pytest.mark.parametrize("width_mode", ["min", "preserve"])
def test_seeded_plas_match_oracle(monkeypatch, seed, rules, width_mode):
    from repro.pla import generate_pla

    layout = flatten_cell(generate_pla(seeded_truth_table(seed)))
    for axis in "xy":
        assert_same_pass(monkeypatch, layout, rules, axis=axis, width_mode=width_mode)


def test_two_pass_pla_chain_matches_oracle(monkeypatch):
    """x then y, each pass fed the previous pass's geometry."""
    from repro.pla import generate_pla

    layout = flatten_cell(generate_pla(seeded_truth_table(11)))
    for axis in "xy":
        got = assert_same_pass(monkeypatch, layout, TECH_A, axis=axis, width_mode="min")
        layout = FlatLayout(f"pass_{axis}")
        for layer, boxes in got.layers.items():
            for box in boxes:
                layout.add(layer, box)


def test_merge_and_sizing_options_match_oracle(monkeypatch):
    pairs = random_pairs(3, 40, 60)
    assert_same_pass(monkeypatch, layout_of(pairs), TECH_A, merge=True, width_mode="min")
    # Flat passes carry no cell tags, so a sizing directive keyed on
    # the empty tag reaches every box of its layer.
    sizing = {("", "poly"): 6, ("", "metal1"): 2}
    for width_mode in ("min", "preserve"):
        assert_same_pass(
            monkeypatch, layout_of(pairs), TECH_B, sizing=sizing, width_mode=width_mode
        )


def test_unsorted_edges_match_oracle(monkeypatch):
    layout = layout_of(random_pairs(2, 120, 300))
    assert_same_pass(monkeypatch, layout, TECH_A, width_mode="min", sort_edges=False)


def test_empty_and_single_box_layouts(monkeypatch):
    assert_same_pass(monkeypatch, FlatLayout("empty"), TECH_A)
    assert_same_pass(monkeypatch, layout_of([("metal1", Box(3, 1, 9, 4))]), TECH_A, axis="y")


def test_overconstrained_pla_raises_on_both_sides(monkeypatch):
    """The tech-B x-then-y min-width PLA whose y pass closes a positive
    cycle: the x pass agrees, the y pass raises in both pipelines."""
    from repro.pla import TruthTable, generate_pla

    table = TruthTable.parse("10-1 | 10\n0-11 | 01\n1100 | 11")
    layout = flatten_cell(generate_pla(table))
    first = assert_same_pass(monkeypatch, layout, TECH_B, axis="x", width_mode="min")
    assert first is not None
    second = FlatLayout("pass_x")
    for layer, boxes in first.layers.items():
        for box in boxes:
            second.add(layer, box)
    assert assert_same_pass(
        monkeypatch, second, TECH_B, axis="y", width_mode="min"
    ) is None
