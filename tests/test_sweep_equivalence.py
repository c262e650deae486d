"""Equivalence of the sweep-kernel geometry passes and their oracles.

The sweep kernel (:mod:`repro.geometry.sweep`) rebuilt four hot paths —
visibility constraint generation, DRC, box merging, wire extraction —
whose pre-kernel implementations are retained as ``*_reference``
functions.  These property tests drive randomized layouts through both
builds across multiple seeds and densities and require *identical*
observable results: the same constraint multiset and solved widths, the
same merged geometry, the same violation multiset, the same extracted
components.  Plus direct unit coverage of the kernel primitives.

The numpy batch kernel (:mod:`repro.geometry.batch`) rebuilt the same
passes again on flat int64 arrays, with the interpreted sweep builds
retained as *its* oracles behind the ``REPRO_KERNEL`` switch.  The
second half of this file holds the batch half of the contract: the
same case matrix driven through ``*_batch`` versus ``*_python``, the
degenerate layouts (empty, single box, all-overlapping), the batch
primitives, and the kernel-selection switch itself.

The rubber-band alignment pairs (:func:`repro.compact.alignment_pairs`)
have a single production build, the batch sorted-window join; its
oracle is the quadratic scan kept here as
:func:`alignment_pairs_oracle`, and the contract is the *same list*:
same pairs, same order, same objects.
"""

import random
from collections import Counter

import pytest

from repro.compact import (
    TECH_A,
    TECH_B,
    add_width_constraints,
    alignment_pairs,
    build_edge_variables,
    check_layout,
    check_layout_reference,
    rebuild_boxes,
    solve_longest_path,
    visibility_constraints,
    visibility_constraints_reference,
)
from repro.compact.drc import check_layout_batch, check_layout_python
from repro.compact.scanline import (
    visibility_constraints_batch,
    visibility_constraints_python,
)
from repro.geometry import (
    Box,
    IntervalFront,
    interval_gaps,
    merge_intervals,
    slab_decompose,
    subtract_intervals,
)
from repro.geometry import batch
from repro.geometry.batch import merge_boxes_batch
from repro.layout.database import (
    merge_boxes,
    merge_boxes_python,
    merge_boxes_reference,
)
from repro.route.extract import (
    wire_components,
    wire_components_batch,
    wire_components_python,
    wire_components_reference,
)
from repro.route.style import RouteStyle

try:
    batch.require_numpy()
    NUMPY_OK = True
except batch.KernelUnavailableError:
    NUMPY_OK = False

requires_numpy = pytest.mark.skipif(
    not NUMPY_OK, reason="numpy batch kernel unavailable"
)

LAYERS = ["diff", "poly", "metal1", "implant"]

# (seed, boxes, coordinate spread): spread ~ n gives sparse layouts with
# deep fronts, spread << n gives dense overlapping material.
CASES = [
    (seed, n, spread)
    for seed in (1, 2, 3, 4, 5)
    for n, spread in ((8, 20), (40, 60), (40, 400), (120, 300), (120, 2000))
]


def random_pairs(seed, n, spread):
    """A randomized (layer, box) layout; includes degenerate boxes."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        x = rng.randrange(0, spread)
        y = rng.randrange(0, spread)
        pairs.append(
            (
                rng.choice(LAYERS),
                Box(x, y, x + rng.randrange(0, 9), y + rng.randrange(0, 9)),
            )
        )
    return pairs


def alignment_pairs_oracle(boxes):
    """The all-pairs scan :func:`alignment_pairs` must reproduce exactly."""
    pairs = []
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            if a.layer == b.layer and a.box.overlaps(b.box):
                pairs.append((a, b))
    return pairs


def assert_same_alignment_pairs(boxes):
    """Same pairs, in the same order, holding the same objects."""
    got = alignment_pairs(boxes)
    expected = alignment_pairs_oracle(boxes)
    assert len(got) == len(expected)
    for (a, b), (c, d) in zip(got, expected):
        assert a is c and b is d
    return got


def constraint_multiset(system):
    return Counter(
        (c.source, c.target, c.weight, c.kind) for c in system.constraints
    )


# ----------------------------------------------------------------------
# Kernel primitives
# ----------------------------------------------------------------------
class TestIntervalUtilities:
    def test_merge_coalesces_touching_and_overlapping(self):
        assert merge_intervals([(5, 7), (0, 2), (2, 4), (6, 9)]) == [(0, 4), (5, 9)]

    def test_merge_drops_empty(self):
        assert merge_intervals([(3, 3), (1, 2)]) == [(1, 2)]

    def test_subtract_splits_and_clips(self):
        assert subtract_intervals([(0, 10)], [(2, 4), (6, 20)]) == [
            (0, 2),
            (4, 6),
        ]

    def test_subtract_disjoint_cut_is_noop(self):
        assert subtract_intervals([(0, 5)], [(7, 9)]) == [(0, 5)]

    def test_gaps_between_runs(self):
        assert interval_gaps([(0, 2), (5, 6), (9, 12)]) == [(2, 5), (6, 9)]

    def test_gaps_of_touching_runs_empty(self):
        assert interval_gaps([(0, 2), (2, 4)]) == []


class TestIntervalFront:
    def test_stab_returns_overlapping_segments_in_order(self):
        front = IntervalFront()
        front.replace(0, 4, "a")
        front.replace(6, 9, "b")
        assert [p for _, _, p in front.stab(3, 7)] == ["a", "b"]
        assert front.stab(4, 6) == []  # touching is not overlap

    def test_replace_consumes_covered_range(self):
        front = IntervalFront()
        front.replace(0, 10, "a")
        front.replace(2, 6, "b")
        assert [(y0, y1, p) for y0, y1, p in front.segments()] == [
            (0, 2, "a"),
            (2, 6, "b"),
            (6, 10, "a"),
        ]

    def test_replace_keep_predicate_shadows(self):
        front = IntervalFront()
        front.replace(0, 10, "long")
        front.replace(4, 12, "new", keep=lambda p: p == "long")
        assert [(y0, y1, p) for y0, y1, p in front.segments()] == [
            (0, 10, "long"),
            (10, 12, "new"),
        ]

    def test_empty_range_is_noop(self):
        front = IntervalFront()
        front.replace(5, 5, "a")
        assert len(front) == 0


class TestSlabDecompose:
    def test_runs_merge_within_slab(self):
        layers = {"m": [Box(0, 0, 4, 10), Box(4, 0, 8, 10), Box(12, 2, 14, 8)]}
        # The yielded runs dict is reused between slabs: snapshot inline.
        slabs = [
            (y0, y1, tuple(runs["m"])) for y0, y1, runs in slab_decompose(layers)
        ]
        assert slabs == [
            (0, 2, ((0, 8),)),
            (2, 8, ((0, 8), (12, 14))),
            (8, 10, ((0, 8),)),
        ]

    def test_degenerate_boxes_cut_grid_without_material(self):
        layers = {"m": [Box(0, 0, 4, 10), Box(0, 5, 0, 5)]}
        slabs = [(y0, y1, tuple(runs["m"])) for y0, y1, runs in slab_decompose(layers)]
        assert slabs == [(0, 5, ((0, 4),)), (5, 10, ((0, 4),))]


# ----------------------------------------------------------------------
# Path equivalence on randomized layouts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed,n,spread", CASES)
@pytest.mark.parametrize("rules", [TECH_A, TECH_B], ids=lambda r: r.name)
class TestEquivalence:
    def test_visibility_constraints_and_solved_widths(self, seed, n, spread, rules):
        pairs = random_pairs(seed, n, spread)
        kernel_system, kernel_boxes = build_edge_variables(pairs)
        reference_system, reference_boxes = build_edge_variables(pairs)
        kernel_count = visibility_constraints(kernel_system, kernel_boxes, rules)
        reference_count = visibility_constraints_reference(
            reference_system, reference_boxes, rules
        )
        assert kernel_count == reference_count
        assert constraint_multiset(kernel_system) == constraint_multiset(
            reference_system
        )
        # Identical constraints must solve to identical positions/widths;
        # min-width mode keeps randomized layouts feasible.
        add_width_constraints(kernel_system, kernel_boxes, rules, mode="min")
        add_width_constraints(reference_system, reference_boxes, rules, mode="min")
        kernel_stats = solve_longest_path(kernel_system)
        reference_stats = solve_longest_path(reference_system)
        assert kernel_stats.solution == reference_stats.solution
        assert kernel_stats.width() == reference_stats.width()

    def test_check_layout_violation_multiset(self, seed, n, spread, rules):
        pairs = random_pairs(seed, n, spread)
        layers = {}
        for layer, box in pairs:
            layers.setdefault(layer, []).append(box)
        assert Counter(check_layout(layers, rules)) == Counter(
            check_layout_reference(layers, rules)
        )

    def test_merge_boxes_identical_geometry(self, seed, n, spread, rules):
        boxes = [box for _, box in random_pairs(seed, n, spread)]
        assert merge_boxes(boxes) == merge_boxes_reference(boxes)


def random_wire_layers(seed, n, spread):
    """Randomized routing-layer material for the extraction tests."""
    rng = random.Random(seed)
    layers = {}
    for _ in range(n):
        layer = rng.choice(["metal1", "poly", "contact"])
        x = rng.randrange(0, spread)
        y = rng.randrange(0, spread)
        layers.setdefault(layer, []).append(
            Box(x, y, x + rng.randrange(1, 30), y + rng.randrange(1, 6))
        )
    return layers


@pytest.mark.parametrize("seed,n,spread", CASES)
def test_wire_components_identical_grouping(seed, n, spread):
    layers = random_wire_layers(seed, n, spread)
    style = RouteStyle()
    assert wire_components(layers, style) == wire_components_reference(
        layers, style
    )


# ----------------------------------------------------------------------
# Batch (numpy) kernel primitives
# ----------------------------------------------------------------------
@requires_numpy
class TestBatchPrimitives:
    def test_box_array_roundtrip(self):
        boxes = [box for _, box in random_pairs(3, 40, 60)]
        arrays = batch.boxes_to_arrays(boxes)
        assert (
            batch.boxes_from_arrays(
                arrays.xmin, arrays.ymin, arrays.xmax, arrays.ymax
            )
            == boxes
        )

    def test_unique_sorted_matches_numpy_unique(self):
        np = batch.require_numpy()
        rng = random.Random(7)
        values = np.array(
            [rng.randrange(-50, 50) for _ in range(500)], dtype=np.int64
        )
        assert np.array_equal(batch.unique_sorted(values), np.unique(values))
        empty = np.empty(0, dtype=np.int64)
        assert batch.unique_sorted(empty).size == 0

    def test_segmented_cummax_running_max_per_group(self):
        np = batch.require_numpy()
        groups = np.array([0, 0, 0, 2, 2, 5], dtype=np.int64)
        values = np.array([3, 1, 5, 2, 7, 0], dtype=np.int64)
        assert batch.segmented_cummax(groups, values).tolist() == [
            3, 3, 5, 2, 7, 0,
        ]

    def test_segmented_cummax_overflow_fallback(self):
        # groups x span overflowing int64 must take the rank-based path
        # and still produce the per-group running maximum.
        np = batch.require_numpy()
        groups = np.array([0, 0, 2**21, 2**21], dtype=np.int64)
        values = np.array([2**42, 5, -(2**42), 9], dtype=np.int64)
        assert batch.segmented_cummax(groups, values).tolist() == [
            2**42, 2**42, -(2**42), 9,
        ]

    def test_merged_slab_runs_matches_slab_decompose(self):
        np = batch.require_numpy()
        boxes = [box for _, box in random_pairs(9, 60, 80)]
        arrays = batch.boxes_to_arrays(boxes)
        ys = batch.slab_grid([arrays])
        slab, x0, x1 = batch.merged_slab_runs(ys, arrays)
        got = list(zip(slab.tolist(), x0.tolist(), x1.tolist()))
        expected = []
        grid = ys.tolist()
        for index, (lo, hi) in enumerate(zip(grid, grid[1:])):
            for run in _merged_runs_at(boxes, lo, hi):
                expected.append((index, run[0], run[1]))
        assert got == expected


def _merged_runs_at(boxes, lo, hi):
    """Oracle: merged x intervals of the material covering slab (lo, hi)."""
    spans = [
        (box.xmin, box.xmax)
        for box in boxes
        if box.ymin <= lo and box.ymax >= hi and box.xmin < box.xmax
    ]
    return merge_intervals(spans)


# ----------------------------------------------------------------------
# Batch kernel equivalence on randomized layouts
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("seed,n,spread", CASES)
@pytest.mark.parametrize("rules", [TECH_A, TECH_B], ids=lambda r: r.name)
class TestBatchEquivalence:
    """``*_batch`` versus ``*_python`` across the shared case matrix.

    The interpreted sweep builds are the batch kernel's oracles — the
    same contract the sweep kernel holds against its ``*_reference``
    builds above, so a layout surviving both classes has three builds
    in exact agreement.
    """

    def test_visibility_constraints_and_solved_widths(self, seed, n, spread, rules):
        pairs = random_pairs(seed, n, spread)
        batch_system, batch_boxes = build_edge_variables(pairs)
        python_system, python_boxes = build_edge_variables(pairs)
        batch_count = visibility_constraints_batch(batch_system, batch_boxes, rules)
        python_count = visibility_constraints_python(
            python_system, python_boxes, rules
        )
        assert batch_count == python_count
        assert constraint_multiset(batch_system) == constraint_multiset(
            python_system
        )
        add_width_constraints(batch_system, batch_boxes, rules, mode="min")
        add_width_constraints(python_system, python_boxes, rules, mode="min")
        batch_stats = solve_longest_path(batch_system)
        python_stats = solve_longest_path(python_system)
        assert batch_stats.solution == python_stats.solution
        assert batch_stats.width() == python_stats.width()

    def test_check_layout_violation_multiset(self, seed, n, spread, rules):
        pairs = random_pairs(seed, n, spread)
        layers = {}
        for layer, box in pairs:
            layers.setdefault(layer, []).append(box)
        assert Counter(check_layout_batch(layers, rules)) == Counter(
            check_layout_python(layers, rules)
        )

    def test_merge_boxes_identical_geometry(self, seed, n, spread, rules):
        boxes = [box for _, box in random_pairs(seed, n, spread)]
        assert merge_boxes_batch(boxes) == merge_boxes_python(boxes)


@pytest.mark.parametrize("seed,n,spread", CASES)
@pytest.mark.parametrize("rules", [TECH_A, TECH_B], ids=lambda r: r.name)
def test_alignment_pairs_match_oracle(seed, n, spread, rules):
    """Drawn geometry, then the geometry this tech's solve packs it to."""
    pairs = random_pairs(seed, n, spread)
    system, boxes = build_edge_variables(pairs)
    assert_same_alignment_pairs(boxes)
    visibility_constraints(system, boxes, rules)
    add_width_constraints(system, boxes, rules, mode="min")
    solution = solve_longest_path(system).solution
    _, packed = build_edge_variables(rebuild_boxes(boxes, solution))
    assert_same_alignment_pairs(packed)


class TestAlignmentPairsEdgeCases:
    def pairs_of(self, layered):
        _, boxes = build_edge_variables(layered)
        index = {id(box): position for position, box in enumerate(boxes)}
        return [
            (index[id(a)], index[id(b)])
            for a, b in assert_same_alignment_pairs(boxes)
        ]

    def test_empty_and_single_box(self):
        assert self.pairs_of([]) == []
        assert self.pairs_of([("metal1", Box(0, 0, 4, 4))]) == []

    def test_edge_and_corner_contact_pair(self):
        # The overlap test is closed: sharing an edge or a corner connects.
        assert self.pairs_of(
            [
                ("metal1", Box(0, 0, 4, 4)),
                ("metal1", Box(4, 0, 8, 4)),  # shares the x = 4 edge
                ("metal1", Box(8, 4, 12, 8)),  # touches box 1 at a corner
                ("metal1", Box(13, 0, 16, 4)),  # one unit clear of box 2
            ]
        ) == [(0, 1), (1, 2)]

    def test_zero_width_and_zero_height_boxes(self):
        assert self.pairs_of(
            [
                ("poly", Box(0, 0, 8, 8)),
                ("poly", Box(8, 2, 8, 6)),  # zero width, on the right edge
                ("poly", Box(2, 8, 6, 8)),  # zero height, on the top edge
                ("poly", Box(4, 4, 4, 4)),  # a point inside
                ("poly", Box(9, 9, 9, 9)),  # a point outside
            ]
        ) == [(0, 1), (0, 2), (0, 3)]

    def test_identical_stacked_boxes(self):
        assert self.pairs_of([("diff", Box(2, 2, 10, 8))] * 4) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]

    def test_coincident_geometry_on_different_layers(self):
        box = Box(0, 0, 6, 6)
        assert self.pairs_of(
            [("diff", box), ("poly", box), ("metal1", box), ("diff", box)]
        ) == [(0, 3)]

    def test_full_width_rail_over_small_boxes(self):
        # The rail's x window holds every box on its layer; only the
        # boxes reaching its y range pair, and the small boxes never
        # pair with each other.
        small = [
            ("metal1", Box(4 * i, 3 * (i % 3), 4 * i + 2, 3 * (i % 3) + 2))
            for i in range(40)
        ]
        found = self.pairs_of([("metal1", Box(0, 5, 160, 7))] + small)
        assert found == [(0, 1 + i) for i in range(40) if i % 3 != 0]

    def test_extreme_coordinates_take_the_rank_path(self):
        # layers x coordinate span overflowing int64 keys must still
        # produce the exact list.
        big = 2**61
        assert self.pairs_of(
            [
                ("metal1", Box(-big, 0, big, 5)),
                ("poly", Box(-big, 0, big, 5)),
                ("metal1", Box(big, 5, big, 9)),
                ("poly", Box(0, 6, 1, 7)),
            ]
        ) == [(0, 2)]


@requires_numpy
@pytest.mark.parametrize("seed,n,spread", CASES)
def test_batch_wire_components_identical_grouping(seed, n, spread):
    layers = random_wire_layers(seed, n, spread)
    style = RouteStyle()
    assert wire_components_batch(layers, style) == wire_components_python(
        layers, style
    )


@requires_numpy
def test_batch_verify_sweep_identical_netlist_parts():
    """The mask-walk halves of netlist extraction agree on a real PLA."""
    from repro.pla import TruthTable, generate_pla
    from repro.verify.extract import (
        CONDUCTOR_LAYERS,
        _sweep_batch,
        _sweep_python,
        extract_layers,
    )

    table = TruthTable.parse(
        """
        1-0 | 10
        01- | 11
        -11 | 01
        """
    )
    layers = extract_layers(generate_pla(table), None)
    masks = {name: list(layers.get(name, ())) for name in CONDUCTOR_LAYERS}
    masks["cut"] = list(layers.get("cut", ()))
    masks["implant"] = list(layers.get("implant", ()))
    result_python = _sweep_python(masks)
    result_batch = _sweep_batch(masks)
    # Same boxes, gates, and terminals; the union-find must induce the
    # same node partition (compare canonical roots, not parent arrays).
    assert result_python[1:] == result_batch[1:]
    sets_python, sets_batch = result_python[0], result_batch[0]
    assert [
        sets_python.find(i) for i in range(len(sets_python.parent))
    ] == [sets_batch.find(i) for i in range(len(sets_batch.parent))]


# ----------------------------------------------------------------------
# Batch kernel: degenerate layouts
# ----------------------------------------------------------------------
@requires_numpy
class TestBatchDegenerateLayouts:
    def run_all_passes(self, pairs):
        """Drive every batch pass and its oracle over one tiny layout."""
        batch_system, batch_boxes = build_edge_variables(pairs)
        python_system, python_boxes = build_edge_variables(pairs)
        assert visibility_constraints_batch(
            batch_system, batch_boxes, TECH_A
        ) == visibility_constraints_python(python_system, python_boxes, TECH_A)
        assert constraint_multiset(batch_system) == constraint_multiset(
            python_system
        )
        layers = {}
        for layer, box in pairs:
            layers.setdefault(layer, []).append(box)
        assert Counter(check_layout_batch(layers, TECH_A)) == Counter(
            check_layout_python(layers, TECH_A)
        )
        boxes = [box for _, box in pairs]
        assert merge_boxes_batch(boxes) == merge_boxes_python(boxes)
        style = RouteStyle()
        assert wire_components_batch(layers, style) == wire_components_python(
            layers, style
        )

    def test_empty_layout(self):
        self.run_all_passes([])
        assert merge_boxes_batch([]) == []
        assert wire_components_batch({}, RouteStyle()) == wire_components_python(
            {}, RouteStyle()
        )

    def test_single_box(self):
        self.run_all_passes([("metal1", Box(0, 0, 6, 4))])

    def test_all_overlapping(self):
        # Every box intersects every other, on every layer: the dense
        # corner where run merging and pair dedup do maximal coalescing.
        pairs = [
            (layer, Box(i, i, 20 - i, 20 - i))
            for i in range(8)
            for layer in ("diff", "poly", "metal1")
        ]
        self.run_all_passes(pairs)

    def test_identical_stacked_boxes(self):
        self.run_all_passes([("poly", Box(2, 2, 10, 8))] * 5)


# ----------------------------------------------------------------------
# Kernel selection switch
# ----------------------------------------------------------------------
class TestKernelSelection:
    def test_python_forced(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert batch.kernel_name() == "python"
        assert not batch.use_numpy()

    @requires_numpy
    def test_numpy_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        assert batch.kernel_name() == "numpy"
        assert batch.use_numpy()

    @requires_numpy
    def test_default_prefers_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert batch.kernel_name() == "numpy"

    def test_unknown_kernel_is_one_actionable_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "fortran")
        with pytest.raises(batch.KernelUnavailableError) as error:
            batch.kernel_name()
        message = str(error.value)
        assert "REPRO_KERNEL" in message and "python" in message
        # OSError subclass: the CLI maps it to exit-code family 5.
        assert isinstance(error.value, OSError)

    @requires_numpy
    def test_dispatchers_follow_the_switch(self, monkeypatch):
        boxes = [box for _, box in random_pairs(1, 40, 60)]
        monkeypatch.setenv("REPRO_KERNEL", "python")
        via_python = merge_boxes(boxes)
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        via_numpy = merge_boxes(boxes)
        assert via_python == via_numpy == merge_boxes_python(boxes)
