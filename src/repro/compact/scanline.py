"""Constraint generation by scanning (section 6.4.1).

Two generators are provided, matching the paper's narrative:

* :func:`naive_constraints` — the horizontal-band scan the author first
  built: every facing pair of edges within a y band receives a spacing
  constraint.  With ``skip_hidden=True`` it tries to be "smart" about
  hidden edges and reproduces the Figure 6.6 bug (a partially hidden
  edge pair whose constraint is missed); with ``skip_hidden=False`` it
  overconstrains fragmented layouts (Figure 6.5: n abutting boxes are
  forced to n times the minimum width).

* :func:`visibility_constraints` — the "correct scan line method" of
  Figure 6.7: a vertical line sweeps left to right carrying, per layer,
  what a viewer on the line looking left would see; constraints are
  generated only against visible material.  Hidden edges never appear,
  so box merging is implicitly taken care of.

Both generators also emit width constraints and connection-preserving
constraints for same-layer overlapping boxes.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry import Box, IntervalFront, batch
from ..obs import trace as obs_trace
from .constraints import ConstraintSystem
from .rules import DesignRules, RuleTables

__all__ = [
    "CompactionBox",
    "CompactionBoxes",
    "build_edge_variables",
    "naive_constraints",
    "visibility_constraints",
    "visibility_constraints_batch",
    "visibility_constraints_python",
    "visibility_constraints_reference",
    "rebuild_boxes",
]


@dataclass
class CompactionBox:
    """A box whose vertical edges are compaction variables."""

    layer: str
    box: Box
    left: str
    right: str
    #: provenance tag (cell name, instance id...) for sizing directives
    tag: str = ""


class CompactionBoxes(SequenceABC):
    """The boxes of one compaction pass as columns, with their edge
    variables.

    ``layers`` holds each box's layer name, ``codes`` its index into the
    sorted distinct ``layer_names``, ``arrays`` the coordinates (a
    :class:`~repro.geometry.batch.BoxArray`, compaction axis = x) and
    ``left``/``right`` the int64 indices of its edge variables in the
    owning :class:`ConstraintSystem`; ``tags`` optionally names each
    box's provenance for sizing directives.  The bulk generators read
    the columns; the table is also a read-only sequence of
    :class:`CompactionBox` objects, decoded once on first object access,
    for the callers that want objects.
    """

    def __init__(
        self,
        layers: List[str],
        arrays: "batch.BoxArray",
        left,
        right,
        variables: List[str],
        tags: Optional[Sequence[str]] = None,
        transposed: bool = False,
    ) -> None:
        np = batch.require_numpy()
        self.layers = layers
        self.layer_names = sorted(set(layers))
        code_of = {name: code for code, name in enumerate(self.layer_names)}
        self.codes = np.fromiter(
            map(code_of.__getitem__, layers), dtype=np.int64, count=len(layers)
        )
        self.arrays = arrays
        self.left = left
        self.right = right
        self.variables = variables
        self.tags = tags
        #: drawn coordinates are (y, x): labels swap them back
        self.transposed = transposed
        self._items: Optional[List[CompactionBox]] = None

    @classmethod
    def declare(
        cls,
        system: ConstraintSystem,
        layers: List[str],
        arrays: "batch.BoxArray",
        prefix: str = "e",
        tags: Optional[Sequence[str]] = None,
        transposed: bool = False,
    ) -> "CompactionBoxes":
        """Declare ``prefix<i>.l``/``prefix<i>.r`` for every box in bulk
        (drawn abscissas as initial values) and return the table."""
        np = batch.require_numpy()
        count = len(layers)
        stems = [f"{prefix}{index}" for index in range(count)]
        names: List[str] = [""] * (2 * count)
        names[0::2] = [stem + ".l" for stem in stems]
        names[1::2] = [stem + ".r" for stem in stems]
        initial = np.stack([arrays.xmin, arrays.xmax], axis=1).ravel()
        first = system.add_variables(names, initial.tolist())
        left = np.arange(first, first + 2 * count, 2, dtype=np.int64)
        table = cls(layers, arrays, left, left + 1, system.variables, tags, transposed)
        system.label_variables(first, first + 2 * count, table._edge_label)
        return table

    @property
    def items(self) -> List[CompactionBox]:
        """The boxes as :class:`CompactionBox` objects (built once)."""
        if self._items is None:
            arrays = self.arrays
            boxes = batch.boxes_from_arrays(
                arrays.xmin, arrays.ymin, arrays.xmax, arrays.ymax
            )
            names = self.variables
            tags = self.tags or [""] * len(boxes)
            self._items = [
                CompactionBox(layer, box, names[left], names[right], tag)
                for layer, box, left, right, tag in zip(
                    self.layers, boxes, self.left.tolist(),
                    self.right.tolist(), tags,
                )
            ]
        return self._items

    def _edge_label(self, offset: int) -> str:
        """Diagnostic label of edge variable ``offset`` of this table."""
        index, side = divmod(offset, 2)
        a = self.arrays
        coords = [int(column[index]) for column in (a.xmin, a.ymin, a.xmax, a.ymax)]
        edge = ("left", "right")[side]
        if self.transposed:
            coords = [coords[1], coords[0], coords[3], coords[2]]
            edge = ("bottom", "top")[side]
        return f"{self.layers[index]} Box({', '.join(map(str, coords))}) {edge} edge"

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index):
        return self.items[index]

    def __iter__(self):
        return iter(self.items)

    def __repr__(self) -> str:
        return f"CompactionBoxes({len(self)} boxes, {len(self.layer_names)} layers)"


def build_edge_variables(
    boxes: Sequence[Tuple[str, Box]],
    system: Optional[ConstraintSystem] = None,
    prefix: str = "e",
    tags: Optional[Sequence[str]] = None,
) -> Tuple[ConstraintSystem, CompactionBoxes]:
    """Create left/right variables for each (layer, box) pair."""
    if system is None:
        system = ConstraintSystem()
    layers = [layer for layer, _ in boxes]
    drawn = [box for _, box in boxes]
    table = CompactionBoxes.declare(
        system, layers, batch.boxes_to_arrays(drawn), prefix, tags or None
    )
    return system, table


def add_width_constraints(
    system: ConstraintSystem,
    boxes: CompactionBoxes,
    rules: DesignRules,
    mode: str = "preserve",
    sizing: Optional[Dict[Tuple[str, str], int]] = None,
) -> int:
    """Width constraints per box, emitted as one column block.

    ``mode="preserve"`` pins each box to its drawn width; ``mode="min"``
    only enforces the rule minimum (widths collapse during technology
    transport).  ``sizing`` maps ``(tag, layer)`` to an explicit minimum
    width — the device/bus sizing mechanism of section 6.4.1 (tagged
    cells whose instances the compactor must size).  Per box, in box
    order: a pinned box gets the two ``equal`` rows ``l -> r`` (drawn
    width) and ``r -> l`` (its negation), any other box one ``width``
    row ``l -> r``.  Returns the number of rows added.
    """
    np = batch.require_numpy()
    count = len(boxes)
    if count == 0:
        return 0
    tables = rules.tables(boxes.layer_names)
    arrays = boxes.arrays
    drawn = arrays.xmax - arrays.xmin
    minimum = np.array(
        [tables.width[name] for name in boxes.layer_names], dtype=np.int64
    )[boxes.codes]
    directed = np.zeros(count, dtype=bool)
    if sizing:
        tags = boxes.tags or [""] * count
        directives = [sizing.get(key) for key in zip(tags, boxes.layers)]
        directed = np.array([value is not None for value in directives], dtype=bool)
        values = np.array(
            [0 if value is None else value for value in directives], dtype=np.int64
        )
        minimum = np.where(directed, np.maximum(minimum, values), minimum)
    if mode == "preserve":
        equal = ~directed
        minimum = np.maximum(minimum, drawn)
    else:
        equal = np.zeros(count, dtype=bool)
    equal_code, width_code = system.kind_code("equal"), system.kind_code("width")
    rows = 1 + equal.astype(np.int64)
    starts = np.cumsum(rows) - rows
    total = count + int(equal.sum())
    sources = np.empty(total, dtype=np.int64)
    targets = np.empty(total, dtype=np.int64)
    weights = np.empty(total, dtype=np.int64)
    kinds = np.empty(total, dtype=np.int64)
    sources[starts], targets[starts] = boxes.left, boxes.right
    weights[starts] = np.where(equal, drawn, minimum)
    kinds[starts] = np.where(equal, equal_code, width_code)
    second = starts[equal] + 1
    sources[second], targets[second] = boxes.right[equal], boxes.left[equal]
    weights[second] = -drawn[equal]
    kinds[second] = equal_code
    system.extend(sources, targets, weights, kinds)
    return total


def _y_overlap(a: Box, b: Box) -> bool:
    """Positive-measure vertical overlap."""
    return min(a.ymax, b.ymax) > max(a.ymin, b.ymin)


def _connected(a: CompactionBox, b: CompactionBox) -> bool:
    """Same layer and touching/overlapping in the drawn layout."""
    return a.layer == b.layer and a.box.overlaps(b.box)


def _add_connection(
    system: ConstraintSystem,
    a: CompactionBox,
    b: CompactionBox,
    rules: DesignRules,
    tables: Optional[RuleTables] = None,
) -> None:
    """Preserve electrical contact between two drawn-connected boxes.

    The x overlap must stay at least ``min(drawn overlap, rule width)``
    and the edge order of the pair is preserved, so connected chains
    stay chains.  ``tables`` short-circuits the width lookup when the
    caller has memoized the rule set.  :func:`_add_connections` is the
    column-block form the batch build emits.
    """
    width = tables.width[a.layer] if tables is not None else rules.width(a.layer)
    overlap = min(a.box.xmax, b.box.xmax) - max(a.box.xmin, b.box.xmin)
    keep = max(0, min(overlap, width))
    left_box, right_box = (a, b) if a.box.xmin <= b.box.xmin else (b, a)
    # order: left stays left
    system.add(left_box.left, right_box.left, 0, kind="connect")
    system.add(left_box.right, right_box.right, 0, kind="connect")
    # overlap: right box's left edge at most (left box's right - keep)
    system.add(right_box.left, left_box.right, keep, kind="connect")


def _add_connections(
    system: ConstraintSystem, table: CompactionBoxes, a, b, widths
) -> int:
    """:func:`_add_connection` over the index pairs ``(a[k], b[k])`` as
    one column block: the same three rows per pair, pair by pair.
    ``widths`` is the rule width per layer code.  Returns the row count.
    """
    np = batch.require_numpy()
    xmin, xmax = table.arrays.xmin, table.arrays.xmax
    overlap = np.minimum(xmax[a], xmax[b]) - np.maximum(xmin[a], xmin[b])
    keep = np.maximum(0, np.minimum(overlap, widths[table.codes[a]]))
    a_left = xmin[a] <= xmin[b]
    low, high = np.where(a_left, a, b), np.where(a_left, b, a)
    low_l, low_r = table.left[low], table.right[low]
    high_l, high_r = table.left[high], table.right[high]
    system.extend(
        np.stack([low_l, low_r, high_l], axis=1).ravel(),
        np.stack([high_l, high_r, low_r], axis=1).ravel(),
        np.stack([np.zeros_like(keep), np.zeros_like(keep), keep], axis=1).ravel(),
        "connect",
    )
    return 3 * int(a.size)


def naive_constraints(
    system: ConstraintSystem,
    boxes: Sequence[CompactionBox],
    rules: DesignRules,
    skip_hidden: bool = False,
    merge_aware: bool = True,
) -> int:
    """Band-scan generation: all facing pairs in a y band.

    Returns the number of spacing constraints generated.

    ``merge_aware=False`` reproduces the indiscriminate generator of
    Figure 6.5: abutting same-layer boxes (fragmented wires) receive
    spacing constraints instead of connection constraints, forcing a
    fragmented wire to n times the minimum pitch.

    ``skip_hidden=True`` drops a facing pair whenever a third box of the
    same layer covers the gap over the pair's full shared y band — the
    overly clever heuristic that misses the *partially* hidden edge of
    Figure 6.6 and produces an illegal layout.
    """
    count = 0
    items = sorted(boxes, key=lambda item: item.box.xmin)
    tables = rules.tables({item.layer for item in items})
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if not _y_overlap(a.box, b.box):
                continue
            touching = (
                a.layer == b.layer
                and a.box.overlaps(b.box)
                and not a.box.overlaps_open(b.box)
            )
            if _connected(a, b) and (merge_aware or not touching):
                _add_connection(system, a, b, rules, tables)
                continue
            spacing = tables.spacing[a.layer, b.layer]
            if spacing is None:
                continue
            left_box, right_box = (a, b) if a.box.xmin <= b.box.xmin else (b, a)
            gap_lo = left_box.box.xmax
            gap_hi = right_box.box.xmin
            if gap_hi <= gap_lo and not touching:
                # Drawn crossing or contact of different layers is
                # intentional.
                continue
            if skip_hidden and _gap_covered(items, a.layer, left_box, right_box):
                continue
            system.add(left_box.right, right_box.left, spacing, kind="spacing")
            count += 1
    return count


def _gap_covered(
    items: Sequence[CompactionBox],
    layer: str,
    left_box: CompactionBox,
    right_box: CompactionBox,
) -> bool:
    """The (buggy) hidden-edge test of Figure 6.6.

    Decides hidden-ness where the pair first enters the horizontal band
    scan — the bottom of the shared y range — so a box that covers the
    gap at ``y1`` but not at ``y2`` wrongly suppresses the constraint.
    """
    y0 = max(left_box.box.ymin, right_box.box.ymin)
    for other in items:
        if other is left_box or other is right_box or other.layer != layer:
            continue
        if (
            other.box.xmin <= left_box.box.xmax
            and other.box.xmax >= right_box.box.xmin
            and other.box.ymin <= y0 < other.box.ymax
        ):
            return True
    return False


def visibility_constraints(
    system: ConstraintSystem,
    boxes: CompactionBoxes,
    rules: DesignRules,
) -> int:
    """The correct vertical-scan method (Figure 6.7).

    Dispatches on the ``REPRO_KERNEL`` switch: the numpy batch build
    (:func:`visibility_constraints_batch`) by default, the interpreted
    sweep build (:func:`visibility_constraints_python`) otherwise.  The
    two emit the exact same constraint multiset; returns the number of
    spacing constraints generated.
    """
    if batch.use_numpy():
        if obs_trace.is_enabled():
            obs_trace.annotate(kernel="numpy")
        return visibility_constraints_batch(system, boxes, rules)
    if obs_trace.is_enabled():
        obs_trace.annotate(kernel="python")
    return visibility_constraints_python(system, boxes, rules)


def visibility_constraints_batch(
    system: ConstraintSystem,
    boxes: CompactionBoxes,
    rules: DesignRules,
) -> int:
    """Numpy batch build of the Figure 6.7 scan.

    :func:`repro.geometry.batch.visible_pairs` computes every
    (visible, viewer) pair the sequential front would have produced in
    one offline segmented scan; pairs are then classified with masked
    column arithmetic and emitted as two column blocks: the connection
    rows (:func:`_add_connections`, three per connected pair, in pair
    order), then the spacing rows.  Emits the exact constraint multiset
    of :func:`visibility_constraints_python`.
    """
    np = batch.require_numpy()
    if len(boxes) < 2:
        return 0
    layer_names = boxes.layer_names
    tables = rules.tables(layer_names)
    code_of = {name: index for index, name in enumerate(layer_names)}
    depth = len(layer_names)
    spacing_matrix = np.full((depth, depth), -1, dtype=np.int64)
    for (name_a, name_b), value in tables.spacing.items():
        if value is not None:
            spacing_matrix[code_of[name_a], code_of[name_b]] = value
    allowed = spacing_matrix >= 0
    arrays, codes = boxes.arrays, boxes.codes
    visible, viewer = batch.visible_pairs(arrays, codes, allowed)
    if visible.size == 0:
        return 0
    # The viewer arrived after the visible box, so visible.xmin <=
    # viewer.xmin and the stab guarantees positive y overlap: connected
    # reduces to closed x contact, the crossing test to a.xmax >= b.xmin.
    a_xmax = arrays.xmax[visible]
    b_xmin = arrays.xmin[viewer]
    connected = (codes[visible] == codes[viewer]) & (a_xmax >= b_xmin)
    weights = spacing_matrix[codes[visible], codes[viewer]]
    spaced = ~connected & (weights >= 0) & (a_xmax < b_xmin)
    if connected.any():
        widths = np.array([tables.width[name] for name in layer_names], dtype=np.int64)
        _add_connections(system, boxes, visible[connected], viewer[connected], widths)
    system.extend(
        boxes.right[visible[spaced]],
        boxes.left[viewer[spaced]],
        weights[spaced],
        "spacing",
    )
    return int(np.count_nonzero(spaced))


def visibility_constraints_python(
    system: ConstraintSystem,
    boxes: Sequence[CompactionBox],
    rules: DesignRules,
) -> int:
    """The interpreted sweep-kernel build of the Figure 6.7 scan.

    Sweeps left to right; per layer the scan line holds the visible
    front (what a viewer on the line looking left sees).  Spacing
    constraints are generated only between a new box and the visible
    segments it faces; shadowed material is skipped because any
    constraint against it is implied transitively through the shadowing
    box.  Returns the number of spacing constraints generated.

    The front is an :class:`~repro.geometry.IntervalFront` per layer, so
    each box pays ``O(log n + k)`` to stab the segments it faces and to
    replace what it reaches past — against the flat-list front of
    :func:`visibility_constraints_reference`, which scanned and re-sorted
    whole fronts per box.  Emits the exact constraint multiset of the
    reference, and serves as the equivalence oracle for
    :func:`visibility_constraints_batch`.
    """
    count = 0
    fronts: Dict[str, IntervalFront] = {}
    items = sorted(boxes, key=lambda item: (item.box.xmin, item.box.xmax))
    tables = rules.tables({item.layer for item in items})
    spacing_of = tables.spacing

    for b in items:
        box = b.box
        for layer, front in fronts.items():
            spacing = spacing_of[layer, b.layer]
            if spacing is None and layer != b.layer:
                # Cross-layer with no rule: nothing the stab could find
                # would ever emit (connections need the same layer).
                continue
            handled = set()
            for _, _, a in front.stab(box.ymin, box.ymax):
                if id(a) in handled:
                    continue
                handled.add(id(a))
                if _connected(a, b):
                    _add_connection(system, a, b, rules, tables)
                    continue
                if spacing is None:
                    continue
                if a.box.xmax >= box.xmin:
                    continue  # drawn crossing/contact of different layers
                system.add(a.right, b.left, spacing, kind="spacing")
                count += 1
        right = box.xmax
        fronts.setdefault(b.layer, IntervalFront()).replace(
            box.ymin, box.ymax, b, keep=lambda old: old.box.xmax > right
        )
    return count


def visibility_constraints_reference(
    system: ConstraintSystem,
    boxes: Sequence[CompactionBox],
    rules: DesignRules,
) -> int:
    """The pre-kernel visibility scan, retained as an equivalence oracle.

    Semantically identical to :func:`visibility_constraints` but keeps
    the flat-list front that rescans every segment of every layer per
    box and re-sorts the whole front on every insert — the quadratic
    behaviour the sweep kernel removes.  Property tests and benchmarks
    compare the two implementations.
    """
    count = 0
    # front[layer] = sorted list of (y0, y1, CompactionBox)
    front: Dict[str, List[Tuple[int, int, CompactionBox]]] = {}
    items = sorted(boxes, key=lambda item: (item.box.xmin, item.box.xmax))

    for b in items:
        for layer, segments in front.items():
            spacing = rules.spacing(layer, b.layer)
            handled = set()
            for y0, y1, a in segments:
                if min(y1, b.box.ymax) <= max(y0, b.box.ymin):
                    continue
                if id(a) in handled:
                    continue
                handled.add(id(a))
                if _connected(a, b):
                    _add_connection(system, a, b, rules)
                    continue
                if spacing is None:
                    continue
                if a.box.xmax >= b.box.xmin:
                    continue  # drawn crossing/contact of different layers
                system.add(a.right, b.left, spacing, kind="spacing")
                count += 1
        _insert_front(front, b)
    return count


def _insert_front(
    front: Dict[str, List[Tuple[int, int, CompactionBox]]], b: CompactionBox
) -> None:
    """Update a layer's visible front with a newly swept box.

    Within the new box's y range the new box replaces segments whose
    right edge it reaches past; segments extending further right stay
    (they will shadow the new box for later sweeps — correctly, since
    constraints against them imply constraints against the new box).
    """
    segments = front.setdefault(b.layer, [])
    result: List[Tuple[int, int, CompactionBox]] = []
    covered: List[Tuple[int, int]] = [(b.box.ymin, b.box.ymax)]
    for y0, y1, a in segments:
        if y1 <= b.box.ymin or y0 >= b.box.ymax or a.box.xmax > b.box.xmax:
            result.append((y0, y1, a))
            if a.box.xmax > b.box.xmax:
                # This segment keeps shadowing its y range.
                covered = _subtract_interval(covered, (y0, y1))
            continue
        # Keep the non-overlapped parts of the old segment.
        if y0 < b.box.ymin:
            result.append((y0, b.box.ymin, a))
        if y1 > b.box.ymax:
            result.append((b.box.ymax, y1, a))
    for y0, y1 in covered:
        if y1 > y0:
            result.append((y0, y1, b))
    result.sort(key=lambda segment: segment[0])
    front[b.layer] = result


def _subtract_interval(
    intervals: List[Tuple[int, int]], cut: Tuple[int, int]
) -> List[Tuple[int, int]]:
    result: List[Tuple[int, int]] = []
    for y0, y1 in intervals:
        if cut[1] <= y0 or cut[0] >= y1:
            result.append((y0, y1))
            continue
        if y0 < cut[0]:
            result.append((y0, cut[0]))
        if y1 > cut[1]:
            result.append((cut[1], y1))
    return result


def rebuild_boxes(
    boxes: Sequence[CompactionBox], solution: Dict[str, int]
) -> List[Tuple[str, Box]]:
    """Apply a solved x assignment back to (layer, box) pairs."""
    rebuilt = []
    for item in boxes:
        rebuilt.append(
            (
                item.layer,
                Box(
                    solution[item.left],
                    item.box.ymin,
                    solution[item.right],
                    item.box.ymax,
                ),
            )
        )
    return rebuilt
