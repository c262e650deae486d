"""The layout database: flattening, merging, and area statistics.

The RSG "maintains its own database and as such is layout file format
independent" (section 4.5).  This module gives the flattened view of a
hierarchical cell: per-layer box lists, optional merging of overlapping
boxes into maximal horizontal strips (the preprocessing step discussed in
section 6.4.1), bounding boxes and utilisation statistics.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..core.cell import CellDefinition, Label, LayerBox, Port
from ..geometry import Box, Transform, batch, slab_decompose

_XMIN, _YMIN, _XMAX, _YMAX = (
    attrgetter(name) for name in ("xmin", "ymin", "xmax", "ymax")
)

__all__ = [
    "FlatLayout",
    "flatten_cell",
    "merge_boxes",
    "merge_boxes_python",
    "merge_boxes_reference",
]


def _coalesce_slabs(
    slabs: List[Tuple[int, int, Tuple[Tuple[int, int], ...]]]
) -> List[Box]:
    """Coalesce consecutive slabs with identical x spans into boxes."""
    result: List[Box] = []
    open_spans: Dict[Tuple[int, int], int] = {}
    previous_y1: Optional[int] = None
    for y0, y1, spans in slabs:
        continued = previous_y1 == y0
        next_open: Dict[Tuple[int, int], int] = {}
        for span in spans:
            if continued and span in open_spans:
                next_open[span] = open_spans.pop(span)
            else:
                next_open[span] = y0
        for span, start in open_spans.items():
            result.append(Box(span[0], start, span[1], y0 if continued else previous_y1))
        open_spans = next_open
        previous_y1 = y1
    for span, start in open_spans.items():
        result.append(Box(span[0], start, span[1], previous_y1))
    result.sort(key=lambda b: (b.ymin, b.xmin, b.ymax, b.xmax))
    return result


def merge_boxes(boxes: List[Box]) -> List[Box]:
    """Merge overlapping/abutting boxes into maximal horizontal strips.

    This is the box-merging preprocessing of section 6.4.1: the result
    covers exactly the same area with no hidden or partially hidden
    vertical edges inside any strip row.  The decomposition slices the
    union region at every distinct y coordinate and merges x intervals
    within each slab, then coalesces vertically identical spans.

    Dispatches on the ``REPRO_KERNEL`` switch: the numpy batch merge
    (:func:`repro.geometry.batch.merge_boxes_batch`) by default, the
    interpreted sweep build (:func:`merge_boxes_python`) otherwise.
    Output is identical either way.
    """
    if batch.use_numpy():
        return batch.merge_boxes_batch(boxes)
    return merge_boxes_python(boxes)


def merge_boxes_python(boxes: List[Box]) -> List[Box]:
    """The interpreted sweep-kernel strip merger.

    The slab runs come from the sweep kernel
    (:func:`repro.geometry.slab_decompose`): one y-event sweep carries
    the active intervals, so the cost is event maintenance plus
    output-sensitive run merging instead of the ``O(slabs x boxes)``
    rescan of :func:`merge_boxes_reference`.  Serves as the equivalence
    oracle for the batch kernel's merge.
    """
    if not boxes:
        return []
    slabs: List[Tuple[int, int, Tuple[Tuple[int, int], ...]]] = []
    for y0, y1, runs in slab_decompose({"": boxes}):
        spans = runs[""]
        if spans:
            slabs.append((y0, y1, tuple(spans)))
    return _coalesce_slabs(slabs)


def merge_boxes_reference(boxes: List[Box]) -> List[Box]:
    """The pre-kernel strip merger, retained as an equivalence oracle.

    Rebuilds every slab's intervals by scanning *all* boxes per slab —
    quadratic on real cells — and must produce the identical box list
    to :func:`merge_boxes` on any input.
    """
    if not boxes:
        return []
    ys = sorted({box.ymin for box in boxes} | {box.ymax for box in boxes})
    slabs: List[Tuple[int, int, Tuple[Tuple[int, int], ...]]] = []
    for y0, y1 in zip(ys, ys[1:]):
        if y0 == y1:
            continue
        intervals: List[Tuple[int, int]] = []
        for box in boxes:
            if box.ymin <= y0 and box.ymax >= y1 and box.xmax > box.xmin:
                intervals.append((box.xmin, box.xmax))
        if not intervals:
            continue
        intervals.sort()
        merged = [list(intervals[0])]
        for x0, x1 in intervals[1:]:
            if x0 <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], x1)
            else:
                merged.append([x0, x1])
        slabs.append((y0, y1, tuple((a, b) for a, b in merged)))
    return _coalesce_slabs(slabs)


class FlatLayout:
    """A flattened layout: boxes grouped per layer, plus flattened ports."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.layers: Dict[str, List[Box]] = defaultdict(list)
        self.ports: List[Port] = []
        self.labels: List[Label] = []

    def add(self, layer: str, box: Box) -> None:
        self.layers[layer].append(box)

    def box_count(self) -> int:
        return sum(len(boxes) for boxes in self.layers.values())

    def bounding_box(self) -> Optional[Box]:
        """The union of every box, or None for an empty layout."""
        boxes = [box for layer_boxes in self.layers.values() for box in layer_boxes]
        if not boxes:
            return None
        return Box(
            min(map(_XMIN, boxes)),
            min(map(_YMIN, boxes)),
            max(map(_XMAX, boxes)),
            max(map(_YMAX, boxes)),
        )

    def merged(self) -> "FlatLayout":
        """Return a copy with per-layer boxes merged into maximal strips."""
        out = FlatLayout(self.name)
        for layer, boxes in self.layers.items():
            out.layers[layer] = merge_boxes(boxes)
        out.ports = list(self.ports)
        out.labels = list(self.labels)
        return out

    def area_by_layer(self) -> Dict[str, int]:
        """Exact covered area per layer (computed on merged geometry)."""
        merged = self.merged()
        return {
            layer: sum(box.area for box in boxes)
            for layer, boxes in merged.layers.items()
        }

    def utilisation(self) -> float:
        """Total covered layer area over bounding-box area (>1 possible)."""
        bbox = self.bounding_box()
        if bbox is None or bbox.area == 0:
            return 0.0
        return sum(self.area_by_layer().values()) / bbox.area

    def same_geometry(self, other: "FlatLayout") -> bool:
        """Layer-by-layer equality of covered regions (order independent)."""
        layers = set(self.layers) | set(other.layers)
        for layer in layers:
            mine = merge_boxes(self.layers.get(layer, []))
            theirs = merge_boxes(other.layers.get(layer, []))
            if mine != theirs:
                return False
        return True

    def __repr__(self) -> str:
        return f"FlatLayout({self.name!r}, layers={len(self.layers)}, boxes={self.box_count()})"


def flatten_cell(cell: CellDefinition, merge: bool = False) -> FlatLayout:
    """Flatten a hierarchical cell into a :class:`FlatLayout`."""
    flat = FlatLayout(cell.name)
    layer_box: LayerBox
    for layer_box in cell.flatten(Transform()):
        flat.add(layer_box.layer, layer_box.box)
    flat.ports = list(cell.flatten_ports(Transform()))
    flat.labels = list(cell.flatten_labels(Transform()))
    return flat.merged() if merge else flat
