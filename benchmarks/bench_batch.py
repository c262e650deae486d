"""E-BATCH — the numpy batch kernel against the interpreted kernels.

Every hot geometry pass was rebuilt on :mod:`repro.geometry.batch`
(flat int64 arrays, segmented scans, keyed ``searchsorted`` probes)
with its interpreted sweep build retained as the equivalence oracle.
This file records the batch rows of the performance trajectory and
carries the CI guards:

* ``scanline_vec`` — :func:`visibility_constraints_batch` versus the
  ``IntervalFront`` scan (constraint generation only; the shared edge
  variable build is excluded from both sides);
* ``drc_vec`` — :func:`check_layout_batch` versus the per-slab sweep
  checker;
* ``merge_vec`` — :func:`merge_boxes_batch` versus the sweep merger;
* ``extract_vec`` — :func:`wire_components_batch` versus the heap
  sweep on the never-expiring trunk workload;
* ``verify_extract_vec`` — the ``_sweep_batch`` mask walk of
  :func:`repro.verify.extract.extract_netlist` versus the interpreted
  ``_sweep_python`` walk on a generated PLA;
* ``alignment_pairs_vec`` — the sorted-window join behind
  :func:`repro.compact.alignment_pairs` versus the quadratic scan kept
  as its oracle in ``tests/test_sweep_equivalence.py``, on the flat
  boxes of a generated PLA (>= 10x floor);
* ``flat_pass_vec`` — one array-resident :func:`repro.compact.compact_layout`
  x pass plus one y pass over the flat 16x16 multiplier (4x4 in smoke
  mode) versus the object pipeline kept as ``compact_layout_oracle`` in
  ``tests/test_flat_oracle.py``: identical rows, solution, counts and
  geometry at every size, >= 2x at full size.  Full size also records
  ``flat_xy_32x32``, the two ``compact_cell`` passes of a 32x32
  multiplier ``--compact xy`` (flatten included), as a trajectory row.

Each comparison asserts output equality first, then enforces the >= 3x
speedup outside smoke mode (``REPRO_BENCH_SMOKE=1`` runs small sizes
and skips the ratio assertions, keeping the bench-smoke lane fast).
The interpreted rows these are measured against live in
``bench_scanline.py`` / ``bench_sweep.py``, pinned to the ``*_python``
builds.
"""

import os
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import best_time, compare_kernel, sweep_layout_pairs

from repro.compact import TECH_A, build_edge_variables
from repro.compact.drc import check_layout_batch, check_layout_python
from repro.compact.scanline import (
    visibility_constraints_batch,
    visibility_constraints_python,
)
from repro.geometry import batch
from repro.geometry.batch import merge_boxes_batch
from repro.layout.database import merge_boxes_python
from repro.route.extract import wire_components_batch, wire_components_python
from repro.route.style import RouteStyle

from bench_sweep import random_layers, trunk_layers

# The alignment-pairs oracle lives beside the equivalence tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_flat_oracle import assert_same_pass, compact_layout_oracle  # noqa: E402
from test_sweep_equivalence import alignment_pairs_oracle  # noqa: E402

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

pytestmark = pytest.mark.skipif(
    not batch.use_numpy(), reason="numpy batch kernel not selected"
)


def _constraint_keys(system):
    return Counter(
        (c.source, c.target, c.weight, c.kind, tuple(c.pitch_terms))
        for c in system.constraints
    )


def _impl_scanline_vec(report, record):
    n = 400 if SMOKE else 2000
    boxes = sweep_layout_pairs(n)

    s1, c1 = build_edge_variables(boxes)
    count_python = visibility_constraints_python(s1, c1, TECH_A)
    s2, c2 = build_edge_variables(boxes)
    count_batch = visibility_constraints_batch(s2, c2, TECH_A)
    assert count_python == count_batch
    assert _constraint_keys(s1) == _constraint_keys(s2)

    # Time the constraint generation alone: the edge variable build is
    # identical on both sides and would only dilute the kernel ratio.
    import time

    def kernel_time(kernel, repeats=5):
        times = []
        for _ in range(repeats):
            system, comp = build_edge_variables(boxes)
            started = time.perf_counter()
            kernel(system, comp, TECH_A)
            times.append(time.perf_counter() - started)
        return min(times)

    batch_s = kernel_time(visibility_constraints_batch)
    python_s = kernel_time(visibility_constraints_python)
    record("scanline_vec", n, batch_s)
    ratio = python_s / batch_s
    report(
        "E-BATCH scanline, batch vs interpreted kernel:"
        f" {n:>5} boxes: batch {batch_s * 1000:8.1f} ms,"
        f" interpreted {python_s * 1000:8.1f} ms  ({ratio:.1f}x)"
    )
    if not SMOKE:
        assert ratio >= 3.0, (
            f"scanline batch kernel only {ratio:.1f}x at n={n}"
        )


def test_scanline_vec(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_scanline_vec(report, record), rounds=1, iterations=1
    )


def _impl_drc_vec(report, record):
    n = 400 if SMOKE else 2000
    layers = random_layers(n)
    assert Counter(map(str, check_layout_batch(layers, TECH_A))) == Counter(
        map(str, check_layout_python(layers, TECH_A))
    )
    compare_kernel(
        report,
        record,
        "drc_vec",
        n,
        lambda: check_layout_batch(layers, TECH_A),
        lambda: check_layout_python(layers, TECH_A),
        min_ratio=3.0,
        smoke=SMOKE,
        repeats=5,
    )


def test_drc_vec(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_drc_vec(report, record), rounds=1, iterations=1
    )


def _impl_merge_vec(report, record):
    n = 400 if SMOKE else 2000
    boxes = [box for layer in random_layers(n).values() for box in layer]
    assert merge_boxes_batch(boxes) == merge_boxes_python(boxes)
    compare_kernel(
        report,
        record,
        "merge_vec",
        n,
        lambda: merge_boxes_batch(boxes),
        lambda: merge_boxes_python(boxes),
        min_ratio=3.0,
        smoke=SMOKE,
        repeats=5,
    )


def test_merge_vec(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_merge_vec(report, record), rounds=1, iterations=1
    )


def _impl_extract_vec(report, record):
    n = 300 if SMOKE else 1500
    layers = trunk_layers(n)
    style = RouteStyle()
    assert wire_components_batch(layers, style) == wire_components_python(
        layers, style
    )
    compare_kernel(
        report,
        record,
        "extract_vec",
        n,
        lambda: wire_components_batch(layers, style),
        lambda: wire_components_python(layers, style),
        min_ratio=3.0,
        smoke=SMOKE,
        repeats=5,
    )


def test_extract_vec(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_extract_vec(report, record), rounds=1, iterations=1
    )


def _impl_verify_extract_vec(report, record):
    from bench_verify import plane_table

    from repro.pla import generate_pla
    from repro.verify.extract import (
        CONDUCTOR_LAYERS,
        _sweep_batch,
        _sweep_python,
        extract_layers,
    )

    n = 4 if SMOKE else 12
    cell = generate_pla(plane_table(n, n, n))
    layers = extract_layers(cell, None)
    masks = {name: list(layers.get(name, ())) for name in CONDUCTOR_LAYERS}
    masks["cut"] = list(layers.get("cut", ()))
    masks["implant"] = list(layers.get("implant", ()))

    def roots(result):
        sets = result[0]
        return [sets.find(i) for i in range(len(sets.parent))]

    result_python = _sweep_python(masks)
    result_batch = _sweep_batch(masks)
    assert result_python[1:] == result_batch[1:]  # boxes/gates/terminals/...
    assert roots(result_python) == roots(result_batch)
    compare_kernel(
        report,
        record,
        "verify_extract_vec",
        n,
        lambda: _sweep_batch(masks),
        lambda: _sweep_python(masks),
        min_ratio=3.0,
        smoke=SMOKE,
        repeats=5,
    )


def test_verify_extract_vec(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_verify_extract_vec(report, record), rounds=1, iterations=1
    )


def _impl_alignment_pairs_vec(report, record):
    from bench_verify import plane_table

    from repro.compact import alignment_pairs
    from repro.layout import flatten_cell
    from repro.pla import generate_pla

    size = 4 if SMOKE else 12
    layout = flatten_cell(generate_pla(plane_table(size, size, size)))
    _, boxes = build_edge_variables(
        [(layer, box) for layer, items in sorted(layout.layers.items())
         for box in items]
    )
    got = alignment_pairs(boxes)
    expected = alignment_pairs_oracle(boxes)
    assert [(id(a), id(b)) for a, b in got] == [
        (id(a), id(b)) for a, b in expected
    ]
    compare_kernel(
        report,
        record,
        "alignment_pairs_vec",
        len(boxes),
        lambda: alignment_pairs(boxes),
        lambda: alignment_pairs_oracle(boxes),
        min_ratio=10.0,
        smoke=SMOKE,
        repeats=5,
    )


def test_alignment_pairs_vec(benchmark, report, record):
    benchmark.pedantic(
        lambda: _impl_alignment_pairs_vec(report, record), rounds=1, iterations=1
    )


def _impl_flat_pass_vec(report, record, monkeypatch):
    from repro.compact import compact_cell, compact_layout
    from repro.layout import flatten_cell
    from repro.multiplier import generate_multiplier

    size = 4 if SMOKE else 16
    layout = flatten_cell(generate_multiplier(size, size))
    for axis in "xy":
        assert assert_same_pass(monkeypatch, layout, TECH_A, axis=axis) is not None

    def passes(compact):
        return [compact(layout, TECH_A, axis=axis) for axis in "xy"]

    compare_kernel(
        report,
        record,
        "flat_pass_vec",
        layout.box_count(),
        lambda: passes(compact_layout),
        lambda: passes(compact_layout_oracle),
        min_ratio=2.0,
        smoke=SMOKE,
        repeats=5,
    )
    if SMOKE:
        return
    cell = generate_multiplier(32, 32)

    def compact_xy():
        compacted = cell
        for axis in "xy":
            compacted, _ = compact_cell(compacted, TECH_A, axis=axis)
        return compacted

    seconds = best_time(compact_xy, repeats=3)
    record("flat_xy_32x32", flatten_cell(cell).box_count(), seconds)
    report(f"E-BATCH 32x32 multiplier flat x-then-y compaction: {seconds:.2f} s")


def test_flat_pass_vec(benchmark, report, record, monkeypatch):
    benchmark.pedantic(
        lambda: _impl_flat_pass_vec(report, record, monkeypatch),
        rounds=1,
        iterations=1,
    )

