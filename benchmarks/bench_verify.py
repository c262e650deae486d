"""E-VERIFY — silicon verification: flat versus hierarchical extraction.

The verification analogue of the compact-once/stamp-many experiment
(bench_hierarchy): a generated PLA plane is a handful of distinct
crosspoint tiles stamped once per literal, so mask-level extraction
should pay per *distinct tile*, not per instance.

* **flat vs hier** — extract an n x n PLA plane (n inputs, n product
  terms, n outputs; the acceptance workload is the 8x8 array) both
  ways, assert LVS equivalence, and at full sizes enforce the >= 3x
  acceptance bar for the hierarchical extractor.  Rows ``verify_flat``
  / ``verify_hier`` land in ``BENCH_compaction.json``.  The timed
  comparison is pinned to the interpreted geometry kernel
  (``REPRO_KERNEL=python``): the bar documents the structural
  extract-once/stamp-many win, which the numpy batch kernel's
  constant-factor speedup of the *flat* mask walk (its
  ``verify_extract_vec`` row in ``bench_batch.py``) would otherwise
  mask — small per-tile extractions amortize no batch export.
* **scaling guard** (runs in smoke mode, fails CI) — doubling the
  instance count (twice the product terms) must grow hierarchical
  extraction < 3x: the tile set is unchanged, so only stamping and
  stitching may grow.
* **cached re-verification** — a second hierarchical run against a
  warm :class:`~repro.compact.CompactionCache` re-uses every tile
  extraction (row ``verify_hier_cached``); asserted to hit the cache,
  with the wall-clock gain recorded rather than asserted (tile
  extraction is already cheap, so the cache's value is cross-run and
  on-disk persistence).

Set ``REPRO_BENCH_SMOKE=1`` to trim to the smallest size (the 3x
speedup assertion is skipped there; the scaling guard still runs).
"""

import os
import random
from contextlib import contextmanager

from conftest import best_time, doubling_ratio

from repro.compact import CompactionCache
from repro.pla import TruthTable, generate_pla
from repro.verify import compare_netlists, extract_netlist, extract_netlist_hier

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

SIZES = [4] if SMOKE else [4, 8, 12]
#: the acceptance workload: hier must beat flat >= 3x here
ACCEPTANCE_N = 8
SPEEDUP_FLOOR = 3.0
SCALING_LIMIT = 3.0


def plane_table(inputs, terms, outputs, seed=7):
    """A deterministic random personality with no empty rows."""
    rng = random.Random(seed)
    ands = []
    for _ in range(terms):
        row = "".join(rng.choice("10-") for _ in range(inputs))
        if set(row) == {"-"}:
            row = "1" + row[1:]
        ands.append(row)
    ors = []
    for _ in range(terms):
        row = "".join(rng.choice("10") for _ in range(outputs))
        if "1" not in row:
            row = "1" + row[1:]
        ors.append(row)
    return TruthTable(ands, ors)


def build(n, terms=None):
    return generate_pla(plane_table(n, terms or n, n), name=f"bench_pla_{n}_{terms}")


@contextmanager
def interpreted_kernel():
    """Pin the geometry kernel to ``python`` for a timed comparison."""
    previous = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = "python"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = previous


def test_flat_vs_hier(report, record):
    rows = []
    for n in SIZES:
        cell = build(n)
        with interpreted_kernel():
            flat_time = best_time(lambda: extract_netlist(cell))
            hier_time = best_time(lambda: extract_netlist_hier(cell))
        # LVS equivalence holds under the shipping (default) kernel too.
        assert compare_netlists(
            extract_netlist_hier(cell), extract_netlist(cell)
        ).matched
        record("verify_flat", n, flat_time)
        record("verify_hier", n, hier_time)
        ratio = flat_time / hier_time
        rows.append(
            f"  {n:>3} x {n}   flat {flat_time * 1000:8.2f} ms"
            f"   hier {hier_time * 1000:8.2f} ms   {ratio:5.1f}x"
        )
        if not SMOKE and n == ACCEPTANCE_N:
            assert ratio >= SPEEDUP_FLOOR, (
                f"hierarchical extraction only {ratio:.1f}x faster than flat"
                f" on the {n}x{n} array (need >= {SPEEDUP_FLOOR}x)"
            )
    report("E-VERIFY: flat vs hierarchical mask extraction", *rows)


def test_hier_scaling_guard(report, record):
    """Doubling the stamped instances must grow hier time < 3x."""
    n = 4 if SMOKE else 8
    small = build(n, terms=n)
    large = build(n, terms=2 * n)

    def measure(cell):
        return best_time(lambda: extract_netlist_hier(cell))

    ratio, t_small, t_large = doubling_ratio(
        lambda cell: measure(cell), small, large, SCALING_LIMIT
    )
    record("verify_hier_scale", n, t_small)
    record("verify_hier_scale", 2 * n, t_large)
    report(
        "E-VERIFY: instance-doubling scaling guard",
        f"  {n} terms -> {2 * n} terms: {t_small * 1000:.2f} ms ->"
        f" {t_large * 1000:.2f} ms ({ratio:.2f}x, limit {SCALING_LIMIT}x)",
    )
    assert ratio < SCALING_LIMIT, (
        f"hierarchical extraction grew {ratio:.2f}x on doubled instances"
    )


def test_cached_reverification(report, record):
    n = SIZES[-1]
    cell = build(n)
    cache = CompactionCache()
    cold = best_time(lambda: extract_netlist_hier(cell, cache=cache))
    assert cache.misses > 0
    warm = best_time(lambda: extract_netlist_hier(cell, cache=cache))
    assert cache.hits > 0, "second run must reuse cached tile extractions"
    record("verify_hier_cached", n, warm)
    report(
        "E-VERIFY: cached re-verification",
        f"  {n} x {n}   cold {cold * 1000:8.2f} ms   warm {warm * 1000:8.2f} ms",
    )


#: lane-packed golden evaluation must beat per-pair evaluation by this
LANES_FLOOR = 10.0
#: compile-once relaxation must beat per-call simulation by this
COMPILED_FLOOR = 1.5


def test_verify_sim_lanes(report, record):
    """Lane-packed vs per-pair golden evaluation, compiled vs per-call
    switch simulation — the two halves of the verify ``sim`` stage.

    * multiplier: the sampled 8x8 check (4096 vectors, the
      ``verify_multiplier`` seed) in one ``multiply_many`` pass against
      one ``Netlist.evaluate`` per pair;
    * PLA: every vector of an 8-input plane relaxed on one
      :class:`~repro.verify.CompiledNetlist` against :func:`simulate`
      rebuilding the adjacency per vector.

    Both assert oracle equality (products; every net value) at every
    size; the floors apply at full size only.  Rows
    ``verify_sim_lanes_mult`` / ``verify_sim_lanes_pla`` and their
    ``*_reference`` counterparts land in ``BENCH_compaction.json``.
    """
    from repro.multiplier import build_baugh_wooley, from_bits, multiply_many, to_bits, to_signed
    from repro.verify import CompiledNetlist, exhaustive_vectors, sample_vectors, simulate
    from repro.verify.driver import pla_layout_netlist

    size = 8
    count = 512 if SMOKE else 4096
    golden = build_baugh_wooley(size, size)
    pairs = [
        (from_bits(list(bits[:size])), from_bits(list(bits[size:])))
        for bits in sample_vectors(2 * size, count, seed=1 << (2 * size))
    ]

    def per_pair():
        products = []
        for a, b in pairs:
            values = {f"a{i}": bit for i, bit in enumerate(to_bits(a, size))}
            values.update({f"b{j}": bit for j, bit in enumerate(to_bits(b, size))})
            outputs = golden.evaluate(values)
            raw = from_bits([outputs[f"p{k}"] for k in range(2 * size)])
            products.append(to_signed(raw, 2 * size))
        return products

    assert multiply_many(golden, pairs, size, size) == per_pair()
    repeats = 1 if SMOKE else 3
    packed_s = best_time(lambda: multiply_many(golden, pairs, size, size), repeats)
    per_pair_s = best_time(per_pair, repeats)
    record("verify_sim_lanes_mult", count, packed_s)
    record("verify_sim_lanes_mult_reference", count, per_pair_s)

    n = 4 if SMOKE else 8
    netlist = pla_layout_netlist(build(n))
    forced = [dict(zip(netlist.inputs, bits)) for bits in exhaustive_vectors(n)]

    def compiled():
        relaxed = CompiledNetlist(netlist)
        return [relaxed.relax(vector) for vector in forced]

    def per_call():
        return [simulate(netlist, vector) for vector in forced]

    assert compiled() == per_call()
    compiled_s = best_time(compiled, repeats)
    per_call_s = best_time(per_call, repeats)
    record("verify_sim_lanes_pla", len(forced), compiled_s)
    record("verify_sim_lanes_pla_reference", len(forced), per_call_s)

    lanes_ratio = per_pair_s / packed_s
    compiled_ratio = per_call_s / compiled_s
    report(
        "E-VERIFY: lane-packed golden model and compile-once relaxation",
        f"  multiplier {size}x{size}, {count} vectors: one pass"
        f" {packed_s * 1000:8.2f} ms, per pair {per_pair_s * 1000:8.2f} ms"
        f"  ({lanes_ratio:.1f}x)",
        f"  PLA {n} x {n}, {len(forced)} vectors: compiled"
        f" {compiled_s * 1000:8.2f} ms, per call {per_call_s * 1000:8.2f} ms"
        f"  ({compiled_ratio:.1f}x)",
    )
    if not SMOKE:
        assert lanes_ratio >= LANES_FLOOR, (
            f"lane-packed evaluation only {lanes_ratio:.1f}x over per-pair"
        )
        assert compiled_ratio >= COMPILED_FLOOR, (
            f"compiled relaxation only {compiled_ratio:.1f}x over per-call"
        )
