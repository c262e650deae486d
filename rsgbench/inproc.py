"""The in-process workloads' closed loop: one client, one op at a time.

Each pass runs every op of the catalogue once, in a seeded shuffled
order.  Around each op, outside its clock:

* cyclic garbage left by earlier ops is collected (``runtime.gc_s``,
  ``runtime.gc_objects``), so no op pays for another's full collection;
* the op runs under a :class:`hostprobe.OpClock`, which turns its wall
  time into calibrated seconds with probes taken before, during and
  after it;
* the output is checked (CIF read-back, verdicts); on the first pass
  the output's area and DRC count are recorded.

Each op's calibrated median over the passes is taken first, and the
percentiles across ops after that, so the percentile ranks always hold
the same ops.  With ``trace`` on, passes alternate untraced and traced;
the traced passes feed the per-layer metrics and the two halves give
``obs.trace_overhead_ratio`` (the first pass is then a warm-up only).
"""

import gc
import random
import statistics
import time

import deck
import hostprobe


def quantile(values, q):
    """Inclusive-method quantile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class OpRecord:
    """Everything measured about one op of the catalogue."""

    def __init__(self, op):
        self.op = op
        self.calibrated = {False: [], True: []}  # keyed by "traced"
        self.wall = {False: [], True: []}
        self.failures = []
        self.digest = None
        self.area = None
        self.drc = None


def run_ops(ops, seed, seconds, trace, recorder=None):
    """Run passes over ``ops`` for about ``seconds``; returns a dict of
    raw results (see :func:`summarise`)."""
    rng = random.Random(seed ^ 0x5EED)
    records = [OpRecord(op) for op in ops]
    probes, gc_seconds, gc_objects = [], 0.0, 0
    attempted = 0
    roots = {}
    covered_s = wall_traced_s = 0.0
    factors = {}
    started = time.perf_counter()
    passes = 0
    while True:
        traced = trace and passes % 2 == 1
        # With tracing, pass 0 only warms up (lazy imports, first-use
        # caches), so both halves compare steady-state passes.
        warmup = trace and passes == 0
        order = list(records)
        rng.shuffle(order)
        if traced:
            recorder.install()
        try:
            for record in order:
                if passes and time.perf_counter() - started >= seconds:
                    break
                gc_start = time.perf_counter()
                gc_objects += gc.collect()
                gc_seconds += time.perf_counter() - gc_start
                attempted += 1
                op_key = attempted
                if traced:
                    root = recorder.begin_op(op_key)
                error = None
                clock = hostprobe.OpClock()
                with clock:
                    try:
                        output = record.op.run()
                    except Exception as exc:  # noqa: BLE001 — a failed op, counted
                        error = f"{type(exc).__name__}: {exc}"
                wall = clock.wall
                probes.append(clock.probe_s)
                if traced:
                    covered_s += recorder.end_op()
                    wall_traced_s += clock.elapsed
                    roots[op_key] = (root, record.op.op_id, clock.start, clock.elapsed)
                    factors[op_key] = hostprobe.NOMINAL_S / clock.probe_s
                if error is None:
                    try:
                        digest = record.op.check(output)
                        if record.area is None:
                            record.area, record.drc = deck.quality(deck.output_cell(output))
                            record.digest = digest
                    except Exception as exc:  # noqa: BLE001 — a failed check
                        error = f"check: {type(exc).__name__}: {exc}"
                if error is not None:
                    record.failures.append(error)
                    continue
                if not warmup:
                    record.wall[traced].append(wall)
                    record.calibrated[traced].append(clock.calibrated)
        finally:
            if traced:
                recorder.uninstall()
        passes += 1
        if time.perf_counter() - started >= seconds:
            break
    return {
        "records": records,
        "passes": passes,
        "attempted": attempted,
        "probes": probes,
        "gc_s": gc_seconds,
        "gc_objects": gc_objects,
        "roots": roots,
        "factors": factors,
        "covered_s": covered_s,
        "wall_traced_s": wall_traced_s,
    }


def summarise(raw):
    """End-to-end metrics, the per-op table and the per-layer base."""
    records = raw["records"]
    failed = sum(len(r.failures) for r in records)
    per_op = {}
    for traced in (False, True):
        medians = {
            r.op.op_id: (statistics.median(r.calibrated[traced]),
                         statistics.median(r.wall[traced]))
            for r in records
            if r.calibrated[traced]
        }
        per_op[traced] = medians
    base = per_op[False] or per_op[True]
    calibrated = [value[0] for value in base.values()]
    wall = [value[1] for value in base.values()]
    summary = {
        "attempted": raw["attempted"],
        "failed": failed,
        "passes": raw["passes"],
        "per_op": per_op,
        "failures": {r.op.op_id: r.failures for r in records if r.failures},
        "digests": {r.op.op_id: r.digest for r in records if r.digest},
    }
    if calibrated:
        summary.update(
            op_p50_s=quantile(calibrated, 0.50),
            op_p75_s=quantile(calibrated, 0.75),
            ops_per_s=len(calibrated) / sum(calibrated),
            op_p50_wall_s=quantile(wall, 0.50),
        )
    summary["layout_area"] = sum(r.area for r in records if r.area is not None)
    summary["drc_violations"] = sum(r.drc for r in records if r.drc is not None)
    summary["probe_s"] = statistics.median(raw["probes"]) if raw["probes"] else 0.0
    summary["gc_s"] = raw["gc_s"]
    summary["gc_objects"] = raw["gc_objects"]
    return summary


def layer_values(raw, summary, recorder):
    """Per-layer metrics of the traced passes, per completed traced op.

    Layer times are calibrated with their op's factor, like the op."""
    traced_ops = len(raw["roots"]) or 1
    totals = recorder.layer_totals(raw["factors"])
    values = {
        name: value / traced_ops for name, value in totals.items()
        if not name.startswith("compact.hier_cache")
    }
    lookups = totals.get("compact.hier_cache_lookups", 0)
    values["compact.hier_cache_hit_ratio"] = (
        totals.get("compact.hier_cache_hits", 0) / lookups if lookups else 0.0
    )
    attempted = raw["attempted"] or 1
    values["runtime.gc_s"] = raw["gc_s"] / attempted
    values["runtime.gc_objects"] = raw["gc_objects"] / attempted
    values["host.probe_s"] = summary["probe_s"]
    values["host.op_p50_wall_s"] = summary.get("op_p50_wall_s", 0.0)
    wall = raw["wall_traced_s"]
    values["op.unattributed_ratio"] = (wall - raw["covered_s"]) / wall if wall else 0.0
    plain, traced = summary["per_op"][False], summary["per_op"][True]
    common = [op_id for op_id in traced if op_id in plain]
    values["obs.trace_overhead_ratio"] = (
        sum(traced[i][0] for i in common) / sum(plain[i][0] for i in common)
        if common else 0.0
    )
    return values
