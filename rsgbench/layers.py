"""Benchmark-side tracing: wrappers around each layer's public functions.

Nothing under ``src/`` changes.  :class:`Recorder` replaces a layer's
function at every ``repro`` module attribute that holds it (and
methods on their class), so call sites that resolve the name at call
time reach the wrapper.  Each call records one span: name, start,
duration, self time, parent span and op id, plus counts read from the
call's result.  Spans stay in memory and are written when the run
ends, in the JSONL form of ``repro.obs`` (``repro.obs.render``).

Span names are the per-layer metric names without the ``_s`` suffix.
"""

import functools
import importlib
import os
import sys
import threading
import time


def _compact_layout_counts(args, kwargs, result):
    stats = result.stats
    return {
        "compact.constraint_count": result.constraint_count,
        "compact.solver_relaxations": stats.relaxations if stats else 0,
    }


def _hier_counts(args, kwargs, result):
    report = args[0].last_report
    return {
        "compact.hier_cache_hits": report.cache_hits,
        "compact.hier_cache_lookups": report.cache_hits + report.cache_misses,
    }


def _report_counts(args, kwargs, result):
    if isinstance(result, list):  # verify_composite: the mismatch list
        return {}
    return {"verify.vectors": result.vectors_checked, "verify.devices": result.devices}


def _cif_bytes(args, kwargs, result):
    target = args[1] if len(args) > 1 else kwargs.get("stream")
    if isinstance(target, str):
        return {"layout.cif_bytes": os.path.getsize(target)}
    return {}


#: (span name, module, attribute, counts(args, kwargs, result) or None);
#: an attribute ``Class.method`` wraps the method on the class.
TARGETS = (
    ("lang.interpret", "repro.lang.interpreter", "Interpreter.run", None),
    ("layout.load_sample", "repro.layout.sample", "load_sample", None),
    ("layout.load_sample", "repro.layout.sample", "loads_sample", None),
    ("layout.flatten", "repro.layout.database", "flatten_cell", None),
    ("layout.cif_emit", "repro.layout.cif", "write_cif", _cif_bytes),
    ("layout.cif_emit", "repro.layout.cif", "cif_text",
     lambda a, k, r: {"layout.cif_bytes": len(r)}),
    ("pla.generate", "repro.pla.generator", "generate_pla", None),
    ("pla.generate", "repro.pla.generator", "generate_decoder", None),
    ("pla.generate", "repro.pla.rom", "generate_rom", None),
    ("multiplier.generate", "repro.multiplier.generator", "generate_multiplier", None),
    ("compact.flat", "repro.compact.flat", "compact_cell", None),
    ("compact.layout", "repro.compact.flat", "compact_layout", _compact_layout_counts),
    ("compact.visibility", "repro.compact.scanline", "visibility_constraints", None),
    ("compact.solve", "repro.compact.solver", "solve_longest_path", None),
    ("compact.alignment", "repro.compact.rubberband", "alignment_pairs",
     lambda a, k, r: {"compact.alignment_pairs": len(r)}),
    ("compact.hier", "repro.compact.pipeline", "HierarchicalCompactor.compact",
     _hier_counts),
    ("verify.total", "repro.verify.driver", "verify_cell", _report_counts),
    ("verify.total", "repro.route.compose", "verify_composite", _report_counts),
    ("verify.extract", "repro.verify.extract", "extract_netlist", None),
    ("verify.extract", "repro.verify.hier", "extract_netlist_hier", None),
    ("verify.extract", "repro.verify.cellgraph", "cell_graph_netlist", None),
    ("verify.lvs", "repro.verify.lvs", "compare_netlists", None),
    ("verify.sim", "repro.verify.switchsim", "simulate", None),
    ("verify.sim", "repro.multiplier.baughwooley", "multiply", None),
    ("multiplier.golden_eval", "repro.multiplier.netlist", "Netlist.evaluate",
     lambda a, k, r: {"multiplier.golden_evals": 1}),
    ("route.compose", "repro.route.compose", "compose",
     lambda a, k, r: {"route.nets": len(r[1].nets)}),
    ("service.submit", "repro.service.client", "ServiceClient.submit", None),
    ("service.wait", "repro.service.client", "ServiceClient.wait", None),
    ("service.artifact", "repro.service.client", "ServiceClient.artifact", None),
)


class Recorder:
    """Installs the wrappers and collects the spans of the traced ops."""

    def __init__(self):
        self.spans = []  # (name, op_id, span_id, parent_id, start, dur, self, counts)
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._installed = []  # (owner, attribute, original)
        self._epoch = time.time() - time.perf_counter()

    # -- op scope ------------------------------------------------------
    def begin_op(self, op_id):
        """Open an op root; returns its span id."""
        root = self._new_id()
        self._local.stack = [[root, "op", 0.0]]
        self._local.op_id = op_id
        return root

    def end_op(self):
        """Close the op root; returns seconds covered by top-level spans."""
        covered = self._local.stack[0][2]
        self._local.stack = None
        return covered

    def _new_id(self):
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    # -- wrapping ------------------------------------------------------
    def _wrapper(self, name, function, counts):
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if not stack:
                return function(*args, **kwargs)
            span_name = name
            if name == "compact.flat" and any(f[1] == "compact.hier" for f in stack):
                span_name = "compact.leaf"
            parent = stack[-1]
            frame = [recorder._new_id(), span_name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                parent[2] += duration
            recorder.spans.append((
                span_name, recorder._local.op_id, frame[0], parent[0], start,
                duration, duration - frame[2],
                counts(args, kwargs, result) if counts else None,
            ))
            return result

        traced.__rsgbench_original__ = function
        return traced

    def install(self):
        """Wrap every target at every ``repro`` attribute that holds it."""
        for name, module_name, attribute, counts in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                setattr(owner, method, self._wrapper(name, original, counts))
                self._installed.append((owner, method, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrapper(name, original, counts)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if not getattr(loaded, "__name__", "").startswith("repro") or not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        setattr(loaded, key, wrapper)
                        self._installed.append((loaded, key, original))

    def uninstall(self):
        """Restore every original, including names bound to a wrapper
        by modules imported while the wrappers were installed."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed = []
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(getattr(loaded, "__dict__", {}).items()):
                original = getattr(value, "__rsgbench_original__", None)
                if original is not None:
                    setattr(loaded, key, original)

    # -- output --------------------------------------------------------
    def layer_totals(self, scale_by_op=None):
        """Per-metric totals: self seconds per span name, inclusive
        seconds for ``compact.flat``/``compact.hier``/``verify.total``,
        and summed counts.  ``scale_by_op`` maps op id to the factor
        that turns its wall seconds into calibrated seconds."""
        inclusive = {"compact.flat", "compact.hier", "verify.total"}
        totals = {}
        for name, op_id, _, _, _, duration, self_s, counts in self.spans:
            factor = scale_by_op.get(op_id, 1.0) if scale_by_op else 1.0
            seconds = duration if name in inclusive else self_s
            totals[name + "_s"] = totals.get(name + "_s", 0.0) + seconds * factor
            for key, value in (counts or {}).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def write_jsonl(self, path, roots):
        """Write the spans (plus one root per op) in ``repro.obs`` JSONL.

        ``roots`` maps op id to ``(root span id, op name, start, wall)``.
        """
        from repro.obs.render import spans_to_jsonl
        from repro.obs.trace import Span

        spans = []
        for op_id, (root, op_name, start, wall) in roots.items():
            spans.append(Span(
                name=f"op.{op_name}", trace_id=f"{op_id:016x}",
                span_id=f"{root:016x}", start_s=start + self._epoch,
                duration_s=wall,
            ))
        for name, op_id, span_id, parent_id, start, duration, _, counts in self.spans:
            spans.append(Span(
                name=name, trace_id=f"{op_id:016x}", span_id=f"{span_id:016x}",
                parent_id=f"{parent_id:016x}", start_s=start + self._epoch,
                duration_s=duration, attributes=dict(counts or {}),
            ))
        with open(path, "wb") as handle:
            handle.write(spans_to_jsonl(spans))
