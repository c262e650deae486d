"""Flow benchmark of the Regular Structure Generator.

Run from the root of a source checkout::

    python3 rsgbench/run.py --workload compact_flat --seed 1 --seconds 25 --trace 0

Workloads (all closed loops; see NOTES.md for why each was chosen):

* ``compact_flat`` — one in-process client: flat x-then-y compaction
  of the multiplier (``repro.cli.run_flow``) and seeded PLAs through
  ``generate_pla -> compact_cell -> write_cif``;
* ``verify_sim`` — one in-process client: hierarchical compaction plus
  ``--verify all`` of the multiplier, ``verify_cell`` of seeded PLAs,
  ROMs and decoders, and routed datapath composites;
* ``service_mix`` — ``repro serve --workers 2`` driven by two client
  threads through ``repro.service.ServiceClient``.

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a run that alternates untraced and traced passes.  The
spans of the traced passes are written to
``.rsgbench_work/trace-<workload>.jsonl`` (render them with
``repro.obs.render``), and the run's per-op table, failures and
provenance to ``.rsgbench_work/result-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

import hostprobe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".rsgbench_work")

WORKLOADS = ("compact_flat", "verify_sim", "service_mix")

#: what a fresh interpreter imports before a workload's first op
ENTRY_POINTS = {
    "compact_flat": "repro.cli, repro.pla, repro.compact, repro.layout",
    "verify_sim": "repro.cli, repro.pla, repro.compact, repro.layout,"
    " repro.verify, repro.route, repro.multiplier",
    "service_mix": "repro.cli, repro.service",
}
#: fresh-interpreter import samples per run (setup_s is their median);
#: traced runs and the self-check's tiny deck take fewer
SETUP_SAMPLES = 12
TINY_SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p75_s": "s",
    "ops_per_s": "1/s",
    "ok_ops_ratio": "ratio",
    "peak_rss_mb": "MB",
    "layout_area": "lambda2",
    "drc_violations": "count",
}
PER_LAYER_UNITS = {
    "setup.scipy_s": "s",
    "setup.numpy_s": "s",
    "setup.repro_s": "s",
    "lang.interpret_s": "s",
    "layout.load_sample_s": "s",
    "layout.flatten_s": "s",
    "layout.cif_emit_s": "s",
    "layout.cif_bytes": "bytes",
    "pla.generate_s": "s",
    "compact.flat_s": "s",
    "compact.visibility_s": "s",
    "compact.solve_s": "s",
    "compact.alignment_s": "s",
    "compact.constraint_count": "count",
    "compact.solver_relaxations": "count",
    "compact.alignment_pairs": "count",
    "compact.hier_s": "s",
    "compact.hier_cache_hit_ratio": "ratio",
    "verify.total_s": "s",
    "verify.extract_s": "s",
    "verify.lvs_s": "s",
    "verify.sim_s": "s",
    "multiplier.golden_eval_s": "s",
    "verify.vectors": "count",
    "verify.devices": "count",
    "multiplier.golden_evals": "count",
    "route.compose_s": "s",
    "route.nets": "count",
    "service.submit_s": "s",
    "service.wait_s": "s",
    "service.artifact_s": "s",
    "service.queue_wait_s": "s",
    "service.worker_s": "s",
    "service.warm_p50_s": "s",
    "service.dedup_ratio": "ratio",
    "runtime.gc_s": "s",
    "runtime.gc_objects": "count",
    "host.probe_s": "s",
    "host.op_p50_wall_s": "s",
    "host.setup_wall_s": "s",
    "op.unattributed_ratio": "ratio",
    "obs.trace_overhead_ratio": "ratio",
}


def child_env():
    """The program's environment: this checkout's sources, no tracing
    policy override, temporary files inside the checkout."""
    env = dict(os.environ)
    env.pop("REPRO_TRACE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = WORK
    return env


def setup_samples(workload, env, count):
    """(wall, calibrated) seconds for ``count`` fresh interpreters to
    import the workload's entry points, after one unmeasured run that
    fills the bytecode cache."""
    command = [sys.executable, "-c", f"import {ENTRY_POINTS[workload]}"]
    subprocess.run(command, env=env, cwd=ROOT, check=True)
    return [hostprobe.timed_child(command, env=env, cwd=ROOT) for _ in range(count)]


def import_time_by_package(workload, env):
    """Seconds per top-level package from ``python -X importtime``.

    Each package's time is the sum of the self times of its modules, so
    the packages partition the import; the median over a few runs.
    """
    runs = {"scipy": [], "numpy": [], "repro": []}
    command = [sys.executable, "-X", "importtime", "-c", f"import {ENTRY_POINTS[workload]}"]
    for _ in range(IMPORTTIME_SAMPLES):
        done = subprocess.run(
            command, env=env, cwd=ROOT, check=True, capture_output=True, text=True
        )
        totals = dict.fromkeys(runs, 0.0)
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].split(":")[1])
            except ValueError:
                continue  # the header row
            package = parts[2].strip().split(".")[0]
            if package in totals:
                totals[package] += self_us / 1e6
        for package, seconds in totals.items():
            runs[package].append(seconds)
    return {f"setup.{name}_s": statistics.median(values) for name, values in runs.items()}


def provenance():
    """Where and on what the numbers were measured."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_kernel": os.environ.get("REPRO_KERNEL", "unset (default)"),
        "repro_trace_unset": "REPRO_TRACE" not in os.environ,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def metric_block(values, units):
    missing = [name for name in units if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_in_process(args, workdir):
    import deck
    import inproc
    from layers import Recorder

    workspace = deck.Workspace(os.path.join(workdir, "ops"), args.seed)
    build = deck.compact_flat_ops if args.workload == "compact_flat" else deck.verify_sim_ops
    ops = build(workspace, tiny=args.deck == "tiny")
    if args.inject_malformed:
        ops.append(deck.malformed_op(workspace))
    recorder = Recorder()
    raw = inproc.run_ops(ops, args.seed, args.seconds, args.trace, recorder)
    summary = inproc.summarise(raw)
    values = {
        "op_p50_s": summary.get("op_p50_s", 0.0),
        "op_p75_s": summary.get("op_p75_s", 0.0),
        "ops_per_s": summary.get("ops_per_s", 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layout_area": summary["layout_area"],
        "drc_violations": summary["drc_violations"],
    }
    layer = {}
    if args.trace:
        layer = inproc.layer_values(raw, summary, recorder)
        recorder.write_jsonl(os.path.join(WORK, f"trace-{args.workload}.jsonl"), raw["roots"])
    detail = {
        "passes": summary["passes"],
        "per_op_calibrated_s": {k: v[0] for k, v in summary["per_op"][False].items()},
        "per_op_wall_s": {k: v[1] for k, v in summary["per_op"][False].items()},
        "per_op_traced_calibrated_s": {k: v[0] for k, v in summary["per_op"][True].items()},
        "failures": summary["failures"],
        "cif_sha256": summary["digests"],
        "op_p50_wall_s": summary.get("op_p50_wall_s"),
        "probe_s": summary["probe_s"],
    }
    return summary["attempted"], summary["failed"], values, layer, detail


def run_service(args, workdir):
    import service_load
    from layers import Recorder

    recorder = Recorder()
    raw = service_load.run(
        ROOT, workdir, child_env(), args.seed, args.seconds, args.trace, recorder,
        tiny=args.deck == "tiny",
    )
    summary = service_load.summarise(raw)
    values = {
        "setup_s": summary["setup_s"],
        "op_p50_s": summary.get("op_p50_s", 0.0),
        "op_p75_s": summary.get("op_p75_s", 0.0),
        "ops_per_s": summary["ops_per_s"],
        "peak_rss_mb": service_load.peak_rss_mb(),
        "layout_area": summary["layout_area"],
        "drc_violations": summary["drc_violations"],
    }
    layer = {}
    if args.trace:
        layer = service_load.layer_values(raw, recorder)
        roots = {
            op["op_id"]: (op["root"], op["kind"], 0.0, op["latency"])
            for op in raw["ops"] if op["traced"]
        }
        recorder.write_jsonl(os.path.join(WORK, f"trace-{args.workload}.jsonl"), roots)
    detail = {
        "rounds": summary["rounds"],
        "setup_samples_s": raw["setups"],
        "phases_s": [end - start for _, start, end in raw["phases"]],
        "per_class_latency_s": summary["per_class"],
        "cold_jobs": summary["cold_jobs"],
        "op_p50_wall_s": summary["op_p50_wall_s"],
        "probe_s": summary["probe_s"],
        "failures": summary["failures"],
    }
    return summary["attempted"], summary["failed"], values, layer, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--deck", choices=("full", "tiny"), default="full",
        help="tiny: the self-check's small catalogue",
    )
    parser.add_argument(
        "--inject-malformed", action="store_true",
        help="add an op with a malformed parameter file (self-check)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2

    os.environ.pop("REPRO_TRACE", None)
    os.makedirs(WORK, exist_ok=True)
    os.environ["TMPDIR"] = WORK
    sys.path.insert(0, SRC)
    env = child_env()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        values, layer = {}, {}
        if args.trace:
            layer.update(import_time_by_package(args.workload, env))
        if args.workload != "service_mix":
            count = TINY_SETUP_SAMPLES if args.deck == "tiny" or args.trace else SETUP_SAMPLES
            samples = setup_samples(args.workload, env, count)
            values["setup_s"] = statistics.median(cal for _, cal in samples)
            layer["host.setup_wall_s"] = statistics.median(wall for wall, _ in samples)
        runner = run_service if args.workload == "service_mix" else run_in_process
        attempted, failed, measured, layer_measured, detail = runner(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values.update(measured)
    layer.update(layer_measured)
    values["ok_ops_ratio"] = (attempted - failed) / attempted if attempted else 0.0
    metrics = (
        metric_block(
            {name: layer.get(name, 0.0) for name in PER_LAYER_UNITS}, PER_LAYER_UNITS
        )
        if args.trace
        else metric_block(values, END_TO_END_UNITS)
    )
    detail["provenance"] = provenance()
    detail["metrics"] = metrics
    with open(
        os.path.join(WORK, f"result-{args.workload}-{args.seed}.json"), "w",
        encoding="utf-8",
    ) as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)
    for failure in (detail["failures"].items() if isinstance(detail["failures"], dict)
                    else enumerate(detail["failures"])):
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
