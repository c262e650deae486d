"""The ``service_mix`` workload: ``repro serve`` driven by two clients.

Each round starts ``repro serve --workers 2`` on a fresh store root,
times the start until ``/healthz`` answers ok (``setup_s``), runs one
warm-up job per worker, and then lets two client threads work through
the round's submissions in a closed loop.  Two submissions in three
are *cold*: distinct hierarchically compacted multiplier specs that
wait for a worker.  The third repeats a spec the same client finished
earlier, which the service must answer ``done`` at submit (a dedup
hit).  Jobs are waited for with a fixed 10 ms poll, so a faster
pipeline shows as a shorter latency instead of landing on a step of
the client's doubling backoff.  Every round ends with SIGTERM, and the
daemon must drain and exit 0.
"""

import bisect
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time

from repro.layout import read_cif
from repro.obs.render import spans_from_jsonl
from repro.service import JobSpec, ServiceClient

import hostprobe
from inproc import quantile

#: cold job classes: (xsize, ysize, tech).  Latency percentiles are
#: taken over all cold jobs of a run (see NOTES.md for why not over
#: per-class medians); per-class costs are in NOTES.md.
COLD_CLASSES = (
    (4, 4, "A"), (5, 5, "B"), (6, 6, "A"), (8, 10, "A"),
    (10, 8, "B"), (12, 12, "A"), (9, 16, "B"), (16, 16, "A"),
)
#: cold jobs per class and round; they differ only in a ``variant``
#: binding the design ignores, so they are distinct jobs of equal cost
VARIANTS = 4
TINY_CLASSES = ((3, 3, "A"), (4, 4, "B"))
POLL_S = 0.01
#: the round must leave time for the daemon to drain and stop
STOP_TIMEOUT_S = 30.0


class Failure(Exception):
    """A service op whose output failed its check."""


def spec_for(rng, xsize, ysize, tech):
    """A hierarchically compacted multiplier job with a seeded variant tag."""
    from deck import multiplier_parameter_text

    return JobSpec(
        kind="multiplier",
        parameters=multiplier_parameter_text(rng, xsize, ysize)
        + f"variant={rng.getrandbits(30)}\n",
        tech=tech,
        compact="hier",
    )


def check_cif_bytes(payload, cell_name, instances):
    """The CIF artifact must parse and hold the reported cell."""
    table = read_cif(payload.decode("utf-8"))
    if cell_name not in table:
        raise Failure(f"CIF lacks cell {cell_name!r}")
    found = table.lookup(cell_name).count_instances(recursive=True)
    if found != instances:
        raise Failure(f"CIF has {found} instances, result says {instances}")


class Round:
    """One daemon life: start, warm up, serve the clients, stop."""

    def __init__(self, root, env, workdir):
        self.root = root
        self.env = env
        self.workdir = workdir
        self.process = None
        self.url = None

    def start(self):
        """Start the daemon; returns (wall, calibrated) seconds until
        ``/healthz`` is ok, calibrated with host probes sampled while
        waiting."""
        samples = []
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", self.workdir,
             "--port", "0", "--workers", "2"],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        while not select.select([self.process.stdout], [], [], hostprobe.INTERVAL_S)[0]:
            samples.append(hostprobe.probe_cpu())
        line = self.process.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise Failure(f"daemon did not start: {line!r}")
        self.url = line.split()[2]
        client = ServiceClient(self.url)
        deadline = time.monotonic() + 60
        while not client.health().get("ok"):
            if time.monotonic() > deadline:
                raise Failure("daemon never reported healthy")
            samples.append(hostprobe.probe_cpu())
        wall = time.perf_counter() - started
        samples = samples or [hostprobe.probe_cpu()]
        return wall, wall * hostprobe.NOMINAL_S / statistics.fmean(samples)

    def stop(self):
        """SIGTERM and wait; returns a failure string or ``None``.

        The daemon runs in its own session, so whatever is left of it
        (workers of a daemon that died, a daemon that did not drain in
        time) is killed with its process group before this returns.
        """
        if self.process is None:
            return None
        process, self.process = self.process, None
        process.send_signal(signal.SIGTERM)
        try:
            out, err = process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out, err = "", "no exit within the drain timeout"
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.stdout.close()
            process.stderr.close()
            process.wait()
        if process.returncode != 0 or "clean shutdown" not in out:
            return f"unclean shutdown: exit {process.returncode}, {err.strip()[-200:]!r}"
        return None


def client_plan(rng, specs):
    """One client's submissions: two cold, then a repeat of its own.

    ``specs`` holds ``(label, JobSpec)`` pairs."""
    plan = []
    done = []
    for index, entry in enumerate(specs):
        plan.append(("cold",) + entry)
        done.append(entry)
        if index % 2 == 1:
            plan.append(("warm",) + rng.choice(done))
    return plan


def run_client(url, plan, out, recorder, traced):
    """Work through ``plan``; appends per-op dicts to ``out``."""
    client = ServiceClient(url)
    digests = {}
    for kind, label, spec in plan:
        op = {"kind": kind, "label": label}
        if traced:
            op["root"] = recorder.begin_op(id(op))
        start = op["start"] = time.perf_counter()
        try:
            submitted = client.submit(spec)
            job = submitted["job"]
            if kind == "warm":
                if submitted.get("state") != "done" or not submitted.get("deduplicated"):
                    raise Failure(f"repeat answered {submitted.get('state')!r} at submit")
                result = None
            else:
                result = client.wait(
                    job, poll_interval=POLL_S, max_poll_interval=POLL_S
                )
            cif = client.artifact(job, "layout.cif")
            op["latency"] = time.perf_counter() - start
            op["job"] = job
            if kind == "cold":
                body = result["result"]
                check_cif_bytes(cif, body["cell_name"], body["instance_count"])
                digests[job] = cif
                op["status"] = result
                op["cif"] = cif
            elif cif != digests.get(job):
                raise Failure("repeat served a different CIF")
        except Exception as exc:  # noqa: BLE001 — a failed op, counted
            op.setdefault("latency", time.perf_counter() - start)
            op["error"] = f"{type(exc).__name__}: {exc}"
        if traced:
            op["covered"] = recorder.end_op()
            op["op_id"] = id(op)
        out.append(op)


def run(root, workdir, env, seed, seconds, trace, recorder, tiny=False):
    """Rounds for about ``seconds``; returns raw results."""
    rng = random.Random(seed)
    catalogue = TINY_CLASSES if tiny else COLD_CLASSES
    setups, phases, ops, failures, samples = [], [], [], [], []
    job_traces = []
    rounds = 0
    started = time.perf_counter()
    while rounds < 2 or (time.perf_counter() - started) * (rounds + 1) / rounds <= seconds:
        traced = trace and rounds % 2 == 1
        specs = [
            (f"{x}x{y}{tech}", spec_for(rng, x, y, tech))
            for x, y, tech in catalogue
            for _ in range(VARIANTS)
        ]
        rng.shuffle(specs)
        plans = [client_plan(rng, specs[0::2]), client_plan(rng, specs[1::2])]
        daemon = Round(root, env, os.path.join(workdir, f"store-{rounds}"))
        try:
            setups.append(daemon.start())
            client = ServiceClient(daemon.url)
            warmups = [
                client.submit(spec_for(rng, 3, 3, tech))["job"] for tech in "AB"
            ]
            for job in warmups:
                client.wait(job, poll_interval=POLL_S, max_poll_interval=POLL_S)
            if traced:
                recorder.install()
            round_ops = []
            phase_start = time.perf_counter()
            try:
                threads = [
                    threading.Thread(
                        target=run_client,
                        args=(daemon.url, plan, round_ops, recorder, traced),
                    )
                    for plan in plans
                ]
                for thread in threads:
                    thread.start()
                while any(thread.is_alive() for thread in threads):
                    samples.append((time.perf_counter(), hostprobe.probe_cpu()))
                    time.sleep(hostprobe.INTERVAL_S)
                for thread in threads:
                    thread.join()
            finally:
                if traced:
                    recorder.uninstall()
            phases.append((traced, phase_start, time.perf_counter()))
            for op in round_ops:
                op["traced"] = traced
                op["round"] = rounds
                if op.get("kind") == "cold" and "error" not in op:
                    try:
                        check_artifacts(client, op, job_traces if traced else None)
                    except Exception as exc:  # noqa: BLE001 — a failed check
                        op["error"] = f"artifacts: {type(exc).__name__}: {exc}"
            ops.extend(round_ops)
        except Exception as exc:  # noqa: BLE001 — the round could not run
            failures.append(f"round {rounds}: {type(exc).__name__}: {exc}")
        finally:
            stop_failure = daemon.stop()
            if stop_failure:
                failures.append(f"round {rounds}: {stop_failure}")
        rounds += 1
    return {
        "setups": setups, "phases": phases, "samples": samples, "ops": ops, "failures": failures,
        "rounds": rounds, "job_traces": job_traces,
    }


def check_artifacts(client, op, job_traces):
    """``result.json`` and ``trace.jsonl`` must parse; keeps the trace."""
    import json

    result = json.loads(client.artifact(op["job"], "result.json"))
    if result.get("cell_name") != op["status"]["result"]["cell_name"]:
        raise Failure("result.json names another cell")
    spans = spans_from_jsonl(client.artifact(op["job"], "trace.jsonl"))
    if not spans:
        raise Failure("trace.jsonl holds no spans")
    if job_traces is not None:
        job_traces.append((spans, result))


class ProbeIndex:
    """Host-probe samples of a run, to calibrate intervals of it."""

    def __init__(self, samples):
        self.samples = sorted(samples) or [(0.0, hostprobe.NOMINAL_S)]
        self.times = [t for t, _ in self.samples]

    def mean_between(self, start, end):
        """Mean probe over ``[start, end]`` (widened to the nearest
        samples when none fell inside)."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        low, high = max(0, min(low, high - 1)), max(high, low + 1)
        window = [p for _, p in self.samples[low:high]]
        return statistics.fmean(window)

    def calibrate(self, start, end):
        """``end - start`` in calibrated seconds."""
        return (end - start) * hostprobe.NOMINAL_S / self.mean_between(start, end)


def peak_rss_mb():
    """Largest resident set of any reaped child (daemon or worker)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def summarise(raw):
    """End-to-end metrics and the per-class latency table."""
    ops = raw["ops"]
    good = [op for op in ops if "error" not in op]
    failed = len(ops) - len(good) + len(raw["failures"])
    attempted = len(ops) + len(raw["failures"])
    cold = [op for op in good if op["kind"] == "cold" and not op["traced"]]
    if not cold:  # a traced-only run: use every cold op
        cold = [op for op in good if op["kind"] == "cold"]
    by_class = {}
    for op in cold:
        by_class.setdefault(op["label"], []).append(op["latency"])
    per_class = {label: statistics.median(values) for label, values in by_class.items()}
    probe_at = ProbeIndex(raw["samples"])
    latencies = [probe_at.calibrate(op["start"], op["start"] + op["latency"]) for op in cold]
    untraced_phase = sum(
        probe_at.calibrate(start, end) for traced, start, end in raw["phases"] if not traced
    )
    untraced_ok = sum(1 for op in good if not op["traced"])
    summary = {
        "attempted": max(attempted, 1),
        "failed": failed,
        "setup_s": statistics.median(cal for _, cal in raw["setups"]) if raw["setups"] else 0.0,
        "ops_per_s": untraced_ok / untraced_phase if untraced_phase else 0.0,
        "rounds": raw["rounds"],
        "per_class": per_class,
        "cold_jobs": len(latencies),
        "op_p50_wall_s": quantile([op["latency"] for op in cold], 0.5) if cold else 0.0,
        "probe_s": statistics.median(p for _, p in probe_at.samples),
        "failures": raw["failures"] + [op["error"] for op in ops if "error" in op],
    }
    if latencies:
        summary["op_p50_s"] = quantile(latencies, 0.50)
        summary["op_p75_s"] = quantile(latencies, 0.75)
    area = drc = 0
    from deck import quality

    first_round = [op for op in cold if op["round"] == 0]
    for op in first_round:
        table = read_cif(op["cif"].decode("utf-8"))
        cell_area, cell_drc = quality(table.lookup(op["status"]["result"]["cell_name"]))
        area += cell_area
        drc += cell_drc
    summary["layout_area"] = area
    summary["drc_violations"] = drc
    return summary


def layer_values(raw, recorder):
    """The service's per-layer metrics, per completed traced op."""
    traced = [op for op in raw["ops"] if op["traced"] and "error" not in op]
    cold = [op for op in traced if op["kind"] == "cold"]
    warm = [op for op in raw["ops"] if op["kind"] == "warm" and "error" not in op]
    count = max(len(traced), 1)
    values = {}
    totals = recorder.layer_totals()
    for name in ("service.submit_s", "service.wait_s", "service.artifact_s"):
        values[name] = totals.get(name, 0.0) / count
    waits = [op["status"]["started_at"] - op["status"]["submitted_at"] for op in cold]
    works = [op["status"]["finished_at"] - op["status"]["started_at"] for op in cold]
    values["service.queue_wait_s"] = statistics.fmean(waits) if waits else 0.0
    values["service.worker_s"] = statistics.fmean(works) if works else 0.0
    values["service.warm_p50_s"] = (
        quantile([op["latency"] for op in warm], 0.5) if warm else 0.0
    )
    submissions = [op for op in raw["ops"] if "error" not in op]
    values["service.dedup_ratio"] = (
        sum(1 for op in submissions if op["kind"] == "warm") / len(submissions)
        if submissions else 0.0
    )
    stage_map = {
        "job.generate": "lang.interpret_s",
        "job.compact": "compact.hier_s",
        "job.emit": "layout.cif_emit_s",
    }
    hits = lookups = 0
    jobs = max(len(raw["job_traces"]), 1)
    for spans, result in raw["job_traces"]:
        for span in spans:
            metric = stage_map.get(span.name)
            if metric:
                values[metric] = values.get(metric, 0.0) + span.duration_s / jobs
        pipeline = result.get("pipeline") or {}
        hits += pipeline.get("cache_hits", 0)
        lookups += pipeline.get("cache_hits", 0) + pipeline.get("cache_misses", 0)
    values["compact.hier_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    values["host.probe_s"] = (
        statistics.median(p for _, p in raw["samples"]) if raw["samples"] else 0.0
    )
    plain_cold = [
        op["latency"] for op in raw["ops"]
        if op["kind"] == "cold" and not op["traced"] and "error" not in op
    ]
    values["host.op_p50_wall_s"] = quantile(plain_cold, 0.5) if plain_cold else 0.0
    values["host.setup_wall_s"] = (
        statistics.median(wall for wall, _ in raw["setups"]) if raw["setups"] else 0.0
    )
    latency = sum(op["latency"] for op in traced)
    covered = sum(op["covered"] for op in traced)
    values["op.unattributed_ratio"] = (latency - covered) / latency if latency else 0.0
    traced_lat = [op["latency"] for op in cold]
    values["obs.trace_overhead_ratio"] = (
        statistics.median(traced_lat) / statistics.median(plain_cold)
        if traced_lat and plain_cold else 0.0
    )
    return values
