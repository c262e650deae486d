"""Quick self-check of the benchmark on its tiny deck (about a minute).

    python3 rsgbench/selfcheck.py

Asserts that:

* every end-to-end and per-layer metric of ``BENCHMARK.json`` is
  printed with its unit, for every workload, and every op passes;
* the output checks bite: a CIF that does not read back, a vacuous or
  failing verdict, an artifact that does not parse and a daemon that
  does not shut down cleanly are all reported as failures;
* a malformed parameter file counts as a failed op;
* two runs with the same seed write CIFs with identical sha256 digests;
* provenance is recorded (git SHA, python and numpy versions,
  ``REPRO_KERNEL``, ``REPRO_TRACE`` unset, ``nproc``);
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".rsgbench_work")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def bench(workload, seed=1, trace=0, extra=()):
    """Run ``run.py`` on the tiny deck; returns (result line, detail)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--deck", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    with open(os.path.join(WORK, f"result-{workload}-{seed}.json"), encoding="utf-8") as handle:
        return result, json.load(handle)


def expect_failure(check, *args):
    try:
        check(*args)
    except Exception:  # noqa: BLE001 — any rejection counts
        return
    raise AssertionError(f"{check.__name__} accepted a bad output")


def check_metrics(benchmark):
    for workload in ("compact_flat", "verify_sim", "service_mix"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, detail = bench(workload, trace=trace)
            want = {entry["name"]: entry["unit"] for entry in benchmark[key]}
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {set(got) ^ set(want)}"
            assert result["correct"] and result["failed"] == 0, (workload, detail["failures"])
            assert result["attempted"] >= 1
            if trace == 0:
                assert result["metrics"]["ok_ops_ratio"]["value"] == 1.0
            print(f"ok: {workload} trace={trace} prints {len(got)} metrics, all ops pass")
    return detail


def check_output_checks():
    import deck
    import service_load
    from repro import layout
    from repro.verify import VerificationReport

    workspace = deck.Workspace(os.path.join(WORK, "selfcheck-ops"), 3)
    op = deck.flat_pla_op(workspace, 0, 4, 3, 6)
    compacted, _ = op.run()
    path = workspace.path(op.op_id + ".cif")
    deck.check_cif(path, compacted)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:  # move one box away
        lines = text.splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("B "))
        width, height, x, y = lines[first].rstrip(";").split()[1:]
        lines[first] = f"B {width} {height} {int(x) + 100000} {y};"
        handle.write("\n".join(lines) + "\n")
    expect_failure(deck.check_cif, path, compacted)
    expect_failure(deck.parse_verdict, "verify x: 0 devices, 0 nets\n  result: PASS")
    expect_failure(deck.parse_verdict, "verify x: 9 devices, 9 nets\n  LVS match\n  result: PASS")
    expect_failure(deck.check_report, VerificationReport("vacuous", "all"))
    failing = VerificationReport("failing", "all")
    failing.failures.append("inputs (0,): got [1], want [0]")
    expect_failure(deck.check_report, failing)
    expect_failure(service_load.check_cif_bytes, b"DS 1; B 1 1 x 0; DF; E", "top", 1)
    good = layout.cif_text(compacted).encode()
    expect_failure(service_load.check_cif_bytes, good, compacted.name, 99)
    print("ok: bad CIFs, vacuous or failing verdicts and bad artifacts are rejected")

    from run import child_env

    daemon = service_load.Round(ROOT, child_env(), os.path.join(WORK, "selfcheck-store"))
    daemon.start()
    os.killpg(daemon.process.pid, signal.SIGKILL)  # daemon and workers crash
    assert daemon.stop() is not None, "a killed daemon passed as a clean shutdown"
    daemon = service_load.Round(ROOT, child_env(), os.path.join(WORK, "selfcheck-store2"))
    daemon.start()
    assert daemon.stop() is None, "SIGTERM did not give a clean shutdown"
    print("ok: clean shutdown on SIGTERM is checked, a killed daemon fails it")


def check_malformed_and_digests():
    result, detail = bench("compact_flat", seed=7, extra=("--inject-malformed",))
    assert not result["correct"] and result["failed"] >= 1, result
    assert "malformed_par" in detail["failures"], detail["failures"]
    assert result["metrics"]["ok_ops_ratio"]["value"] < 1.0
    print(f"ok: the malformed parameter file failed {result['failed']} time(s)")
    digests = []
    for _ in range(2):
        _, detail = bench("compact_flat", seed=7)
        digests.append(detail["cif_sha256"])
    assert digests[0] and digests[0] == digests[1], "CIF digests differ for one seed"
    print(f"ok: {len(digests[0])} CIF sha256 digests identical across two runs")
    provenance = detail["provenance"]
    for key in ("git_sha", "python", "numpy", "repro_kernel", "nproc"):
        assert provenance.get(key), f"provenance lacks {key}"
    assert provenance["repro_trace_unset"] is True
    print(f"ok: provenance {provenance}")


def check_bare_directory():
    bare = os.path.join(WORK, "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
         "--workload", "compact_flat", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok: without the program's sources the benchmark exits", done.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    check_bare_directory()
    check_output_checks()
    check_malformed_and_digests()
    check_metrics(benchmark)
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
