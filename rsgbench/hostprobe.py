"""Host-speed probe and the calibrated op clock of in-process ops.

The virtual machines this benchmark runs on change speed by tens of
percent, in phases of about a second.  Every in-process op is timed by
an :class:`OpClock`, which runs a fixed pure-Python probe just before
the op, every ``INTERVAL_S`` during it (from a timer signal) and just
after it.  The op is reported in *calibrated* seconds::

    calibrated = wall * (NOMINAL_S / mean probe time over the op)

which is the op's time on a host where the probe takes ``NOMINAL_S``.
Sampling during the op, not only at its edges, is what makes the
correction hold for ops that span several speed phases: on a 16x16
flat compaction (about 2 s) the wall time varied by 11% (coefficient
of variation over 10 repeats), the ratio to a probe taken before and
after by 14%, and the ratio to the sampled mean by 3%.

Work that runs in other processes (the service's jobs, the fresh
interpreters timed for ``setup_s``) is calibrated with :func:`probe_cpu`
samples taken by the benchmark's main thread while that work runs.

The probe uses no ``repro`` code, so a change to the program cannot
move the yardstick.  It updates a preallocated dict with integer
arithmetic and allocates no container, so it cannot trigger a garbage
collection inside an op.  The probe time spent inside the op is
subtracted from its wall time.
"""

import signal
import statistics
import subprocess
import time

#: the probe's time on the reference host, by definition
NOMINAL_S = 0.0004
#: probe period while an op runs
INTERVAL_S = 0.02
#: probes run just before and just after each op
EDGE_SAMPLES = 5

_TABLE = dict.fromkeys(range(64), 0)


def probe():
    """Seconds the fixed probe workload takes now."""
    table = _TABLE
    start = time.perf_counter()
    acc = 0
    for i in range(1500):
        key = (i * 7919) & 63
        table[key] = (table[key] + i) & 0xFFFF
        acc ^= (i * 2654435761) & 0xFFFF
    return time.perf_counter() - start


def probe_cpu():
    """The probe's thread CPU time, run twice and the warm run kept.

    For sampling from a thread that shares the host with busy
    processes of its own workload: time slicing against them does not
    inflate thread CPU time, while a slow host does.
    """
    probe()
    start = time.thread_time()
    probe()
    return time.thread_time() - start


def timed_child(command, **options):
    """Run ``command`` to completion, sampling :func:`probe_cpu` every
    ``INTERVAL_S`` meanwhile; returns (wall s, calibrated s)."""
    start = time.perf_counter()
    process = subprocess.Popen(command, **options)
    samples = []
    while process.poll() is None:
        samples.append(probe_cpu())
        time.sleep(INTERVAL_S)
    wall = time.perf_counter() - start
    if process.returncode:
        raise subprocess.CalledProcessError(process.returncode, command)
    return wall, wall * NOMINAL_S / statistics.fmean(samples or [probe_cpu()])


def _sample(signum, frame):
    if OpClock.running is not None:
        OpClock.running._inside.append(probe())


class OpClock:
    """Time one op; afterwards ``elapsed`` holds its gross wall seconds,
    ``wall`` the same less the probes run inside it, ``probe_s`` the
    mean probe time and ``calibrated`` its calibrated seconds.

    Uses ``SIGALRM``, so it must run in the main thread.  The handler
    stays installed between ops, so a signal already on its way when
    the timer is disarmed finds it.
    """

    running = None

    def __init__(self):
        self.samples = []
        self._inside = []
        self.start = self.elapsed = 0.0
        self.wall = self.probe_s = self.calibrated = 0.0

    def __enter__(self):
        self.samples = [probe() for _ in range(EDGE_SAMPLES)]
        signal.signal(signal.SIGALRM, _sample)
        OpClock.running = self
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.elapsed = elapsed = time.perf_counter() - self.start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        OpClock.running = None
        self.wall = elapsed - sum(self._inside)
        self.samples += self._inside
        self.samples += [probe() for _ in range(EDGE_SAMPLES)]
        self.probe_s = statistics.fmean(self.samples)
        self.calibrated = self.wall * NOMINAL_S / self.probe_s
        return False
