"""Ray sessions for the benchmark: start-up that avoids the two known
hangs, a deadline on every job, and accounting of every process started.

- Fault 1: Ray workers that cannot import ``analiticcl_ray`` (driver
  started outside the repository root) restart their actor pool forever
  and the driver never raises. ``start_ray`` puts the repository root on
  the ``PYTHONPATH`` that the Ray processes inherit.
- Fault 2: with ``num_cpus=1`` the dedup pipeline deadlocks (the read
  task waits for the CPU the signature actor holds). ``ray_cpus`` sizes
  Ray from the process's affinity mask, never below 2; ``nproc`` and
  ``os.cpu_count`` do not see the mask.

Either fault, or any other hang, ends as one failed job: ``deadline``
raises ``JobDeadline`` in the main thread, the caller stops the Ray
session and counts the failure.
"""

from __future__ import annotations

import contextlib
import logging
import os
import signal
import threading
import time
import uuid

from .prep import ROOT, WORK

RUN_MARK = "DEDUPBENCH_RUN"
OBJECT_STORE_BYTES = 1 << 30
STOP_TIMEOUT_S = 15.0  # ray.shutdown normally takes 1-2 s
REAP_GRACE_S = 5.0
# AF_UNIX socket paths are limited to 107 bytes; Ray's plasma socket
# sits 61 bytes below its temp dir
_MAX_TEMP_DIR = 46


class JobDeadline(BaseException):
    """A job ran past its deadline (BaseException, so no ``except
    Exception`` inside Ray or the program swallows it)."""


def ray_cpus() -> int:
    """CPUs in this process's affinity mask, at least 2."""
    return max(2, len(os.sched_getaffinity(0)))


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise ``JobDeadline`` in the main thread after ``seconds``."""

    def _fire(signum, frame):
        raise JobDeadline(f"job passed its {seconds:.0f} s deadline")

    old = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def mark_process_tree() -> str:
    """Tag this process's environment so every process it starts (Ray's
    node processes, workers, subprocesses) can be found again."""
    token = uuid.uuid4().hex
    os.environ[RUN_MARK] = token
    return token


def ray_temp_dir() -> str:
    """Where Ray keeps its session (logs, sockets, spilled objects)."""
    d = os.path.join(WORK, "r")
    if len(d) > _MAX_TEMP_DIR:
        # a deep checkout cannot hold Ray's sockets; a short private
        # directory under the system temp dir can
        d = os.path.join("/tmp", f"dedupbench-{os.getuid()}")
    return d


def start_ray(num_cpus: int | None = None, pythonpath: str | None = ROOT) -> None:
    """Start a local Ray session. ``pythonpath=None`` leaves the workers'
    import path as the caller's (the fault-1 reproduction uses it)."""
    import ray
    from ray.data import DataContext

    if pythonpath:
        parts = [pythonpath] + [
            p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
            if p and p != pythonpath
        ]
        os.environ["PYTHONPATH"] = os.pathsep.join(parts)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(ray_temp_dir(), exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    ray.init(
        address="local",
        num_cpus=num_cpus or ray_cpus(),
        include_dashboard=False,
        # worker stdout ("(map pid=...) :task" lines) stays in the
        # session logs, out of the benchmark's stdout
        log_to_driver=False,
        logging_level="ERROR",
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=ray_temp_dir(),
    )
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def warm_ray() -> None:
    """Wait until every CPU has a live worker and Ray Data's per-session
    actors exist."""
    import ray
    import ray.data

    def _noop(x):  # nested: shipped by value, workers import nothing
        return x

    task = ray.remote(num_cpus=1)(_noop)
    ray.get([task.remote(i) for i in range(int(ray.cluster_resources()["CPU"]))])
    ray.data.range(8, override_num_blocks=2).map_batches(_noop).materialize()


def stop_ray() -> None:
    import ray

    if not ray.is_initialized():
        return
    try:
        with deadline(STOP_TIMEOUT_S):
            ray.shutdown()
    except JobDeadline:
        pass  # reap_processes kills what is left


def _marked_pids(token: str) -> list[int]:
    needle = f"{RUN_MARK}={token}".encode()
    me = os.getpid()
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                env = f.read()
            with open(f"/proc/{name}/stat", "rb") as f:
                state = f.read().rsplit(b")", 1)[1].split()[0]
        except OSError:
            continue  # ended meanwhile, or not ours
        if state != b"Z" and needle in env.split(b"\0"):
            pids.append(int(name))
    return pids


def reap_processes(token: str) -> int:
    """Wait for every process tagged with ``token`` to end; SIGTERM and
    then SIGKILL what outlives ``REAP_GRACE_S``. Returns how many had to
    be signalled."""
    end = time.monotonic() + REAP_GRACE_S
    while time.monotonic() < end and _marked_pids(token):
        time.sleep(0.1)
    left = _marked_pids(token)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in left:
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.kill(pid, sig)
        end = time.monotonic() + 5.0
        while time.monotonic() < end and _marked_pids(token):
            time.sleep(0.1)
    return len(left)


class PeakRss:
    """Peak resident set of this process while the block runs, sampled
    every 20 ms from /proc/self/status."""

    interval_s = 0.02

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    @staticmethod
    def rss_kb() -> int:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
        return 0

    def _sample(self) -> None:
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, self.rss_kb())
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "PeakRss":
        self.peak_kb = self.rss_kb()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_kb = max(self.peak_kb, self.rss_kb())

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
