#!/usr/bin/env python3
"""Reproductions of the two hangs the benchmark is built around, each
run through the benchmark's own deadline guard on the ``dedup_floor``
corpus (seed 42).

    python3 dedupbench/faults.py fault1   # workers cannot import the package
    python3 dedupbench/faults.py fault2   # Ray started with num_cpus=1

fault1 starts the driver in a directory that is not the repository root
and leaves the repository off the workers' ``PYTHONPATH``: the
``CaptionSignatures`` actors die importing ``analiticcl_ray`` and Ray
restarts them without end. fault2 gives Ray one CPU: the read task waits
for the CPU the signature actor holds. Each prints one line and exits 0
when the fault reproduced (the job was stopped at its deadline), 1 when
the job finished.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 60


def main(argv=None) -> int:
    from dedupbench import jobs, prep, session

    which = (argv or sys.argv[1:] or [""])[0]
    if which not in ("fault1", "fault2"):
        print(__doc__, file=sys.stderr)
        return 2
    inp = jobs.Inputs.load("dedup_floor", 42, prep.prepare("dedup_floor", 42))
    if which == "fault1":
        os.chdir(prep.WORK)
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
            if p and os.path.abspath(p) != ROOT
        )
        sess = jobs.Session(inp, pythonpath=None)
    else:
        sess = jobs.Session(inp, num_cpus=1)

    def body(op: jobs.Op) -> None:
        import ray.data as rd

        from analiticcl_ray.pipelines.dedup import dedup_pipeline

        dedup_pipeline(rd.read_parquet(inp.corpus))

    token = session.mark_process_tree()
    t0 = time.perf_counter()
    try:
        op = jobs.guarded(jobs.Op("dedup"), sess, DEADLINE_S, body)
    finally:
        sess.stop()
        session.reap_processes(token)
    took = time.perf_counter() - t0
    if op.ok:
        print(f"{which}: not reproduced, the job finished in {took:.1f} s")
        return 1
    print(f"{which}: reproduced, one failed job after {took:.1f} s: {op.error}")
    return 0


if __name__ == "__main__":
    if sys.path and os.path.abspath(sys.path[0]) == os.path.dirname(os.path.abspath(__file__)):
        sys.path.pop(0)
    sys.path.insert(0, ROOT)
    sys.exit(main())
