#!/usr/bin/env python3
"""raydedup benchmark: one workload, measured for ``--seconds``.

    python3 dedupbench/run.py --workload dedup_floor --seed 1 --seconds 10 --trace 0

Closed loop: this one driver process runs jobs back to back in one Ray
session sized from the affinity mask, in whole rounds, until
``--seconds`` of job time have passed (and at least ``min_rounds``
rounds). Inputs are prepared first by ``prep.py`` in a child process
and cached by seed; nothing of that is timed. Every job's outputs are checked (see ``checks.py``). The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of one traced pass with ``--trace 1``.

Workloads (README.md has the why of each):
  dedup_floor          dedup_pipeline over 400 rows
  checkpointed_resume  run_dedup_job over 1,000 rows, fresh, then resumed
                       after its verified/ and clusters/ checkpoints go
  dedup_20k            dedup_pipeline over 20,000 rows
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# per workload: the operations of one round, the fewest rounds a run
# makes, each operation's deadline, and the wall budget of a whole run.
# A floor run makes two jobs at least: the first job in a session runs
# ~15% slower than the next, and a run of one job would report it alone.
# A gated run must end within 180 s: every job's deadline ends 12 s
# before the 150 s budget, and stopping Ray and reaping what outlives it
# take at most 15 s each.
WORKLOADS = {
    "dedup_floor": {
        "round": ("dedup",), "min_rounds": 2, "budget_s": 150,
        "deadline_s": {"dedup": 60, "fresh": 90, "resume": 60},
    },
    "checkpointed_resume": {
        "round": ("fresh", "resume"), "min_rounds": 1, "budget_s": 150,
        "deadline_s": {"dedup": 90, "fresh": 110, "resume": 80},
    },
    "dedup_20k": {
        "round": ("dedup",), "min_rounds": 1, "budget_s": 900,
        "deadline_s": {"dedup": 240, "fresh": 300, "resume": 200},
    },
}
_TEARDOWN_S = 12


def since_process_start() -> float:
    """Seconds since this process was created (from /proc)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


class Run:
    """One benchmark run: the ops it made and the clock it keeps."""

    def __init__(self, workload: str, seed: int, inp, token: str):
        from dedupbench import prep

        self.spec = WORKLOADS[workload]
        self.inp = inp
        self.seed = seed
        self.work = os.path.join(prep.WORK, "runs", token)
        self.out_dir = os.path.join(self.work, "out")
        self.budget_end = time.monotonic() - since_process_start() + self.spec["budget_s"]
        self.ops = []

    def left_s(self) -> float:
        return self.budget_end - time.monotonic() - _TEARDOWN_S

    def op(self, name: str, sess, after=None):
        """Run operation ``name`` in ``sess``; ``after`` is the op it
        depends on. An op whose prerequisite failed, or that no longer
        fits the run's budget, counts as failed without running."""
        from dedupbench import jobs

        left = self.left_s()
        if after is not None and not after.ok:
            op = jobs.Op(name, error=f"not run: {after.name} failed")
        elif left < 5:
            op = jobs.Op(name, error="not run: run budget spent")
        else:
            op = jobs.run_op(name, self.inp, self.out_dir,
                             min(self.spec["deadline_s"][name], left), sess)
        self.ops.append(op)
        return op

    def result(self, metrics: dict) -> dict:
        ok = [o for o in self.ops if o.ok]
        return {
            "correct": all(not o.problems for o in ok),
            "attempted": len(self.ops),
            "failed": len(self.ops) - len(ok),
            "metrics": metrics,
        }


def measure(run: Run, seconds: float, import_s: float) -> dict:
    from dedupbench import jobs

    sess = jobs.Session(run.inp)
    t0 = time.perf_counter()
    rounds = 0
    while True:
        prev = None
        for name in run.spec["round"]:
            prev = run.op(name, sess, after=prev if name == "resume" else None)
        rounds += 1
        # set-up does not count towards the measured time
        measured = time.perf_counter() - t0 - sum(sess.setups)
        if rounds >= run.spec["min_rounds"] and measured >= seconds:
            break
    sess.stop()
    ok = [o for o in run.ops if o.ok]
    wall = _median([o.wall_s for o in ok if o.name in ("dedup", "fresh")])
    # the driver grows a little with every job it runs; the first round
    # has the same make-up in every run
    first_round = run.ops[:len(run.spec["round"])]
    return run.result({
        "setup_s": {"value": import_s + _median(sess.setups), "unit": "s"},
        "rows_per_s": {"value": run.inp.rows / wall if wall else 0.0, "unit": "rows/s"},
        "peak_rss_mb": {
            "value": max((o.peak_rss_mb for o in first_round if o.ok), default=0.0),
            "unit": "MB",
        },
    })


def trace(run: Run) -> dict:
    """One pass over both entry points on this workload's corpus: the
    flagship with worker spans, the runner fresh and resumed, then the
    kernel micro-benchmarks on the runner's candidate pairs."""
    from dedupbench import jobs, micro, session, spans

    span_dir = os.path.join(run.work, "spans")
    # the traced session: workers inherit the span directory at start
    with spans.installed(span_dir):
        sess = jobs.Session(run.inp)
        dedup = run.op("dedup", sess)
        sess.stop()
    sess = jobs.Session(run.inp)
    fresh = run.op("fresh", sess)
    resume = run.op("resume", sess, after=fresh)
    sess.stop()
    m = {}

    def put(name: str, value, unit: str) -> None:
        m[name] = {"value": float(value), "unit": unit}

    dm = dedup.metrics if dedup.ok else {}
    stage_s = {
        "signatures": dm.get("t_signatures_s", 0.0),
        "pair_shuffle": dm.get("t_pair_shuffle_s", 0.0),
        "caption_verify": dm.get("t_caption_verify_s", 0.0),
        "image_verify": dm.get("t_image_verify_s", 0.0),
        "cc": dm.get("t_cc_s", 0.0),
    }
    for k, v in stage_s.items():
        put(f"dedup.{k}_s", v, "s")
    put("dedup.unattributed_s", dedup.wall_s - sum(stage_s.values()) if dedup.ok else 0.0, "s")

    # worker spans; busy share = busy / (wall of the stage that runs the
    # pool x CPUs). The substring pool runs inside the pair shuffle.
    cpus = session.ray_cpus()
    pool_stage = {
        "CaptionSignatures": "signatures", "SubstringFingerprints": "pair_shuffle",
        "CaptionVerifier": "caption_verify", "ImageVerifier": "image_verify",
    }
    agg = spans.read_spans(span_dir)
    for stage, s in agg.items():
        put(f"{stage}.busy_s", s["busy_s"], "s")
        put(f"{stage}.cpu_s", s["cpu_s"], "s")
        put(f"{stage}.calls", s["calls"], "count")
        wall = stage_s[pool_stage[stage]]
        put(f"{stage}.busy_share", s["busy_s"] / (wall * cpus) if wall else 0.0, "ratio")

    cands = dm.get("candidate_pairs", 0)
    verified = dm.get("verified_pairs", 0)
    survivors = dm.get("caption_survivors", 0)
    put("lsh.candidate_pairs", cands, "count")
    put("lsh.dropped_buckets", dm.get("dropped_buckets", 0), "count")
    put("lsh.dropped_rows", dm.get("dropped_rows", 0), "count")
    put("verify.caption_survivors", survivors, "count")
    put("verify.pixel_pairs", agg["ImageVerifier"]["rows_in"], "count")
    put("verify.verified_pairs", verified, "count")
    put("cc.clustered_rows", dm.get("clustered_rows", 0), "count")
    put("lsh.candidate_yield", verified / cands if cands else 0.0, "ratio")
    put("verify.caption_pass", survivors / cands if cands else 0.0, "ratio")
    put("driver.cpu_s", dedup.driver_cpu_s, "s")
    put("trace.job_s", dedup.wall_s, "s")
    put("trace.overhead_s", sum(s["overhead_s"] for s in agg.values()), "s")

    walls = {s["stage"]: s.get("wall_s", 0.0) for s in fresh.lineage.get("stages", [])}
    for stage in ("signatures", "pairs", "verified", "clusters"):
        put(f"runner.{stage}_s", walls.get(stage, 0.0), "s")
    put("runner.fresh_s", fresh.wall_s, "s")
    put("runner.unattributed_s",
        fresh.wall_s - sum(walls.values()) if fresh.ok else 0.0, "s")
    put("runner.resume_s", resume.wall_s, "s")
    put("runner.written_mb", fresh.checkpoint_bytes / 1e6, "MB")
    reused = sum(
        1 for s in resume.lineage.get("stages", [])
        if s.get("resumed") or (s["stage"] == "signatures"
                                and s.get("resumed_shards") == s.get("shards"))
    )
    put("runner.stages_reused", reused, "count")

    kernels = {}
    if fresh.ok:
        kernels = micro.kernel_cpu(
            run.inp.corpus, os.path.join(run.out_dir, "pairs"), run.seed
        )
    for name in ("signatures.cpu_us_per_row", "substring.cpu_us_per_row",
                 "verify.caption_cpu_us_per_pair", "verify.image_cpu_us_per_pair"):
        put(name, kernels.get(name, 0.0), "us")
    return run.result(m)


def prepare(workload: str, seed: int) -> str:
    """Build (or find) the seeded inputs in a child process, so neither
    its time nor its memory lands in any metric."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "dedupbench", "prep.py"),
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="raydedup benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import ray.data  # noqa: F401

        import analiticcl_ray.pipelines.dedup  # noqa: F401
        import analiticcl_ray.pipelines.runner  # noqa: F401
    except ImportError as e:
        print(f"dedupbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    import_s = since_process_start()

    from dedupbench import jobs, session

    token = session.mark_process_tree()
    run = None
    try:
        inp = jobs.Inputs.load(args.workload, args.seed, prepare(args.workload, args.seed))
        run = Run(args.workload, args.seed, inp, token)
        result = trace(run) if args.trace else measure(run, args.seconds, import_s)
    finally:
        session.stop_ray()
        session.reap_processes(token)
        if run is not None:
            shutil.rmtree(run.work, ignore_errors=True)
            if all(o.ok for o in run.ops):
                shutil.rmtree(session.ray_temp_dir(), ignore_errors=True)
            else:
                print(f"dedupbench: Ray logs kept in {session.ray_temp_dir()}",
                      file=sys.stderr)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    # run as a script: import the benchmark as a package from the root,
    # not its modules from the script's own directory
    if sys.path and os.path.abspath(sys.path[0]) == os.path.dirname(os.path.abspath(__file__)):
        sys.path.pop(0)
    sys.path.insert(0, ROOT)
    sys.exit(main())
