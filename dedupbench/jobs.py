"""The benchmark's operations: one job of a public entry point, timed,
bounded by a deadline and checked.

- ``dedup``:  ``pipelines.dedup.dedup_pipeline`` over the corpus.
- ``fresh``:  ``pipelines.runner.run_dedup_job`` into an empty output dir.
- ``resume``: the same call after the ``verified/`` and ``clusters/``
  checkpoints of the fresh run are deleted.

Consecutive operations share one Ray session (``Session``; its set-up
is ``ray.init`` and reading the corpus into the page cache). Each runs
its job (timed, with the driver's peak RSS sampled), then pulls and
checks the outputs. A job that raises or passes its deadline is one
failed operation, and its Ray session is stopped; the next operation
starts a new one.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from . import checks, prep, session


@dataclass
class Inputs:
    """A prepared entry: corpus location and oracle tables."""

    workload: str
    seed: int
    corpus: str
    rows: int
    window: tuple[int, int]
    oracle_pairs: list
    oracle_clusters: list

    @classmethod
    def load(cls, workload: str, seed: int, entry: str) -> "Inputs":
        with open(os.path.join(entry, "meta.json")) as f:
            meta = json.load(f)
        op = pq.read_table(os.path.join(entry, "oracle_pairs.parquet"))
        oc = pq.read_table(os.path.join(entry, "oracle_clusters.parquet"))
        return cls(
            workload, seed, prep.corpus_dir(entry, workload, seed),
            meta["rows"], tuple(meta["window"]),
            list(zip(op["src_id"].to_pylist(), op["dst_id"].to_pylist())),
            list(zip(oc["image_id"].to_pylist(), oc["cluster_id"].to_pylist())),
        )

    @property
    def whole_oracle(self) -> bool:
        return self.window == (0, self.rows)

    def warm(self) -> None:
        """Read every corpus file once, so the job reads from page cache."""
        for name in sorted(os.listdir(self.corpus)):
            with open(os.path.join(self.corpus, name), "rb") as f:
                while f.read(1 << 20):
                    pass

    def window_ids(self) -> set[str]:
        lo, hi = self.window
        ids = pq.read_table(self.corpus, columns=["image_id"])["image_id"]
        return set(ids.slice(lo, hi - lo).to_pylist())

    def rows_for(self, ids: set[str]) -> dict[str, tuple[str, bytes, str]]:
        import pyarrow.dataset as ds

        t = ds.dataset(self.corpus, format="parquet").to_table(
            columns=["image_id", "caption", "bytes", "fmt"],
            filter=ds.field("image_id").isin(sorted(ids)),
        )
        return {
            i: (c, b, f) for i, c, b, f in zip(
                t["image_id"].to_pylist(), t["caption"].to_pylist(),
                t["bytes"].to_pylist(), t["fmt"].to_pylist(),
            )
        }


@dataclass
class Op:
    name: str
    ok: bool = False
    error: str = ""
    wall_s: float = 0.0
    driver_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # dedup_pipeline's dict
    lineage: dict = field(default_factory=dict)   # run_dedup_job's record
    checkpoint_bytes: int = 0
    pairs: int = 0
    clustered_rows: int = 0


def _tables_to_pairs(t: pa.Table) -> list:
    return list(zip(t["src_id"].to_pylist(), t["dst_id"].to_pylist()))


def _tables_to_clusters(t: pa.Table) -> list:
    return list(zip(t["image_id"].to_pylist(), t["cluster_id"].to_pylist()))


def check_outputs(inp: Inputs, pairs: list, clusters: list) -> list[str]:
    """Oracle equality where the oracle covers the corpus; else the
    window check plus the whole-output checks."""
    from analiticcl_ray.config import DedupConfig

    if inp.whole_oracle:
        problems = checks.check_oracle(
            pairs, clusters, inp.oracle_pairs, inp.oracle_clusters
        )
    else:
        problems = checks.check_window(pairs, inp.window_ids(), inp.oracle_pairs)
        problems += checks.check_structure(pairs)
    problems += checks.check_clusters_are_components(pairs, clusters)
    problems += checks.check_pair_sample(
        pairs, inp.rows_for, DedupConfig(), seed=inp.seed
    )
    return problems


def _dir_bytes(d: str) -> int:
    return sum(
        os.path.getsize(os.path.join(r, f))
        for r, _, files in os.walk(d) for f in files
    )


def _job_dedup(inp: Inputs, out_dir: str, op: Op):
    import ray.data as rd

    from analiticcl_ray.pipelines.dedup import dedup_pipeline

    pairs_ds, clusters_ds, op.metrics = dedup_pipeline(rd.read_parquet(inp.corpus))
    return pairs_ds, clusters_ds


def _collect_dedup(result) -> tuple[list, list]:
    pairs_ds, clusters_ds = result

    def _all(ds, cols):
        parts = list(ds.select_columns(cols).iter_batches(
            batch_size=65536, batch_format="pyarrow"))
        return pa.concat_tables(parts) if parts else None

    p = _all(pairs_ds, ["src_id", "dst_id"])
    c = _all(clusters_ds, ["image_id", "cluster_id"])
    return (_tables_to_pairs(p) if p else [], _tables_to_clusters(c) if c else [])


def _job_runner(inp: Inputs, out_dir: str, op: Op):
    from analiticcl_ray.pipelines.runner import run_dedup_job

    op.lineage = run_dedup_job(inp.corpus, out_dir)
    return out_dir


def _collect_runner(out_dir: str) -> tuple[list, list]:
    # pyarrow skips the _manifest.json beside the part files
    return (
        _tables_to_pairs(pq.read_table(os.path.join(out_dir, "verified"))),
        _tables_to_clusters(pq.read_table(os.path.join(out_dir, "clusters"))),
    )


class Session:
    """The Ray session consecutive jobs share. Set-up is ``ray.init``,
    one task per CPU and one tiny Ray Data job (so the worker processes
    and Ray Data's own actors are up before the first job, not during
    it), and reading the corpus into the page cache. Every start is
    timed. ``ray_args`` go to ``session.start_ray``."""

    def __init__(self, inp: Inputs | None = None, **ray_args):
        self.inp = inp
        self.ray_args = ray_args
        self.setups: list[float] = []
        self.up = False

    def start(self) -> None:
        t0 = time.perf_counter()
        self.up = True
        session.start_ray(**self.ray_args)
        session.warm_ray()
        if self.inp is not None:
            self.inp.warm()
        self.setups.append(time.perf_counter() - t0)

    def stop(self) -> None:
        session.stop_ray()
        self.up = False


def guarded(op: Op, sess: Session, deadline_s: float, body) -> Op:
    """Run ``body(op)`` in ``sess`` (started if down) under a deadline.
    An exception or an overrun marks ``op`` failed and stops the session,
    so a hung job costs one failed operation, not the run."""
    try:
        with session.deadline(deadline_s):
            if not sess.up:
                sess.start()
            body(op)
        op.ok = True
    except session.JobDeadline as e:
        op.error = str(e)
    except Exception as e:  # any failure of the job is one failed operation
        op.error = f"{type(e).__name__}: {e}"
        traceback.print_exc(file=sys.stderr)
    if not op.ok:
        sess.stop()
    return op


def run_op(name: str, inp: Inputs, out_dir: str, deadline_s: float,
           sess: Session) -> Op:
    """Run one operation (``dedup``, ``fresh`` or ``resume``), guarded."""
    if name == "fresh":
        shutil.rmtree(out_dir, ignore_errors=True)
    elif name == "resume":
        for stage in ("verified", "clusters"):
            shutil.rmtree(os.path.join(out_dir, stage), ignore_errors=True)
    job, collect = (
        (_job_dedup, _collect_dedup) if name == "dedup"
        else (_job_runner, _collect_runner)
    )

    def body(op: Op) -> None:
        with session.PeakRss() as rss:
            c1, t1 = time.process_time(), time.perf_counter()
            result = job(inp, out_dir, op)
            op.wall_s = time.perf_counter() - t1
            op.driver_cpu_s = time.process_time() - c1
        op.peak_rss_mb = rss.peak_mb
        pairs, clusters = collect(result)
        op.pairs, op.clustered_rows = len(pairs), len(clusters)
        op.problems = check_outputs(inp, pairs, clusters)
        if name == "fresh":
            op.checkpoint_bytes = _dir_bytes(out_dir)

    op = guarded(Op(name), sess, deadline_s, body)
    stages = " ".join(f"{k}={v}" for k, v in op.metrics.items() if k.startswith("t_"))
    print(
        f"dedupbench: {name} {'ok' if op.ok else 'FAILED ' + op.error}"
        f" job={op.wall_s:.2f}s pairs={op.pairs} clustered={op.clustered_rows}"
        f" problems={len(op.problems)} {stages}",
        file=sys.stderr,
    )
    for p in op.problems[:20]:
        print(f"dedupbench: {name} output check: {p}", file=sys.stderr)
    return op
