"""Checkpointed, resumable dedup job runner (north rule: "resumable from
checkpoint with per-partition lineage + metrics").

Layout under ``out_dir``::

    signatures/shard=K/part-*.parquet + _SUCCESS   (per input shard)
    pairs/part-*.parquet      + _manifest.json
    verified/part-*.parquet   + _manifest.json
    clusters/part-*.parquet   + _manifest.json
    lineage.json                                    (full run record)

The stages are dedup_pipeline's own four stage functions
(pipelines/dedup.py); this module only adds durable boundaries:

- Input shards are row-group fragment subsets of the corpus part files:
  the driver reads only parquet footers and ``os.stat`` metadata, each
  fragment is read inside a Ray task (VERDICT r1 item 2).
- Signatures checkpoint per shard. A rerun anti-joins the finished
  shards (``_SUCCESS`` markers) and computes the missing ones in ONE
  Ray Data execution whose rows carry their shard; each shard's files
  are moved into place before its marker is written (SURVEY.md §4.2).
- pairs, verified and clusters checkpoint per stage: written to
  ``<stage>.tmp``, manifest added, then renamed into place. The manifest
  (stage, rows, wall seconds, the stage's stats, config hash and input
  fingerprint — per-file size+mtime, ADVICE r1) is the lineage record;
  a rerun serves a stage only when its manifest is complete and current.
"""

from __future__ import annotations

import glob as _glob
import hashlib
import json
import os
import shutil
import time
from typing import Optional

import ray.data

from ..config import DedupConfig

#: actor-pool size range (min, max) of every stage's pools
POOL = (1, 4)


def _config_hash(cfg: DedupConfig) -> str:
    d = cfg.__dict__ | {"weights": cfg.weights.__dict__}
    return hashlib.sha1(json.dumps(d, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _input_files(corpus_parquet: str) -> list[str]:
    if os.path.isdir(corpus_parquet):
        files = sorted(
            _glob.glob(os.path.join(corpus_parquet, "**", "*.parquet"), recursive=True)
        )
        if not files:
            raise FileNotFoundError(f"no parquet files under {corpus_parquet}")
        return files
    return [corpus_parquet]


def _input_fingerprint(files: list[str]) -> str:
    """Metadata-only input digest (name, size, mtime per part file) —
    no data is read on the driver."""
    h = hashlib.sha1()
    for f in sorted(files):
        st = os.stat(f)
        h.update(f"{os.path.basename(f)}:{st.st_size}:{st.st_mtime_ns}".encode())
    return h.hexdigest()[:16]


def _read_manifest(stage_dir: str, cfg_hash: str, input_hash: str) -> Optional[dict]:
    """The stage's manifest if it is complete and current, else None."""
    try:
        with open(os.path.join(stage_dir, "_manifest.json")) as f:
            m = json.load(f)
    except (OSError, ValueError):
        return None
    ok = (
        m.get("completed")
        and m.get("config_hash") == cfg_hash
        and m.get("input_hash") == input_hash
    )
    return m if ok else None


def run_dedup_job(
    corpus_parquet: str,
    out_dir: str,
    cfg: Optional[DedupConfig] = None,
    n_shards: int = 8,
    resume: bool = True,
    stop_after: Optional[str] = None,
) -> dict:
    """Run (or resume) the full dedup job with durable checkpoints.
    Returns the lineage record.

    ``stop_after`` — one of ``signatures | pairs | verify | cluster``
    (or ``None`` = run everything): execution halts after the named
    stage's checkpoint is durable, so the CLI stage verbs genuinely
    run only up to that stage instead of paying for the whole job."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from . import dedup

    cfg = cfg or DedupConfig()
    dedup.check_ray_can_run()
    cfg_hash = _config_hash(cfg)
    files = _input_files(corpus_parquet)
    input_hash = _input_fingerprint(files)
    os.makedirs(out_dir, exist_ok=True)
    stamp = {"config_hash": cfg_hash, "input_hash": input_hash}
    lineage: dict = {**stamp, "input": corpus_parquet, "n_input_files": len(files), "stages": []}

    def _finish() -> dict:
        with open(os.path.join(out_dir, "lineage.json"), "w") as f:
            json.dump(lineage, f, indent=2)
        return lineage

    # ---- stage 1: per-shard signatures (resumable per partition) ----
    # shard = contiguous subset of (file, row_group) fragments
    fragments: list[tuple[str, int]] = []
    for f in files:
        n_rg = pq.ParquetFile(f).metadata.num_row_groups  # footer only
        fragments.extend((f, g) for g in range(n_rg))
    n_shards = max(1, min(n_shards, len(fragments)))
    shard_frags = [
        fragments[k * len(fragments) // n_shards:(k + 1) * len(fragments) // n_shards]
        for k in range(n_shards)
    ]
    # the shard marker binds config + input + PARTITIONING: a rerun with
    # a different n_shards must not reuse (or silently combine with)
    # shard dirs cut at the old boundaries
    marker = f"{cfg_hash}:{input_hash}:n{n_shards}"
    sig_root = os.path.join(out_dir, "signatures")
    os.makedirs(sig_root, exist_ok=True)

    def _shard_done(d: str) -> bool:
        try:
            with open(os.path.join(sig_root, d, "_SUCCESS")) as f:
                return f.read() == marker  # stale config OR input recomputes
        except OSError:
            return False

    names = [f"shard={k}" for k in range(n_shards)]
    done = {d for d in os.listdir(sig_root) if resume and d in names and _shard_done(d)}
    # prune anything that is not a current, finished shard: stale
    # markers, part files without a marker (a crash mid-write) and dirs
    # outside shard=0..n-1 — read_parquet(sig_root) globs the whole
    # tree, so leftovers would silently duplicate corpus rows
    for d in set(os.listdir(sig_root)) - done:
        shutil.rmtree(os.path.join(sig_root, d), ignore_errors=True)
    todo = [k for k in range(n_shards) if names[k] not in done]
    t0 = time.perf_counter()
    rows = 0
    if todo:

        def _read_fragments(batch: pa.Table) -> pa.Table:
            tabs = []
            for fp, rg, k in zip(*(batch[c].to_pylist() for c in ("file", "rg", "shard"))):
                t = pq.ParquetFile(fp).read_row_groups([rg])
                tabs.append(t.append_column("shard", pa.array([k] * len(t), pa.int32())))
            return pa.concat_tables(tabs)

        frags = ray.data.from_items(
            [{"file": fp, "rg": rg, "shard": k} for k in todo for fp, rg in shard_frags[k]]
        ).map_batches(_read_fragments, batch_format="pyarrow", batch_size=1)
        sigs, stats = dedup.signatures_stage(frags, cfg, POOL, carry_cols=("shard",))
        rows = stats["rows"]
        tmp = sig_root + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        sigs.write_parquet(tmp, partition_cols=["shard"])
        for k in todo:
            shard_dir = os.path.join(sig_root, names[k])
            part_dir = os.path.join(tmp, names[k])
            os.makedirs(part_dir, exist_ok=True)  # a shard of empty row groups
            os.rename(part_dir, shard_dir)
            with open(os.path.join(shard_dir, "_SUCCESS"), "w") as f:
                f.write(marker)
        shutil.rmtree(tmp, ignore_errors=True)
    lineage["stages"].append(
        {"stage": "signatures", "shards": n_shards, "resumed_shards": n_shards - len(todo),
         "rows": rows, "wall_s": round(time.perf_counter() - t0, 3), **stamp}
    )
    if stop_after == "signatures":
        return _finish()

    # ---- stages 2-4: pairs, verified, clusters (resumable per stage) -
    sigs = ray.data.read_parquet(sig_root).select_columns(dedup.signature_columns(cfg))
    corpus = ray.data.read_parquet(files)

    def _read(stage: str) -> "ray.data.Dataset":
        return ray.data.read_parquet(os.path.join(out_dir, stage))

    steps = [
        ("pairs", "pairs", lambda: dedup.pairs_stage(sigs, cfg, POOL)),
        ("verified", "verify", lambda: dedup.verified_stage(
            _read("pairs").materialize(), sigs, corpus, cfg, concurrency=POOL)),
        ("clusters", "cluster", lambda: dedup.clusters_stage(_read("verified"))),
    ]
    for stage, verb, run in steps:
        stage_dir = os.path.join(out_dir, stage)
        manifest = _read_manifest(stage_dir, cfg_hash, input_hash) if resume else None
        if manifest is not None:
            manifest["resumed"] = True
        else:
            t0 = time.perf_counter()
            ds, stats = run()
            tmp = stage_dir + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            ds.write_parquet(tmp)
            manifest = {"stage": stage, **stats, "wall_s": round(time.perf_counter() - t0, 3),
                        **stamp, "completed": True}
            with open(os.path.join(tmp, "_manifest.json"), "w") as f:
                json.dump(manifest, f, indent=2)
            shutil.rmtree(stage_dir, ignore_errors=True)
            os.rename(tmp, stage_dir)  # atomic publish
        lineage["stages"].append(manifest)
        if stop_after == verb:
            break
    return _finish()
