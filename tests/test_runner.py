"""Checkpoint/resume tests (SURVEY.md §5.2 item 5): interrupted runs
resume from durable partitions and produce identical final outputs."""

import json
import os
import shutil

import pytest


@pytest.fixture(scope="module")
def job_dirs(ray_session, tmp_path_factory):
    from analiticcl_ray.pipelines.runner import run_dedup_job
    from analiticcl_ray.sources.corpus import corpus_path

    out = str(tmp_path_factory.mktemp("dedup_job"))
    # 1024 rows -> 4 part files -> 4 row-group fragments (one per file)
    src = corpus_path(1024, seed=11)
    lineage1 = run_dedup_job(src, out, n_shards=4)
    return src, out, lineage1


def _clusters(out):
    import ray.data

    rows = ray.data.read_parquet(os.path.join(out, "clusters")).take_all()
    return sorted((r["image_id"], r["cluster_id"]) for r in rows)


def test_job_completes_with_lineage(job_dirs):
    src, out, lineage = job_dirs
    assert os.path.exists(os.path.join(out, "lineage.json"))
    stages = [s["stage"] for s in lineage["stages"]]
    assert stages == ["signatures", "pairs", "verified", "clusters"]
    assert all(
        os.path.exists(os.path.join(out, "signatures", f"shard={k}", "_SUCCESS"))
        for k in range(4)
    )


def test_runner_matches_flagship(job_dirs):
    """The checkpointed runner and dedup_pipeline run one stage graph:
    on the same corpus the runner's verified/ rows are the flagship's
    pairs and its clusters/ rows the flagship's clusters."""
    import ray.data

    from analiticcl_ray.pipelines.dedup import dedup_pipeline

    src, out, _ = job_dirs
    pairs_ds, clusters_ds, _ = dedup_pipeline(ray.data.read_parquet(src))
    cols = ["src_id", "dst_id", "caption_score", "psnr_db", "capped"]

    def _rows(ds):
        return sorted(tuple(r[c] for c in cols) for r in ds.select_columns(cols).take_all())

    runner_pairs = _rows(ray.data.read_parquet(os.path.join(out, "verified")))
    assert runner_pairs and runner_pairs == _rows(pairs_ds)
    flagship_clusters = sorted(
        (r["image_id"], r["cluster_id"]) for r in clusters_ds.take_all()
    )
    assert _clusters(out) == flagship_clusters


def test_resume_skips_completed_stages(job_dirs):
    from analiticcl_ray.pipelines.runner import run_dedup_job

    src, out, _ = job_dirs
    before = _clusters(out)
    lineage2 = run_dedup_job(src, out, n_shards=4)
    assert lineage2["stages"][0]["resumed_shards"] == 4
    assert all(s.get("resumed") for s in lineage2["stages"][1:])
    assert _clusters(out) == before


def test_resume_after_partial_failure(job_dirs):
    """Simulate a crash mid-run: one signature shard and everything
    downstream lost -> rerun recomputes only the missing pieces and the
    final cluster table is identical."""
    from analiticcl_ray.pipelines.runner import run_dedup_job

    src, out, _ = job_dirs
    before = _clusters(out)
    shutil.rmtree(os.path.join(out, "signatures", "shard=2"))
    shutil.rmtree(os.path.join(out, "verified"))
    shutil.rmtree(os.path.join(out, "clusters"))
    lineage3 = run_dedup_job(src, out, n_shards=4)
    assert lineage3["stages"][0]["resumed_shards"] == 3  # 3 of 4 reused
    assert lineage3["stages"][1].get("resumed")  # pairs manifest intact
    assert not lineage3["stages"][2].get("resumed")  # verified recomputed
    assert _clusters(out) == before


def test_resume_after_torn_writes(job_dirs):
    """Simulate the two states a crash can leave behind: a signature
    shard whose part files are on disk but whose _SUCCESS marker is not,
    and a stage directory whose manifest was never written. Neither may
    be served: the shard alone and the pairs stage are recomputed."""
    import ray.data

    from analiticcl_ray.pipelines.runner import run_dedup_job

    src, out, _ = job_dirs
    before = _clusters(out)
    shard = os.path.join(out, "signatures", "shard=1")
    os.remove(os.path.join(shard, "_SUCCESS"))
    assert any(f.endswith(".parquet") for f in os.listdir(shard))
    os.remove(os.path.join(out, "pairs", "_manifest.json"))
    lineage = run_dedup_job(src, out, n_shards=4)
    assert lineage["stages"][0]["resumed_shards"] == 3
    assert not lineage["stages"][1].get("resumed")
    sig_rows = ray.data.read_parquet(os.path.join(out, "signatures")).count()
    assert sig_rows == ray.data.read_parquet(src).count()
    assert _clusters(out) == before


def test_config_change_invalidates_checkpoints(job_dirs, tmp_path):
    from analiticcl_ray.config import DedupConfig
    from analiticcl_ray.pipelines.runner import run_dedup_job

    src, out, _ = job_dirs
    lineage = run_dedup_job(
        src, out, cfg=DedupConfig(bucket_cap=64), n_shards=4
    )
    # different config hash -> wide stages recomputed, not resumed
    assert not lineage["stages"][1].get("resumed")


def test_input_change_invalidates_checkpoints(ray_session, tmp_path):
    """ADVICE r1: resume must not serve stale checkpoints after the
    input corpus changes — the input fingerprint (per-file size+mtime)
    is part of every manifest and _SUCCESS marker."""
    import shutil as _sh

    from analiticcl_ray.pipelines.runner import run_dedup_job
    from analiticcl_ray.sources.corpus import corpus_path

    src0 = corpus_path(1024, seed=11)
    src = str(tmp_path / "corpus")
    _sh.copytree(src0, src)
    out = str(tmp_path / "job")
    l1 = run_dedup_job(src, out, n_shards=2)
    assert not l1["stages"][1].get("resumed")

    # unchanged input -> full resume
    l2 = run_dedup_job(src, out, n_shards=2)
    assert l2["stages"][0]["resumed_shards"] == 2
    assert all(s.get("resumed") for s in l2["stages"][1:])

    # touch one part file's mtime -> everything recomputes
    part = sorted(os.listdir(src))
    target = next(p for p in part if p.endswith(".parquet"))
    os.utime(os.path.join(src, target))
    l3 = run_dedup_job(src, out, n_shards=2)
    assert l3["stages"][0]["resumed_shards"] == 0
    assert not any(s.get("resumed") for s in l3["stages"][1:])
    assert l3["input_hash"] != l1["input_hash"]


def test_resume_with_changed_n_shards_no_duplication(job_dirs):
    """Rerunning with a different n_shards must not reuse shard dirs cut
    at the old partition boundaries (stale dirs would duplicate corpus
    rows through read_parquet(sig_root))."""
    import ray.data

    from analiticcl_ray.pipelines.runner import run_dedup_job
    from analiticcl_ray.sources.corpus import corpus_path

    src, out, _ = job_dirs
    before = _clusters(out)
    lineage = run_dedup_job(src, out, n_shards=2)
    # old 4-way shards invalid under the new marker -> all recomputed
    assert lineage["stages"][0]["resumed_shards"] == 0
    sig_rows = ray.data.read_parquet(os.path.join(out, "signatures")).count()
    n_corpus = ray.data.read_parquet(src).count()
    assert sig_rows == n_corpus  # no duplicated rows from stale shards
    assert _clusters(out) == before
