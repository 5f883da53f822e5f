"""End-to-end pipeline tests: recall vs the brute-force oracle
(BASELINE.json: dup-pair recall >= 0.99) and cluster-assignment parity."""

from collections import defaultdict

import pytest


def _partitions(d: dict) -> set:
    g = defaultdict(set)
    for k, v in d.items():
        g[v].add(k)
    return {frozenset(v) for v in g.values() if len(v) > 1}


@pytest.fixture(scope="module")
def pipeline_result(ray_session, small_corpus):
    import ray.data as rd

    from analiticcl_ray.pipelines.dedup import dedup_pipeline

    ds = rd.from_arrow(small_corpus)
    pairs_ds, clusters_ds, metrics = dedup_pipeline(ds)
    got = set()
    for b in pairs_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        got.update(zip(b["src_id"].to_pylist(), b["dst_id"].to_pylist()))
    clusters = {r["image_id"]: r["cluster_id"] for r in clusters_ds.take_all()}
    return got, clusters, metrics, pairs_ds


def test_recall_against_oracle(pipeline_result, small_truth):
    got, _, _, _ = pipeline_result
    missed = small_truth - got
    recall = (len(small_truth) - len(missed)) / max(1, len(small_truth))
    assert recall >= 0.99, f"missed {sorted(missed)[:10]}"


def test_no_false_pairs(pipeline_result, small_truth):
    got, _, _, _ = pipeline_result
    extra = got - small_truth
    # verification is exact: any extra pair would be an oracle bug
    assert not extra, f"extra {sorted(extra)[:10]}"


def test_cluster_assignments_match_oracle(pipeline_result, small_corpus, small_truth):
    from analiticcl_ray.pipelines.oracle import oracle_clusters

    _, clusters, _, _ = pipeline_result
    truth_clusters = oracle_clusters(small_corpus, small_truth)
    assert _partitions(clusters) == _partitions(truth_clusters)


def test_metrics_present(pipeline_result):
    _, _, metrics, _ = pipeline_result
    for key in (
        "candidate_pairs",
        "caption_survivors",
        "verified_pairs",
        "clustered_rows",
        "cc_method",
        "t_total_s",
    ):
        assert key in metrics


def test_label_propagation_matches_union_find(ray_session, pipeline_result):
    from analiticcl_ray.stages.cc import cc_label_propagation, cc_union_find

    _, _, _, pairs_ds = pipeline_result
    lp = {r["image_id"]: r["cluster_id"] for r in cc_label_propagation(pairs_ds).take_all()}
    uf = {r["image_id"]: r["cluster_id"] for r in cc_union_find(pairs_ds).take_all()}
    assert _partitions(lp) == _partitions(uf)
    # representative is the min member id in both
    assert lp == uf


def test_cc_auto_routes_by_edge_count(ray_session, pipeline_result, monkeypatch):
    """cc_auto picks union-find while the edge list fits the driver
    budget, label propagation past it (budget 0 forces the distributed
    path); both routes give identical labelings, and the route it
    reports is the one that ran."""
    from analiticcl_ray.stages import driver
    from analiticcl_ray.stages.cc import cc_auto

    _, _, metrics, pairs_ds = pipeline_result
    labels, route = cc_auto(pairs_ds)
    small = {r["image_id"]: r["cluster_id"] for r in labels.take_all()}
    assert route == metrics["cc_method"] == "union_find"
    monkeypatch.setattr(driver, "DRIVER_BUDGET_BYTES", 0)
    labels, route = cc_auto(pairs_ds)
    big = {r["image_id"]: r["cluster_id"] for r in labels.take_all()}
    assert route == "label_prop"
    assert small == big
    assert len(small) > 0


def test_recall_other_seed(ray_session):
    """Recall guard at a second seed (the fixed signature config must
    not be tuned to one corpus instance)."""
    import ray.data as rd

    from analiticcl_ray.pipelines.dedup import dedup_pipeline
    from analiticcl_ray.pipelines.oracle import oracle_pairs
    from analiticcl_ray.sources.corpus import generate_corpus

    tab = generate_corpus(500, 99)
    truth = oracle_pairs(tab)
    pairs_ds, _, _ = dedup_pipeline(rd.from_arrow(tab))
    got = set()
    for b in pairs_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        got.update(zip(b["src_id"].to_pylist(), b["dst_id"].to_pylist()))
    missed = truth - got
    assert (len(truth) - len(missed)) / max(1, len(truth)) >= 0.99
    assert not (got - truth)


def test_pipeline_deterministic_pairs(ray_session, small_corpus, pipeline_result):
    """Re-running the pipeline yields the identical pair set (seeded
    hashing, no wall-clock anywhere) — retry/determinism requirement."""
    import ray.data as rd

    from analiticcl_ray.pipelines.dedup import dedup_pipeline

    got1, _, _, _ = pipeline_result
    pairs_ds, _, _ = dedup_pipeline(rd.from_arrow(small_corpus))
    got2 = set()
    for b in pairs_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        got2.update(zip(b["src_id"].to_pylist(), b["dst_id"].to_pylist()))
    assert got1 == got2


def test_pipeline_with_jpeg_recompressions(ray_session):
    """Full dedup pipeline on a corpus carrying REAL JPEG
    recompressions (VERDICT r2 item 6): for selected base rows a
    lossy JPEG copy with the same caption is appended; the pipeline
    must verify those pairs via finite PSNR >= 40 dB (bytes differ, so
    the exact-bytes short-circuit cannot fire) and agree with the
    brute-force oracle on the whole corpus."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.image.codec import decode, phash64
    from analiticcl_ray.image.jpeg import jpeg_encode
    from analiticcl_ray.pipelines.dedup import dedup_pipeline
    from analiticcl_ray.pipelines.oracle import oracle_pairs
    from analiticcl_ray.sources.corpus import generate_corpus

    tab = generate_corpus(200, 21)
    cols = {c: tab[c].to_pylist() for c in tab.column_names}
    n0 = len(cols["image_id"])
    jpeg_ids = []
    for k in range(8):  # recompress 8 base rows
        src = k * 11 % n0
        px = decode(cols["bytes"][src], cols["fmt"][src])
        blob = jpeg_encode(px, quality=98)
        new_id = f"img{len(cols['image_id']):08d}"
        jpeg_ids.append((cols["image_id"][src], new_id))
        cols["image_id"].append(new_id)
        cols["bytes"].append(blob)
        cols["w"].append(px.shape[1])
        cols["h"].append(px.shape[0])
        cols["fmt"].append("jpeg")
        cols["caption"].append(cols["caption"][src])
        cols["phash"].append(phash64(decode(blob, "jpeg")))
    tab2 = pa.table(
        {
            "image_id": pa.array(cols["image_id"], pa.string()),
            "bytes": pa.array(cols["bytes"], pa.binary()),
            "w": pa.array(cols["w"], pa.int32()),
            "h": pa.array(cols["h"], pa.int32()),
            "fmt": pa.array(cols["fmt"], pa.string()),
            "caption": pa.array(cols["caption"], pa.string()),
            "phash": pa.array(cols["phash"], pa.int64()),
        }
    )
    truth = oracle_pairs(tab2)
    for a, b in jpeg_ids:  # the lossy pairs ARE oracle dups
        assert (min(a, b), max(a, b)) in truth
    pairs_ds, _, metrics = dedup_pipeline(rd.from_arrow(tab2))
    got = {}
    for batch in pairs_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        for s, d, p in zip(
            batch["src_id"].to_pylist(),
            batch["dst_id"].to_pylist(),
            batch["psnr_db"].to_pylist(),
        ):
            got[(s, d)] = p
    missed = truth - set(got)
    assert (len(truth) - len(missed)) / max(1, len(truth)) >= 0.99
    assert not (set(got) - truth)
    for a, b in jpeg_ids:
        p = got[(min(a, b), max(a, b))]
        # non-identical bytes -> finite PSNR through the real decoder
        assert np.isfinite(p) and p >= 40.0
