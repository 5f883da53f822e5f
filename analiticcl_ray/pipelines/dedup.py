"""End-to-end near-duplicate detection + clustering pipeline.

The flagship pipeline (SURVEY.md §3.4), shaped for minimum shuffle count
and minimum serial fraction, as four ``Dataset -> Dataset`` stages:

    signatures   read corpus parquet (multi-file -> parallel read)
                 -> map_batches(CaptionSignatures) actor pool, zero-copy
                 Arrow: anagram 4-gram shingles -> MinHash band keys +
                 content_key (caption ^ bytes hash) + bytes_key (bytes
                 hash); map_batches(phash_band_table) 4x16-bit slices
    pairs        explode -> (band, image_id)  project-before-shuffle
                   ∪ winnowing substring fingerprints
                   ∪ content keys (exact dup rides the same shuffle)
                   ∪ phash slices (their own tight cap + hamming prefilter)
                 -> ONE cogroup exchange -> salted pair emission (the index)
                 -> pair dedup (deterministic hash buckets) -> sentinel
                 tally + strip
    verified     attach caption+bytes_key -> CaptionVerifier (lossless
                 bag/len prefilter, then the exact DL kernel) -> bytes_equal
                 short-circuit + phash prune -> bytes attached only for
                 pairs that need decoded-pixel PSNR -> ImageVerifier
                 (PSNR >= 40 dB)
    clusters     connected components (stages/cc.cc_auto)

``dedup_pipeline`` chains the stages in memory; the checkpointed runner
(pipelines/runner.py) chains the same functions with a durable parquet
write between them. Each stage returns its output plus a small stats
dict: ``rows``, ``wall_s`` and stage-specific counts named as the
flagship's metrics keys.

Every stage streams; the corpus itself is never materialized. The only
materialized intermediates are the slim signature table and
edge-list-sized pair/label sets. Degenerate (stop-word-like) buckets and
salted buckets are counted in the metrics — no silent caps.
"""

from __future__ import annotations

import time
from typing import Optional

import pyarrow as pa

import ray.data

from ..config import DedupConfig
from ..stages.cc import cc_auto
from ..stages.lsh import (
    cooccurrence_pairs_multi,
    dedup_pairs,
    explode_band_rows,
    pair_summary,
    strip_sentinels,
    widen_blocks,
)
from ..stages.pools import actor_map, pool_width
from ..stages.signatures import CaptionSignatures, phash_band_table
from ..stages.substring import SubstringFingerprints
from ..stages.verify import (
    CaptionVerifier,
    ImageVerifier,
    attach_pair_sides,
    split_exact_and_prune,
)

# batch_size 1024 (not 4096): the signature kernels chunk internally at
# 256 docs, so smaller batches cost no vectorization — but they quadruple
# the task count, which is what keeps the whole actor pool busy on
# small/tail partitions (measured 2.3 s vs 5.7 s at 20k rows, 16 actors;
# at 1M rows the task count is ample either way)
SIGNATURE_BATCH_SIZE = 1024


def _since(t0: float) -> float:
    return round(time.perf_counter() - t0, 3)


def signature_columns(cfg: DedupConfig) -> list[str]:
    """Columns of the slim signature table ``signatures_stage`` returns."""
    cols = ["image_id", "caption", "content_key", "bytes_key", "bytes_key2", "bands"]
    return cols + (["phash_bands", "phash"] if cfg.use_phash_bands else [])


def signatures_stage(
    corpus: "ray.data.Dataset", cfg: DedupConfig, concurrency=None, carry_cols=()
) -> tuple["ray.data.Dataset", dict]:
    """Corpus -> slim signature table (binary column projected away
    before any shuffle), materialized: the pairs and verified stages
    both read it. ``carry_cols`` ride through unchanged."""
    t0 = time.perf_counter()
    carry = list(carry_cols)
    sigs = actor_map(
        corpus.select_columns(["image_id", "caption", "phash", "bytes", *carry]),
        CaptionSignatures, cfg,
        batch_size=SIGNATURE_BATCH_SIZE, concurrency=concurrency,
    )
    if cfg.use_phash_bands:
        sigs = sigs.map_batches(
            lambda b: phash_band_table(b, cfg.phash_bands), batch_format="pyarrow"
        )
    sigs = sigs.select_columns(signature_columns(cfg) + carry).materialize()
    return sigs, {"rows": sigs.count(), "wall_s": _since(t0)}


def pairs_stage(
    sigs: "ray.data.Dataset", cfg: DedupConfig, concurrency=None
) -> tuple["ray.data.Dataset", dict]:
    """Signature table -> canonical candidate pairs (src_id, dst_id,
    capped), materialized. Stats carry the dropped-bucket sentinels
    (``dropped_buckets``/``dropped_rows``), ``capped_pairs`` and
    ``t_pair_shuffle_s`` (the one materialize that executes band
    explode, the substring pool, the cogroup exchange and the dedup
    shuffle)."""
    t0 = time.perf_counter()
    band_rows = explode_band_rows(sigs, band_cols=("bands",)).union(
        actor_map(
            sigs.select_columns(["image_id", "caption"]), SubstringFingerprints, cfg,
            batch_size=SIGNATURE_BATCH_SIZE, concurrency=concurrency,
        ),
        # exact content-key co-occurrence rides the SAME exchange as the
        # LSH bands: content keys are just one more key source
        sigs.map_batches(
            lambda b: pa.table({"band": b["content_key"], "image_id": b["image_id"]}),
            batch_format="pyarrow",
        ),
    )
    # the exchanges are sized by the signature table's bytes, which hold
    # every key the band rows carry; metadata, never an execution: sigs
    # is materialized or a parquet read
    nbytes = sigs.size_bytes()
    # caption bands/winnow/content keys and the phash bit-slices have
    # different degeneracy policies but ride ONE cogroup exchange
    # (cooccurrence_pairs_multi): the per-cogroup emission splits by
    # source and applies each source's cap/threshold/prefilter
    sources = [{"rows": band_rows, "key_col": "band", "cap": cfg.bucket_cap, "sentinel_salt": 0}]
    if cfg.use_phash_bands:
        sources.append(
            {
                # image-side candidates: tight phash degeneracy
                # threshold (see DedupConfig) + exact 64-bit hamming
                # prefilter at emission: DCT-sign slice collisions
                # across natural images were ~90% of all candidates; a
                # PSNR>=40dB dup is <=4 bits apart. The full 64-bit
                # phash rides the band rows for that prefilter. Distinct
                # salt: caption-band and phash sentinels from the same
                # cogroup/seq must not collapse in dedup_pairs.
                "rows": explode_band_rows(
                    sigs, band_cols=("phash_bands",), carry_cols=("phash",)
                ),
                "key_col": "band",
                "cap": cfg.phash_bucket_cap,
                "drop_threshold": cfg.phash_drop_threshold,
                "sentinel_salt": 1,
                "attr_col": "phash",
                "attr_maxham": cfg.phash_max_hamming,
            }
        )
    cands = cooccurrence_pairs_multi(sources, "image_id", keep_sentinels=True, nbytes=nbytes)
    t_ps = time.perf_counter()
    pairs = dedup_pairs(cands, nbytes=nbytes).materialize()
    stats: dict = {"t_pair_shuffle_s": _since(t_ps)}
    # one summary pass over the (edge-list-sized) materialized pairs
    # tallies the sentinels and counts the capped pairs; sentinel rows
    # are globally unique (one per dropped bucket, cogroup id encoded in
    # src_id) so the post-dedup tally is exact. Only a list that holds
    # sentinels is stripped and materialized again.
    summary = pair_summary(pairs)
    n_pairs = summary.pop("pairs")
    stats.update(summary)
    if summary["dropped_buckets"]:
        pairs = strip_sentinels(pairs).materialize()
    return pairs, {"rows": n_pairs, "wall_s": _since(t0), **stats}


def verified_stage(
    pairs: "ray.data.Dataset",
    sigs: "ray.data.Dataset",
    corpus: "ray.data.Dataset",
    cfg: DedupConfig,
    *,
    concurrency=None,
    batch_size: int = 1024,
    image_batch_size: int = 256,
    attach_method: str = "auto",
) -> tuple["ray.data.Dataset", dict]:
    """Materialized candidate pairs -> verified duplicate pairs (src_id,
    dst_id, caption_score, psnr_db, capped), materialized. Captions come
    from the signature table (no second corpus scan); image bytes from
    ``corpus``, only for the pairs that need decoded-pixel PSNR."""
    t0 = time.perf_counter()
    width = pool_width(concurrency)
    # an aggressively-prefiltered pair list can arrive in a handful of
    # blocks, starving the verify actor pool (one task per block);
    # widen — free no-op once the edge list fills the pool naturally
    pairs = widen_blocks(pairs, 2 * width)
    n_pairs = pairs.count()
    prefilter_ham = cfg.use_phash_bands and cfg.phash_max_hamming is not None
    with_captions = attach_pair_sides(
        pairs,
        sigs,
        # the 8-byte phash rides the caption attach so non-byte-equal
        # survivors can be hamming-pruned before the bytes attach
        ["caption", "bytes_key", "bytes_key2"] + (["phash"] if prefilter_ham else []),
        method=attach_method,
    )
    # batch_size also sets the TASK size (blocks are bundled up to it),
    # so a fixed 4096 over a well-prefiltered pair list yields fewer
    # tasks than the pool has actors (measured: 8 tasks / 28 actors);
    # shrink toward ~3 tasks per actor, floor 256 to keep the
    # vectorized kernel efficient. At scale n_pairs is huge and the
    # configured cap applies unchanged.
    survivors = actor_map(
        with_captions, CaptionVerifier, cfg,
        batch_size=min(batch_size, max(256, -(-n_pairs // (3 * width)))),
        concurrency=concurrency,
    ).filter(expr="caption_dup == True")
    # 128-bit bytes-equality short-circuit + phash-hamming prune
    # (stages/verify.split_exact_and_prune); its one materialize runs the
    # caption verify. At 20k rows (seed 42) the prune leaves 6,592 of the
    # caption-dup pairs with distinct images for the pixel verify.
    n_survivors, exact_dups, needs_pixels = split_exact_and_prune(survivors, cfg)
    t_caption = _since(t0)
    t1 = time.perf_counter()
    # the bytes attach reads only the ids the surviving pairs reference
    # (a semi-join, its id pull held to the driver budget): O(surviving
    # near-dup pairs), not O(corpus)
    with_bytes = attach_pair_sides(
        needs_pixels,
        corpus,
        ["bytes", "fmt"],
        method=attach_method,
        id_filter=True,
    )
    # same pool-filling logic; survivors bound the pixel-verify rows
    verified = (
        actor_map(
            with_bytes, ImageVerifier, cfg,
            batch_size=min(image_batch_size, max(64, -(-n_survivors // (3 * width)))),
            concurrency=concurrency,
        )
        .filter(expr="image_dup == True")
        .select_columns(["src_id", "dst_id", "caption_score", "psnr_db", "capped"])
        .union(exact_dups)
        .materialize()
    )
    return verified, {
        "rows": verified.count(),
        "wall_s": _since(t0),
        "caption_survivors": n_survivors,
        "t_caption_verify_s": t_caption,
        "t_image_verify_s": _since(t1),
    }


def clusters_stage(verified: "ray.data.Dataset") -> tuple["ray.data.Dataset", dict]:
    """Verified pairs -> (image_id, cluster_id) over every row in a pair,
    materialized; ``cc_auto`` routes by the edge list's bytes, and its
    one decision is the ``cc_method`` metric."""
    t0 = time.perf_counter()
    clusters, route = cc_auto(verified)
    clusters = clusters.materialize()
    return clusters, {
        "rows": clusters.count(),
        "wall_s": _since(t0),
        "cc_method": route,
    }


def dedup_pipeline(
    corpus: "ray.data.Dataset",
    cfg: Optional[DedupConfig] = None,
    *,
    signature_concurrency=None,
    verify_concurrency=None,
    verify_batch_size: int = 1024,
    image_batch_size: int = 256,
    attach_method: str = "auto",
):
    """Run the full dedup pipeline.

    Returns (pairs_ds, clusters_ds, metrics): verified duplicate pairs
    with score components, cluster assignments for all rows appearing in
    a pair, and a stage-metrics dict.
    """
    cfg = cfg or DedupConfig()
    metrics: dict = {"config": cfg.__dict__ | {"weights": cfg.weights.__dict__}}
    t0 = time.perf_counter()

    def _fold(stats: dict, rows_key: Optional[str], wall_key: Optional[str] = None) -> None:
        metrics.update({k: v for k, v in stats.items() if k not in ("rows", "wall_s")})
        if rows_key:
            metrics[rows_key] = stats["rows"]
        if wall_key:
            metrics[wall_key] = stats["wall_s"]

    sigs, stats = signatures_stage(corpus, cfg, signature_concurrency)
    _fold(stats, None, "t_signatures_s")
    pairs, stats = pairs_stage(sigs, cfg, signature_concurrency)
    _fold(stats, "candidate_pairs")
    metrics["t_candidates_s"] = _since(t0)
    verified, stats = verified_stage(
        pairs, sigs, corpus, cfg,
        concurrency=verify_concurrency,
        batch_size=verify_batch_size,
        image_batch_size=image_batch_size,
        attach_method=attach_method,
    )
    _fold(stats, "verified_pairs")
    clusters, stats = clusters_stage(verified)
    _fold(stats, "clustered_rows", "t_cc_s")
    metrics["t_total_s"] = _since(t0)
    return verified, clusters, metrics
