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
from ..stages.cc import cc_auto, cc_route
from ..stages.lsh import (
    adaptive_cogroups,
    cooccurrence_pairs_multi,
    dedup_pairs,
    explode_band_rows,
    pool_width,
    strip_sentinels,
    tally_sentinels,
    widen_blocks,
)
from ..stages.signatures import CaptionSignatures, phash_band_table
from ..stages.substring import SubstringFingerprints
from ..stages.verify import (
    CaptionVerifier,
    ImageVerifier,
    attach_pair_sides,
    split_exact_and_prune,
)

#: the read task needs a CPU besides the one a signature actor holds;
#: with one CPU the read waits forever for the actor's slot
MIN_RAY_CPUS = 2
# batch_size 1024 (not 4096): the signature kernels chunk internally at
# 256 docs, so smaller batches cost no vectorization — but they quadruple
# the task count, which is what keeps the whole actor pool busy on
# small/tail partitions (measured 2.3 s vs 5.7 s at 20k rows, 16 actors;
# at 1M rows the task count is ample either way)
SIGNATURE_BATCH_SIZE = 1024
_PROBE_TIMEOUT_S = 60


def _since(t0: float) -> float:
    return round(time.perf_counter() - t0, 3)


def check_ray_can_run() -> None:
    """Raise, before any actor pool starts, where the stage graph would
    otherwise hang: fewer than ``MIN_RAY_CPUS`` Ray CPUs, or workers
    that cannot import the stage classes' modules (Ray restarts such a
    pool without end). One zero-CPU Ray task resolves those modules."""
    import importlib

    import ray

    def _resolve(names: list[str]) -> None:
        for name in names:
            importlib.import_module(name)

    modules = sorted({
        cls.__module__
        for cls in (CaptionSignatures, SubstringFingerprints, CaptionVerifier, ImageVerifier)
    })
    # .remote() starts Ray if nothing has yet, as any Ray Data call would
    probe = ray.remote(num_cpus=0)(_resolve).remote(modules)
    cpus = ray.cluster_resources().get("CPU", 0)
    if cpus < MIN_RAY_CPUS:
        raise RuntimeError(
            f"the dedup stage graph needs at least {MIN_RAY_CPUS} Ray CPUs, "
            f"this Ray session has {cpus:g}: start Ray with num_cpus>={MIN_RAY_CPUS}"
        )
    try:
        ray.get(probe, timeout=_PROBE_TIMEOUT_S)
    except ray.exceptions.RayTaskError as e:
        raise RuntimeError(
            f"Ray workers cannot import the dedup stage modules {modules}; "
            "put the directory that holds analiticcl_ray on the workers' "
            "PYTHONPATH (or in the runtime_env) before starting Ray"
        ) from e


def signature_columns(cfg: DedupConfig) -> list[str]:
    """Columns of the slim signature table ``signatures_stage`` returns."""
    cols = ["image_id", "caption", "content_key", "bytes_key", "bytes_key2", "bands"]
    return cols + (["phash_bands", "phash"] if cfg.use_phash_bands else [])


def signatures_stage(
    corpus: "ray.data.Dataset", cfg: DedupConfig, concurrency=(1, 8), carry_cols=()
) -> tuple["ray.data.Dataset", dict]:
    """Corpus -> slim signature table (binary column projected away
    before any shuffle), materialized: the pairs and verified stages
    both read it. ``carry_cols`` ride through unchanged."""
    t0 = time.perf_counter()
    carry = list(carry_cols)
    # Actor pools keep Ray Data's restart defaults: max_restarts=0 would
    # silence the ray#53727 informational line (VERDICT r4 item 6; it is
    # filtered in bench.py instead) but also turns off task retries,
    # measured ~13% slower dispatch across every pool.
    sigs = corpus.select_columns(["image_id", "caption", "phash", "bytes", *carry]).map_batches(
        CaptionSignatures,
        fn_constructor_args=(cfg,),
        batch_format="pyarrow",
        batch_size=SIGNATURE_BATCH_SIZE,
        concurrency=concurrency,
    )
    if cfg.use_phash_bands:
        sigs = sigs.map_batches(
            lambda b: phash_band_table(b, cfg.phash_bands), batch_format="pyarrow"
        )
    sigs = sigs.select_columns(signature_columns(cfg) + carry).materialize()
    return sigs, {"rows": sigs.count(), "wall_s": _since(t0)}


def pairs_stage(
    sigs: "ray.data.Dataset", cfg: DedupConfig, concurrency=(1, 8)
) -> tuple["ray.data.Dataset", dict]:
    """Signature table -> canonical candidate pairs (src_id, dst_id,
    capped), materialized. Stats carry the dropped-bucket sentinels
    (``dropped_buckets``/``dropped_rows``), ``capped_pairs`` and
    ``t_pair_shuffle_s`` (the one materialize that executes band
    explode, the substring pool, the cogroup exchange and the dedup
    shuffle)."""
    t0 = time.perf_counter()
    band_rows = explode_band_rows(sigs, band_cols=("bands",)).union(
        sigs.select_columns(["image_id", "caption"]).map_batches(
            SubstringFingerprints,
            fn_constructor_args=(cfg,),
            batch_format="pyarrow",
            batch_size=SIGNATURE_BATCH_SIZE,
            concurrency=concurrency,
        ),
        # exact content-key co-occurrence rides the SAME exchange as the
        # LSH bands: content keys are just one more key source
        sigs.map_batches(
            lambda b: pa.table({"band": b["content_key"], "image_id": b["image_id"]}),
            batch_format="pyarrow",
        ),
    )
    # co-group count scales with band-row volume (~bands+phash+winnow
    # keys per corpus row): each co-group is one in-memory pandas frame.
    # count() is free: sigs is materialized or parquet-backed.
    keys_per_row = cfg.bands + (cfg.phash_bands if cfg.use_phash_bands else 0) + 8
    n_cg = adaptive_cogroups(sigs.count() * keys_per_row)
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
    cands = cooccurrence_pairs_multi(sources, "image_id", keep_sentinels=True, n_cogroups=n_cg)
    t_ps = time.perf_counter()
    pairs = dedup_pairs(cands, n_cogroups=max(1024, n_cg // 8)).materialize()
    stats: dict = {"t_pair_shuffle_s": _since(t_ps)}
    # sentinel tally + strip over the (edge-list-sized) materialized
    # pairs; sentinel rows are globally unique (one per dropped bucket,
    # cogroup id encoded in src_id) so the post-dedup tally is exact
    tally_sentinels(pairs, stats)
    pairs = strip_sentinels(pairs).materialize()
    stats["capped_pairs"] = pairs.filter(expr="capped == True").count()
    return pairs, {"rows": pairs.count(), "wall_s": _since(t0), **stats}


def verified_stage(
    pairs: "ray.data.Dataset",
    sigs: "ray.data.Dataset",
    corpus: "ray.data.Dataset",
    cfg: DedupConfig,
    *,
    concurrency=(1, 8),
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
        concurrency=concurrency,
    )
    # batch_size also sets the TASK size (blocks are bundled up to it),
    # so a fixed 4096 over a well-prefiltered pair list yields fewer
    # tasks than the pool has actors (measured: 8 tasks / 28 actors);
    # shrink toward ~3 tasks per actor, floor 256 to keep the
    # vectorized kernel efficient. At scale n_pairs is huge and the
    # configured cap applies unchanged.
    survivors = with_captions.map_batches(
        CaptionVerifier,
        fn_constructor_args=(cfg,),
        batch_format="pyarrow",
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
    # driver-side state bound (VERDICT r2 item 10): needed_ids holds the
    # ids referenced by pairs that survived caption verify AND the
    # bytes-equality/phash prunes — O(surviving near-dup pairs), not
    # O(corpus); at the measured dup rates that is ~3% of rows at 20k
    # and shrinks relative to corpus as scale grows. If a pathological
    # corpus ever made it corpus-sized, drop id_filter and let the
    # cogroup attach path semi-join on the distributed pair set instead.
    needed_ids: set[str] = set()
    for b in needs_pixels.select_columns(["src_id", "dst_id"]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        needed_ids.update(b["src_id"].to_pylist())
        needed_ids.update(b["dst_id"].to_pylist())
    with_bytes = attach_pair_sides(
        needs_pixels,
        corpus,
        ["bytes", "fmt"],
        method=attach_method,
        id_filter=needed_ids,
        concurrency=concurrency,
    )
    # same pool-filling logic; survivors bound the pixel-verify rows
    verified = (
        with_bytes.map_batches(
            ImageVerifier,
            fn_constructor_args=(cfg,),
            batch_format="pyarrow",
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
    materialized; ``cc_auto`` routes by edge count."""
    t0 = time.perf_counter()
    verified = verified.materialize()
    clusters = cc_auto(verified).materialize()
    return clusters, {
        "rows": clusters.count(),
        "wall_s": _since(t0),
        "cc_method": cc_route(verified.count()),
    }


def dedup_pipeline(
    corpus: "ray.data.Dataset",
    cfg: Optional[DedupConfig] = None,
    *,
    signature_concurrency=(1, 8),
    verify_concurrency=(1, 8),
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
    check_ray_can_run()
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
