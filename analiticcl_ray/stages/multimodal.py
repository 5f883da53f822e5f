"""Multimodal actor-pool stages over opaque binary columns.

The corpus treats images (and, by extension, audio/video) as opaque
``binary`` columns with typed metadata (w/h/fmt) — the input_hint
schema. Each stage here is a callable CLASS for the actor-pool launcher
(``stages/pools.actor_map``): decode state (DCT matrix, pixel cache)
lives in ``__init__`` once per actor; ``__call__`` transforms one Arrow
batch. Bytes stay out of every shuffle — these are straight
per-row map stages placed BEFORE any wide operation.

Real vs stubbed (task brief: make the plumbing real, stub missing
codecs honestly):
- PNG decode, area resize, gray features, phash: REAL (pure numpy,
  image/codec.py).
- JPEG decode: REAL baseline codec (pure numpy ITU-T T.81 subset,
  image/jpeg.py); progressive/subsampled streams raise
  NotImplementedError.
- video frame handling: no inter-frame codec library exists in this
  container, so mp4/webm raise a clearly-marked NotImplementedError;
  the deterministic ``rawv1`` raw container AND the genuinely lossy
  ``mjpg1`` (per-frame baseline JPEG via image/jpeg.py, round 4)
  exercise the full Ray-side plumbing — schema, actor signature,
  per-frame explode — on real and really-degraded bytes.

Batch sizes: binary payloads are wide — each stage runs with a small
``batch_size`` (16-256) so batch × pool width fits the worker heap
(SURVEY.md §4.2).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..image.codec import (
    ahash64,
    decode,
    dhash64,
    phash64,
    png_encode,
    to_gray,
    _resize_mean,
)
from .pools import actor_map


class ImageResizer:
    """Actor: decode -> area resize to ``size``x``size`` -> re-encode
    PNG. Emits (image_id, bytes, w, h, fmt) at the new geometry —
    the standard normalization step before model inference."""

    def __init__(self, size: int = 64):
        self.size = size

    def __call__(self, batch: pa.Table) -> pa.Table:
        size = self.size
        out_bytes = []
        for data, fmt in zip(
            batch["bytes"].to_pylist(), batch["fmt"].to_pylist()
        ):
            px = decode(data, fmt)
            if px.ndim == 2:
                small = _resize_mean(px.astype(np.float64), size)
                resized = np.clip(np.rint(small), 0, 255).astype(np.uint8)
            else:
                chans = [
                    _resize_mean(px[..., c].astype(np.float64), size)
                    for c in range(px.shape[2])
                ]
                resized = np.clip(
                    np.rint(np.stack(chans, axis=-1)), 0, 255
                ).astype(np.uint8)
            out_bytes.append(png_encode(resized))
        n = len(out_bytes)
        return pa.table(
            {
                "image_id": batch["image_id"],
                "bytes": pa.array(out_bytes, pa.binary()),
                "w": pa.array(np.full(n, size, dtype=np.int32), pa.int32()),
                "h": pa.array(np.full(n, size, dtype=np.int32), pa.int32()),
                "fmt": pa.array(["png"] * n, pa.string()),
            }
        )


class ImageFeatures:
    """Actor: decode -> grayscale stats + 64-bit DCT phash. Emits
    (image_id, phash, mean, std) — the feature-extraction stage the
    dedup pipeline's SimHash bands and any downstream model consume."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        phashes = np.empty(len(batch), dtype=np.int64)
        means = np.empty(len(batch), dtype=np.float64)
        stds = np.empty(len(batch), dtype=np.float64)
        for i, (data, fmt) in enumerate(
            zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist())
        ):
            px = decode(data, fmt)
            g = to_gray(px)
            phashes[i] = phash64(px)
            means[i] = float(g.mean())
            stds[i] = float(g.std())
        return pa.table(
            {
                "image_id": batch["image_id"],
                "phash": pa.array(phashes, pa.int64()),
                "mean": pa.array(means, pa.float64()),
                "std": pa.array(stds, pa.float64()),
            }
        )


class ImageHashes:
    """Actor: decode once -> all three 64-bit perceptual hashes
    (DCT phash, gradient dhash, average ahash). One decode amortizes
    across the three hash kernels — the multi-signature stage an
    image-dedup tier runs before banding."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        ph = np.empty(n, dtype=np.int64)
        dh = np.empty(n, dtype=np.int64)
        ah = np.empty(n, dtype=np.int64)
        for i, (data, fmt) in enumerate(
            zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist())
        ):
            px = decode(data, fmt)
            ph[i] = phash64(px)
            dh[i] = dhash64(px)
            ah[i] = ahash64(px)
        return pa.table(
            {
                "image_id": batch["image_id"],
                "phash": pa.array(ph, pa.int64()),
                "dhash": pa.array(dh, pa.int64()),
                "ahash": pa.array(ah, pa.int64()),
            }
        )


class ImageQuality:
    """Actor: decode -> per-image quality signals (sharpness, entropy,
    saturation, exposure — image/codec.py:image_quality_one), the
    image analog of text.py's quality_signals. Emits (image_id,
    sharpness, entropy, saturated_frac, gray_mean, gray_std)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..image.codec import image_quality_one

        n = len(batch)
        cols = {
            k: np.empty(n, dtype=np.float64)
            for k in (
                "sharpness", "entropy", "saturated_frac",
                "gray_mean", "gray_std",
            )
        }
        for i, (data, fmt) in enumerate(
            zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist())
        ):
            q = image_quality_one(decode(data, fmt))
            for k, arr in cols.items():
                arr[i] = q[k]
        return pa.table(
            {"image_id": batch["image_id"]}
            | {k: pa.array(v, pa.float64()) for k, v in cols.items()}
        )


def image_quality_signals(corpus: "ray.data.Dataset") -> "ray.data.Dataset":
    return actor_map(
        corpus.select_columns(["image_id", "bytes", "fmt"]), ImageQuality, batch_size=128
    )


def image_quality_filter(
    corpus: "ray.data.Dataset",
    min_sharpness: float = 1.0,
    min_entropy: float = 1.0,
    max_saturated: float = 0.5,
) -> "ray.data.Dataset":
    """Keep-list of image ids passing the quality gates — the decision
    stage a training-data pipeline runs before spending tokens on a
    caption model. Thresholds follow the text quality_filter shape:
    conservative defaults, every gate a parameter."""
    sig = image_quality_signals(corpus)

    def _keep(t: pa.Table) -> pa.Table:
        m = (
            (t["sharpness"].to_numpy(zero_copy_only=False) >= min_sharpness)
            & (t["entropy"].to_numpy(zero_copy_only=False) >= min_entropy)
            & (
                t["saturated_frac"].to_numpy(zero_copy_only=False)
                <= max_saturated
            )
        )
        return pa.table({"image_id": t["image_id"].filter(pa.array(m))})

    return sig.map_batches(_keep, batch_format="pyarrow")


# --- video: real containers + honest codec stubs ----------------------
#
# rawv1 is the deterministic raw container; mjpg1 (round 4) is a REAL
# lossy path — Motion-JPEG-style: every frame an independent baseline
# JPEG from the in-repo pure-numpy codec (image/jpeg.py, public ITU-T
# T.81 subset), ~32 dB PSNR at quality 90 on the synthetic frames, so
# the video tier's per-frame dHash robustness is exercised on
# actually-degraded bytes the way the image tier's PSNR rule is.
# Inter-frame codecs (mp4/webm) remain honest NotImplementedError
# stubs — no pure-numpy motion-compensated decoder is feasible here.

RAWV_MAGIC = b"RAWV1\x00"
MJPG_MAGIC = b"MJPG1\x00"


def mjpg_encode(frames: np.ndarray, quality: int = 90) -> bytes:
    """(n, h, w, c) uint8 frames -> mjpg1 container: magic + n +
    per-frame (length, baseline-JPEG bytes). Genuinely lossy."""
    from ..image.jpeg import jpeg_encode

    frames = np.ascontiguousarray(frames, dtype=np.uint8)
    parts = [MJPG_MAGIC + np.array([len(frames)], np.uint32).tobytes()]
    for f in frames:
        b = jpeg_encode(f, quality)
        parts.append(np.array([len(b)], np.uint32).tobytes())
        parts.append(b)
    return b"".join(parts)


def mjpg_decode(data: bytes) -> np.ndarray:
    """mjpg1 bytes -> (n, h, w, c) uint8 (frames must share one
    geometry, as in any video stream)."""
    from ..image.jpeg import jpeg_decode

    if not data.startswith(MJPG_MAGIC):
        raise ValueError("not a mjpg1 container")
    off = len(MJPG_MAGIC)
    if off + 4 > len(data):
        raise ValueError("truncated mjpg1 container")
    (n,) = np.frombuffer(data[off : off + 4], np.uint32)
    off += 4
    frames = []
    for _ in range(int(n)):
        # bounds-check the header-declared counts against the actual
        # payload (ADVICE r4): a truncated container must fail cleanly
        # here, like mulaw_decode, not as a confusing downstream
        # jpeg_decode/np.frombuffer error
        if off + 4 > len(data):
            raise ValueError("truncated mjpg1 container")
        (ln,) = np.frombuffer(data[off : off + 4], np.uint32)
        off += 4
        if off + int(ln) > len(data):
            raise ValueError("truncated mjpg1 container")
        px = jpeg_decode(data[off : off + int(ln)])
        if px.ndim == 2:  # grayscale stream: normalize to (h, w, 1)
            px = px[..., None]
        frames.append(px)
        off += int(ln)
    if not frames:
        raise ValueError("empty mjpg1 container")
    return np.stack(frames)


def video_decode(data: bytes, fmt: str) -> np.ndarray:
    """Dispatch on fmt -> (n, h, w, c) uint8 frames. rawv1 and the
    lossy mjpg1 are real; inter-frame codecs are honest stubs."""
    if fmt == "rawv1":
        return rawv_decode(data)
    if fmt == "mjpg1":
        return mjpg_decode(data)
    raise NotImplementedError(
        f"video codec {fmt!r} requires a decoder library not present in "
        "this container; plug one in here (pyav / decord) — every "
        "downstream stage takes (n, h, w, c) frames and is codec-agnostic."
    )


def rawv_encode(frames: np.ndarray) -> bytes:
    """Deterministic fake video container: magic + (n, h, w, c) header
    + raw uint8 frames. Lets tests exercise the frame-sampling stage
    without a codec library."""
    frames = np.ascontiguousarray(frames, dtype=np.uint8)
    n, h, w, c = frames.shape
    header = RAWV_MAGIC + np.array([n, h, w, c], dtype=np.uint32).tobytes()
    return header + frames.tobytes()


def rawv_decode(data: bytes) -> np.ndarray:
    if not data.startswith(RAWV_MAGIC):
        raise ValueError("not a rawv1 container")
    n, h, w, c = np.frombuffer(data[len(RAWV_MAGIC) : len(RAWV_MAGIC) + 16], np.uint32)
    return np.frombuffer(
        data[len(RAWV_MAGIC) + 16 :], np.uint8
    ).reshape(int(n), int(h), int(w), int(c))


class FrameSampler:
    """Actor: sample every ``stride``-th frame from a video binary
    column and emit one PNG row per kept frame (video_id, frame_idx,
    bytes, w, h, fmt) — the flat_map-shaped stage that turns a video
    table into an image table for the dedup pipeline.

    ``rawv1`` and the lossy ``mjpg1`` decode for real (video_decode);
    inter-frame codecs (mp4/webm/...) raise NotImplementedError at the
    decode call — the Ray-side plumbing is identical either way."""

    def __init__(self, stride: int = 2):
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids: list[str] = []
        idxs: list[int] = []
        blobs: list[bytes] = []
        ws: list[int] = []
        hs: list[int] = []
        for vid, data, fmt in zip(
            batch["video_id"].to_pylist(),
            batch["bytes"].to_pylist(),
            batch["fmt"].to_pylist(),
        ):
            frames = video_decode(data, fmt)
            for fi in range(0, len(frames), self.stride):
                vids.append(vid)
                idxs.append(fi)
                blobs.append(png_encode(frames[fi]))
                hs.append(frames.shape[1])
                ws.append(frames.shape[2])
        return pa.table(
            {
                "video_id": pa.array(vids, pa.string()),
                "frame_idx": pa.array(idxs, pa.int64()),
                "bytes": pa.array(blobs, pa.binary()),
                "w": pa.array(ws, pa.int32()),
                "h": pa.array(hs, pa.int32()),
                "fmt": pa.array(["png"] * len(vids), pa.string()),
            }
        )


def resize_images(corpus: "ray.data.Dataset", size: int = 64) -> "ray.data.Dataset":
    return actor_map(
        corpus.select_columns(["image_id", "bytes", "fmt"]), ImageResizer, size, batch_size=128
    )


def image_features(corpus: "ray.data.Dataset") -> "ray.data.Dataset":
    return actor_map(
        corpus.select_columns(["image_id", "bytes", "fmt"]), ImageFeatures, batch_size=128
    )


def image_hashes(corpus: "ray.data.Dataset") -> "ray.data.Dataset":
    """(image_id, phash, dhash, ahash) per image — decode once per row
    in an actor pool, bytes never leave the map stage."""
    return actor_map(
        corpus.select_columns(["image_id", "bytes", "fmt"]), ImageHashes, batch_size=128
    )


def banded_hash_dup_pairs(
    hashes: "ray.data.Dataset",
    id_col: str,
    hash_col: str,
    max_hamming: int = 3,
    bands: int = 4,
    cap: int = 256,
    stats: dict = None,
) -> "ray.data.Dataset":
    """Near-dup pairs by banded 64-bit hash hamming over a slim
    (id, hash) table — shared skeleton of the image and audio tiers
    (same pigeonhole argument as simhash_dup_pairs): slice the hash
    into ``bands`` 16-bit band keys (COMPLETE for
    ``max_hamming < bands``), then ONE cogrouped shuffle of (band, id,
    hash) rows whose in-bucket emission computes the EXACT 64-bit
    hamming (the full hashes ride the band rows) and filters at
    ``max_hamming`` — including the salted-chunk chain links, so the
    pair set is identical to the former emit → slim-attach → re-verify
    chain while skipping that chain's extra materialize + lookup
    stages entirely (round 4; the ``exact_hamming`` switch of
    lsh.cooccurrence_pairs_multi). A pair duplicated across bands
    carries the same hamming (one hash per id), so the trailing
    dedup_pairs keeps any copy. Output: distinct
    (src_id, dst_id, hamming), src < dst. Shuffle volume is bands x
    rows of (u64, id, i64); nothing else moves."""
    from .lsh import cooccurrence_pairs_multi, dedup_pairs, explode_band_rows
    from .signatures import hash_band_table

    banded = hashes.map_batches(
        lambda t: hash_band_table(t, hash_col, bands),
        batch_format="pyarrow",
    )
    rows = explode_band_rows(
        banded, band_cols=(f"{hash_col}_bands",), id_col=id_col,
        carry_cols=(hash_col,),
    )
    cand = cooccurrence_pairs_multi(
        [
            {
                "rows": rows, "key_col": "band", "cap": cap, "attr_col": hash_col,
                "attr_maxham": max_hamming, "exact_hamming": True,
            }
        ],
        id_col,
        stats=stats,
    )
    return dedup_pairs(cand).select_columns(["src_id", "dst_id", "hamming"])


def incremental_banded_dup_pairs(
    new_hashes: "ray.data.Dataset",
    ref_hashes: "ray.data.Dataset",
    id_col: str,
    hash_col: str,
    max_hamming: int = 3,
    bands: int = 4,
    cap: int = 256,
    stats: dict = None,
) -> "ray.data.Dataset":
    """Asymmetric (probe-vs-index) banded near-dup join — the daily-
    ingest shape: match a NEW shard's hashes against itself and against
    an existing REFERENCE hash table without ever re-pairing the
    reference against itself. Both slim (id, 64-bit hash) tables are
    banded by ``hash_band_table`` (complete for ``max_hamming < bands``)
    and meet in ``stages/lsh.probe_index_pairs``, whose in-bucket test is
    the EXACT hamming (``maxham``: the full hashes ride the band rows, so
    no attach or re-verify follows). Output: distinct
    (src_id, dst_id, hamming) where src is always NEW and dst is new
    (src < dst) or ref — never ref x ref. Only (id, hash) of the
    reference is read: its bytes are never decoded.

    Cap: a band larger than ``cap`` keeps all new rows and the
    id-ordered ref prefix; dropped ref rows reach
    ``stats['dropped_rows']`` through the sentinel tally. Re-ingest: an
    id in BOTH tables resolves to its NEW hash (its stale ref row is
    dropped before banding — lossless in the pigeonhole-complete
    regime), so it never self-pairs. The driver budget
    (stages/driver.py) bounds the driver-side ×``bands`` explode of the
    probe shard; the (id, hash) pull itself is O(|shard|) in all
    regimes."""
    from .lsh import dedup_pairs, probe_index_pairs, strip_sentinels, tally_sentinels
    from .signatures import hash_band_table

    raw, _ = probe_index_pairs(
        new_hashes.select_columns([id_col, hash_col]),
        ref_hashes.select_columns([id_col, hash_col]),
        id_col,
        hash_col,
        bands,
        add_bands=lambda t: hash_band_table(t, hash_col, bands, out_col="bands"),
        cap=cap,
        maxham=max_hamming,
    )
    # a pair emitted in several bands carries the same hamming (one hash
    # per id), so dedup_pairs may keep any copy
    cand = dedup_pairs(raw)
    if stats is not None:
        cand = cand.materialize()
        tally_sentinels(cand, stats, "str")
    return strip_sentinels(cand, "str").select_columns(
        ["src_id", "dst_id", "hamming"]
    )


def incremental_image_dup_pairs(
    new_corpus: "ray.data.Dataset",
    ref_hashes: "ray.data.Dataset",
    hash_col: str = "dhash",
    max_hamming: int = 3,
    bands: int = 4,
    cap: int = 256,
    stats: dict = None,
) -> "ray.data.Dataset":
    """Daily-ingest image dedup: decode + hash only the NEW shard
    (actor pool, bytes never shuffle) and match it against itself plus
    an existing reference hash table (e.g. the persisted
    ``image_hashes`` output of prior runs) via
    incremental_banded_dup_pairs — the reference images are never
    re-decoded and never paired against each other."""
    # no materialize: the join's one driver pull is the only execution
    # of this decode pipeline
    return incremental_banded_dup_pairs(
        image_hashes(new_corpus), ref_hashes, "image_id", hash_col,
        max_hamming, bands, cap, stats,
    )


def image_hash_dup_pairs(
    corpus: "ray.data.Dataset",
    hash_col: str = "dhash",
    max_hamming: int = 3,
    bands: int = 4,
    cap: int = 256,
    stats: dict = None,
) -> "ray.data.Dataset":
    """Near-dup image pairs by banded perceptual-hash hamming: decode +
    hash in an actor pool (bytes never shuffle), then the shared
    banded_hash_dup_pairs skeleton. No materialize: the hash table has
    a single consumer now (hamming rides out of the band bucket), so
    decode streams straight into the band shuffle."""
    return banded_hash_dup_pairs(
        image_hashes(corpus), "image_id", hash_col, max_hamming, bands,
        cap, stats,
    )


def sample_frames(videos: "ray.data.Dataset", stride: int = 2) -> "ray.data.Dataset":
    return actor_map(
        videos.select_columns(["video_id", "bytes", "fmt"]), FrameSampler, stride, batch_size=16
    )


class VideoFrameHashes:
    """Actor: decode the video container once and emit one
    (video_id, frame_idx, dhash) row per frame — dHash computed
    straight on the raw frame array, no PNG re-encode round-trip
    (FrameSampler exists for pipelines that need frame BYTES; this is
    the slim path video-level dedup wants). ``rawv1`` and the lossy
    ``mjpg1`` are real (video_decode); inter-frame codecs raise
    NotImplementedError like FrameSampler."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids: list[str] = []
        idxs: list[int] = []
        hashes: list[int] = []
        for vid, data, fmt in zip(
            batch["video_id"].to_pylist(),
            batch["bytes"].to_pylist(),
            batch["fmt"].to_pylist(),
        ):
            frames = video_decode(data, fmt)
            for fi in range(len(frames)):
                vids.append(vid)
                idxs.append(fi)
                hashes.append(dhash64(frames[fi]))
        return pa.table(
            {
                "video_id": pa.array(vids, pa.string()),
                "frame_idx": pa.array(idxs, pa.int64()),
                "dhash": pa.array(hashes, pa.int64()),
            }
        )


def video_frame_hashes(videos: "ray.data.Dataset") -> "ray.data.Dataset":
    """(video_id, frame_idx, dhash) per frame — decode once per video
    in an actor pool, bytes never leave the map stage."""
    return actor_map(
        videos.select_columns(["video_id", "bytes", "fmt"]), VideoFrameHashes, batch_size=32
    )


def video_dup_pairs(
    videos: "ray.data.Dataset",
    max_hamming: int = 3,
    min_frame_matches: int = 2,
    bands: int = 4,
    cap: int = 256,
    stats: dict = None,
) -> "ray.data.Dataset":
    """Video-level near-dup pairs by frame-hash evidence: per-frame
    dHash in an actor pool (bytes never shuffle), the shared
    banded_hash_dup_pairs skeleton over frame ids, then a combiner →
    bucket-cogroup count of matching frame pairs per video pair.
    ``min_frame_matches`` guards against single coincidental frame
    collisions (the count is over DISTINCT matching frame pairs; a
    frame may participate in several). Output: (src_id, dst_id,
    n_frame_matches), src < dst, n_frame_matches >= min_frame_matches.

    Cap semantics: when a band bucket exceeds ``cap`` (degenerate
    frames — e.g. near-uniform frames across many videos), the LSH
    stage emits only salted-chunk pairs plus chain links, so
    n_frame_matches is a LOWER BOUND in that regime and a pair whose
    only evidence is capped frames can fall below the floor — the same
    recall tradeoff the image/audio tiers accept, amplified here by
    the counting. Pass ``stats`` to observe dropped/capped buckets
    (stages/lsh.py sentinel reporting); raise ``cap`` (or prefilter
    low-entropy frames) when drops are nonzero.
    Scale shape: the wide steps see only (band, frame_id, hash) rows
    and then pre-aggregated (video pair, cnt) partials — frames per
    video is a small constant, so this is the image-tier cost times
    mean frame count."""
    frame_hashes = video_frame_hashes(videos).map_batches(
        _frame_id_table, batch_format="pyarrow"
    )  # ~40 B/frame; single consumer (band shuffle) — no materialize
    frame_pairs = banded_hash_dup_pairs(
        frame_hashes, "frame_id", "dhash", max_hamming, bands, cap, stats
    )
    return _video_pair_counts(frame_pairs, min_frame_matches)


def _frame_id_table(t: pa.Table) -> pa.Table:
    """(video_id, frame_idx, dhash) -> (frame_id, dhash). Zero-padded
    frame index keeps frame_id ordering aligned with
    (video_id, frame_idx) ordering, so src<dst at the frame level
    implies src_vid <= dst_vid at the video level.

    Id-charset contract (ADVICE r3): the alignment relies on the '#'
    separator (0x23) sorting BELOW every character of every video id —
    an id containing ' ' or '!' would let a frame-level src<dst cross a
    video-level src>dst, breaking the documented orientation of
    incremental_video_dup_pairs (canonical_swap=False). Validated here
    (vectorized min-codepoint check) rather than documented-only, so a
    violating corpus fails loudly at the first map instead of emitting
    silently mis-oriented pairs; the symmetric path keeps its defensive
    swap regardless."""
    vid = t["video_id"].to_pandas().to_numpy(dtype=object)
    if len(vid):
        import pyarrow.compute as pc

        bad = pc.match_substring_regex(
            pa.array(vid, pa.string()), r"[\x00-\x23]"
        )
        if pc.any(bad).as_py():
            raise ValueError(
                "video_id contains characters <= '#' (0x23); the "
                "frame_id ordering contract requires every id char "
                "above '#' — rename or escape video ids"
            )
    idx = t["frame_idx"].to_numpy(zero_copy_only=False)
    fids = np.array(
        [f"{v}#{i:06d}" for v, i in zip(vid, idx)], dtype=object
    )
    return pa.table(
        {"frame_id": pa.array(fids, pa.string()), "dhash": t["dhash"]}
    )


def _video_pair_counts(
    frame_pairs: "ray.data.Dataset",
    min_frame_matches: int,
    canonical_swap: bool = True,
) -> "ray.data.Dataset":
    """Frame pairs -> (src_id, dst_id, n_frame_matches) video pairs:
    per-batch combiner counts, one bucket-cogroup merge, floor filter.
    ``canonical_swap=False`` preserves the frame pairs' side
    orientation (the incremental path keeps src = the NEW shard's
    video; swapping would lose which side is the probe)."""
    import pandas as pd

    from .exchange import exchange

    def _vid_partial(t: pa.Table) -> pa.Table:
        # frame pair -> video pair (drop intra-video), count per batch
        src = np.array(
            [s.rsplit("#", 1)[0] for s in t["src_id"].to_pylist()],
            dtype=object,
        )
        dst = np.array(
            [s.rsplit("#", 1)[0] for s in t["dst_id"].to_pylist()],
            dtype=object,
        )
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if canonical_swap:
            swap = src > dst  # defensive: holds already via frame_id order
            src[swap], dst[swap] = dst[swap], src[swap]
        vc = pd.DataFrame({"src_id": src, "dst_id": dst}).value_counts(
            sort=False
        )
        idx = vc.index
        return pa.table(
            {
                "src_id": pa.array(
                    idx.get_level_values(0).to_numpy(dtype=object),
                    pa.string(),
                ),
                "dst_id": pa.array(
                    idx.get_level_values(1).to_numpy(dtype=object),
                    pa.string(),
                ),
                "n_frame_matches": pa.array(
                    vc.to_numpy(dtype=np.int64), pa.int64()
                ),
            }
        )

    def _vid_merge(group: pd.DataFrame) -> pa.Table:
        out = (
            group.groupby(["src_id", "dst_id"], sort=False)
            .agg(n_frame_matches=("n_frame_matches", "sum"))
            .reset_index()
        )
        out = out[out["n_frame_matches"] >= min_frame_matches]
        return pa.table(
            {
                "src_id": pa.array(out["src_id"].to_numpy(dtype=object), pa.string()),
                "dst_id": pa.array(out["dst_id"].to_numpy(dtype=object), pa.string()),
                "n_frame_matches": pa.array(
                    out["n_frame_matches"].to_numpy(dtype=np.int64), pa.int64()
                ),
            }
        )

    return exchange(
        frame_pairs.map_batches(_vid_partial, batch_format="pyarrow"),
        ["src_id", "dst_id"],
        _vid_merge,
    )


def incremental_video_dup_pairs(
    new_videos: "ray.data.Dataset",
    ref_frame_hashes: "ray.data.Dataset",
    max_hamming: int = 3,
    min_frame_matches: int = 2,
    bands: int = 4,
    cap: int = 256,
    stats: dict = None,
) -> "ray.data.Dataset":
    """Daily-ingest video dedup — the video wiring of
    incremental_banded_dup_pairs: decode + frame-hash ONLY the new
    shard, probe its frame ids against a persisted frame-hash table
    (the ``video_frame_hashes`` output of prior runs, schema
    (video_id, frame_idx, dhash)), then the shared frame→video pair
    aggregation with orientation preserved: src is always a NEW
    shard's video, dst is new (src < dst) or ref — never ref x ref.
    A re-ingested video SUPERSEDES its persisted frame set wholesale:
    every ref frame row belonging to a video id present in the new
    shard is anti-joined out before the frame join (a truncated or
    re-encoded re-ingest changes the frame SET, and stale leftover
    frames would otherwise emit the reversed orientation of a new x new
    video pair with split counts). The new-video-id broadcast is
    bounded by the ingest shard."""
    # materialize stays here (unlike the image/audio wrappers): new_fh
    # has TWO consumers — the new-video-id pull below and the generic
    # op's own probe pull — and the upstream is the decode actor pool
    new_fh = video_frame_hashes(new_videos).map_batches(
        _frame_id_table, batch_format="pyarrow"
    ).materialize()
    new_vids: list = []
    for b in new_fh.select_columns(["frame_id"]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        import pyarrow.compute as pc

        new_vids.extend(
            s.rsplit("#", 1)[0] for s in b["frame_id"].to_pylist()
        )
    new_vid_ref = ray.put(pa.array(sorted(set(new_vids)), pa.string()))

    def _supersede(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        seen = ray.get(new_vid_ref)
        if len(seen) == 0:
            return batch
        return batch.filter(
            pc.invert(pc.is_in(batch["video_id"], value_set=seen))
        )

    # no materialize: the generic op consumes its ref side exactly once
    # now (band path only — the verify union is gone), so the per-frame
    # f-string map runs once either way
    ref_fh = ref_frame_hashes.map_batches(
        _supersede, batch_format="pyarrow"
    ).map_batches(_frame_id_table, batch_format="pyarrow")
    frame_pairs = incremental_banded_dup_pairs(
        new_fh, ref_fh, "frame_id", "dhash", max_hamming, bands, cap, stats
    )
    return _video_pair_counts(
        frame_pairs, min_frame_matches, canonical_swap=False
    )


# --- audio tier --------------------------------------------------------


class AudioFeatures:
    """Actor: decode (audio/codec.py, rawa1 real / compressed codecs
    honest stubs) -> per-clip DSP features + 64-bit spectro-temporal
    fingerprint. Emits (audio_id, duration_s, rms, zcr, centroid_hz,
    fp64) — the audio analog of ImageHashes: decode once per row in an
    actor pool, bytes never leave the map stage."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..audio.codec import audio_features_one, decode as adecode

        n = len(batch)
        dur = np.empty(n, dtype=np.float64)
        rms = np.empty(n, dtype=np.float64)
        zcr = np.empty(n, dtype=np.float64)
        cen = np.empty(n, dtype=np.float64)
        fp = np.empty(n, dtype=np.int64)
        for i, (data, fmt) in enumerate(
            zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist())
        ):
            x, sr = adecode(data, fmt)
            f = audio_features_one(x, sr)
            dur[i] = f["duration_s"]
            rms[i] = f["rms"]
            zcr[i] = f["zcr"]
            cen[i] = f["centroid_hz"]
            fp[i] = f["fp64"]
        return pa.table(
            {
                "audio_id": batch["audio_id"],
                "duration_s": pa.array(dur, pa.float64()),
                "rms": pa.array(rms, pa.float64()),
                "zcr": pa.array(zcr, pa.float64()),
                "centroid_hz": pa.array(cen, pa.float64()),
                "fp64": pa.array(fp, pa.int64()),
            }
        )


def audio_features(corpus: "ray.data.Dataset") -> "ray.data.Dataset":
    """(audio_id, duration_s, rms, zcr, centroid_hz, fp64) per clip."""
    return actor_map(
        corpus.select_columns(["audio_id", "bytes", "fmt"]), AudioFeatures, batch_size=256
    )


class AudioQuality:
    """Actor: decode -> per-clip quality signals (clipping, silence,
    crest factor, DC offset — audio/codec.py:audio_quality_one), the
    audio analog of text.py's quality_signals. Emits (audio_id,
    clipping_frac, silence_frac, crest_db, dc_offset)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..audio.codec import audio_quality_one, decode as adecode

        n = len(batch)
        cols = {
            k: np.empty(n, dtype=np.float64)
            for k in ("clipping_frac", "silence_frac", "crest_db", "dc_offset")
        }
        for i, (data, fmt) in enumerate(
            zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist())
        ):
            x, sr = adecode(data, fmt)
            q = audio_quality_one(x, sr)
            for k, arr in cols.items():
                arr[i] = q[k]
        return pa.table(
            {"audio_id": batch["audio_id"]}
            | {k: pa.array(v, pa.float64()) for k, v in cols.items()}
        )


def audio_quality_signals(clips: "ray.data.Dataset") -> "ray.data.Dataset":
    return actor_map(
        clips.select_columns(["audio_id", "bytes", "fmt"]), AudioQuality, batch_size=256
    )


def audio_quality_filter(
    clips: "ray.data.Dataset",
    max_clipping: float = 0.01,
    max_silence: float = 0.9,
) -> "ray.data.Dataset":
    """Keep-list of audio ids passing the quality gates (hard-clipped
    or mostly-silent clips dropped)."""
    sig = audio_quality_signals(clips)

    def _keep(t: pa.Table) -> pa.Table:
        m = (
            t["clipping_frac"].to_numpy(zero_copy_only=False) <= max_clipping
        ) & (t["silence_frac"].to_numpy(zero_copy_only=False) <= max_silence)
        return pa.table({"audio_id": t["audio_id"].filter(pa.array(m))})

    return sig.map_batches(_keep, batch_format="pyarrow")


def audio_fp_dup_pairs(
    corpus: "ray.data.Dataset",
    max_hamming: int = 3,
    bands: int = 4,
    cap: int = 256,
    stats: dict = None,
) -> "ray.data.Dataset":
    """Near-dup audio pairs by banded fingerprint hamming: decode +
    fingerprint in an actor pool (bytes never shuffle), then the shared
    banded_hash_dup_pairs skeleton — identical shuffle shape to the
    image tier, so the 100-TB argument carries over unchanged."""
    fps = audio_features(corpus).select_columns(["audio_id", "fp64"])
    # no materialize: single consumer (the band shuffle) — decode
    # streams straight through
    return banded_hash_dup_pairs(
        fps, "audio_id", "fp64", max_hamming, bands, cap, stats
    )


def incremental_audio_dup_pairs(
    new_corpus: "ray.data.Dataset",
    ref_fps: "ray.data.Dataset",
    max_hamming: int = 3,
    bands: int = 4,
    cap: int = 256,
    stats: dict = None,
) -> "ray.data.Dataset":
    """Daily-ingest audio dedup — the audio wiring of
    incremental_banded_dup_pairs (the image tier's
    incremental_image_dup_pairs, one modality over): decode +
    fingerprint ONLY the new shard in the actor pool, then the
    asymmetric probe-vs-index banded join against a persisted
    fingerprint table (e.g. a prior run's ``audio_features`` output) —
    reference clips are never re-decoded and never paired against each
    other."""
    # no materialize: the join's one driver pull is the only execution
    # of this decode pipeline
    return incremental_banded_dup_pairs(
        audio_features(new_corpus), ref_fps, "audio_id", "fp64",
        max_hamming, bands, cap, stats,
    )
