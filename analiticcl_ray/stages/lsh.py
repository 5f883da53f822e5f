"""LSH banding: the shuffle that *is* the index.

analiticcl's primary AnaIndex (anahash -> instances, src/index.rs:5-12)
and its deletion-neighborhood candidate search (find_nearest_anahashes,
src/lib.rs:1143-1308) are replaced by an explicit groupby exchange on
LSH band keys (SURVEY.md T3/J1): rows sharing any caption-MinHash band
or any phash bit-slice band become candidate pairs, later confirmed by
the exact verify kernel. Recall vs the reference's guaranteed-complete
neighborhood search is a measured target (>=0.99, BASELINE.json).

Performance shape (this matters at 10^12 rows):
- Nearly every band key is a singleton (unique caption -> unique band
  hashes). Feeding all of them to ``groupby().map_groups`` costs a
  Python/pandas invocation per singleton group. Instead we first run a
  vectorized ``groupby(key).count()`` (hash/sort aggregate, no Python
  per group), keep only keys with count >= 2 ("hot" keys), semi-join the
  band rows against that hot set, and only then run the per-group pair
  emission — Python touches only groups that can emit a pair.
- The hot-key set rides to workers as one broadcast object (``ray.put``
  once). At extreme scale, replace the broadcast with a Dataset.join
  against the hot-key table (same shuffle count); the broadcast is
  correct while hot keys ≈ duplicate rows × bands fit in the object
  store, which holds by the dedup premise (dups ≪ corpus).

Skew handling (north rule): a boilerplate caption puts thousands of ids
into one band bucket -> O(n^2) pair blowup. Buckets larger than
``bucket_cap`` are *salted*: ids are sorted (determinism) and chunked;
all pairs are emitted within a chunk plus a single chain link between
consecutive chunks — connectivity for connected components is fully
preserved while the pair count drops from O(n^2) to O(n * cap). Capped
buckets are flagged in the output — no silent truncation.

Scale note: only (band_key, image_id) ever enters this shuffle — the
binary image column is projected away up front (project-before-shuffle,
SURVEY.md §4.2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Max


def explode_band_rows(
    ds: "ray.data.Dataset", band_cols=("bands", "phash_bands"), id_col: str = "image_id",
    carry_cols=(),
) -> "ray.data.Dataset":
    """(id, bands[, phash_bands]) -> long table (band, id[, carried]).

    Stateless task stage; output is the ONLY thing the wide groupby
    sees. ``carry_cols``: narrow per-row attributes (e.g. the full
    64-bit phash) repeated onto every band row so in-group pair
    emission can prefilter without a later attach."""

    def _explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col]
        parts_band = []
        parts_id = []
        parts_carry = {c: [] for c in carry_cols}
        for col in band_cols:
            if col not in batch.column_names:
                continue
            arr = batch[col].combine_chunks()
            width = arr.type.list_size
            parts_band.append(arr.flatten())
            idx = pa.array(np.repeat(np.arange(len(batch), dtype=np.int64), width))
            parts_id.append(ids.take(idx).combine_chunks())
            for c in carry_cols:
                parts_carry[c].append(batch[c].take(idx).combine_chunks())

        def _cat(parts):
            return pa.concat_arrays(
                [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p for p in parts]
            )

        cols = {"band": _cat(parts_band), id_col: _cat(parts_id)}
        for c in carry_cols:
            cols[c] = _cat(parts_carry[c])
        return pa.table(cols)

    return ds.map_batches(_explode, batch_format="pyarrow")


def _popcount_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount over uint64 (numpy<2 has no bitwise_count)."""
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


def block_pair_key_lut(n_parts: int) -> np.ndarray:
    """(n_parts × n_parts) LUT mapping an unordered partition pair
    (p, q) to its canonical triangular key in [0, n_parts·(n_parts+1)/2).
    Shared by every exact block-pair cross-product operator
    (ann.cosine_dup_pairs, text._dense_gram_jaccard): each row is
    replicated once per partition-pair, ONE groupby co-locates every
    (a, b) block exactly once, and the in-group work is a matmul."""
    lut = np.empty((n_parts, n_parts), dtype=np.int64)
    for p in range(n_parts):
        for q in range(n_parts):
            a, b = (p, q) if p <= q else (q, p)
            lut[p, q] = a * n_parts - a * (a - 1) // 2 + (b - a)
    return lut


def decode_block_pair_key(key: int, n_parts: int) -> tuple[int, int]:
    """Invert ``block_pair_key_lut``: canonical key -> (a, b), a <= b."""
    a = 0
    k = key
    while k > n_parts - a - 1:
        k -= n_parts - a
        a += 1
    return a, a + k


def emit_bucket_pairs(ids: list, cap: int) -> tuple[list, list, bool]:
    """Pairs for one bucket, with deterministic salting above ``cap``.
    Returns (src list, dst list, was_capped)."""
    ids = sorted(set(ids))
    n = len(ids)
    if n < 2:
        return [], [], False
    src: list = []
    dst: list = []
    capped = n > cap
    ids_arr = np.array(ids, dtype=object)
    for c0 in range(0, n, cap):
        chunk = ids_arr[c0 : c0 + cap]
        iu, ju = np.triu_indices(len(chunk), 1)
        src.extend(chunk[iu])
        dst.extend(chunk[ju])
        if c0 + cap < n:  # chain link keeps the bucket connected
            src.append(chunk[0])
            dst.append(ids[c0 + cap])
    return src, dst, capped


def hot_keys(rows: "ray.data.Dataset", key_col: str) -> "ray.data.Dataset":
    """Keys occurring >= 2 times — a vectorized aggregate, no Python
    per group."""
    return (
        rows.groupby(key_col)
        .count()
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["count()"], pa.scalar(2))),
            batch_format="pyarrow",
        )
    )


DROPPED_SENTINEL = "__DROPPED_BUCKET__"


def adaptive_cogroups(
    n_rows: Optional[int], rows_per_group: int = 500_000, floor: int = 1024
) -> int:
    """Scale the co-group bucket count with the (estimated) number of
    rows entering the shuffle (VERDICT r1 item 7): each co-group
    materializes as ONE pandas frame inside ``map_groups``, so a fixed
    1024 would make groups corpus/1024-sized — fatal at 1e12 band rows.
    ``None`` (unknown) keeps the floor."""
    if not n_rows:
        return floor
    return max(floor, -(-n_rows // rows_per_group))


def widen_blocks(
    ds: "ray.data.Dataset", min_blocks: int
) -> "ray.data.Dataset":
    """Repartition a MATERIALIZED dataset up to ``min_blocks`` blocks —
    only when it currently has fewer. A block is Ray Data's task unit:
    an actor-pool ``map_batches`` can launch at most one task per
    block, so a small edge list that the pair-dedup shuffle emitted in
    a handful of blocks would starve a verify pool of N actors (the
    measured 3x caption-verify slowdown at 31k pairs in 6 blocks).
    At real scale the shuffle output already exceeds ``min_blocks``
    and this is a free no-op; when it does fire, the input is by
    construction edge-list-sized, so the repartition is cheap."""
    if ds.num_blocks() < min_blocks:
        return ds.repartition(min_blocks).materialize()
    return ds


def pool_width(concurrency) -> int:
    """Max actor count of a ``map_batches`` concurrency spec
    ((min, max) tuple or plain int)."""
    if isinstance(concurrency, tuple):
        return int(concurrency[1])
    return int(concurrency)


def bucket_by_keys(
    batch: pa.Table, key_cols: list[str], n_buckets: int
) -> pa.Table:
    """Append an int64 ``bucket`` column = deterministic hash of the key
    columns mod ``n_buckets``. All rows sharing the keys land in one
    cogroup; many key groups share a cogroup, so a downstream
    ``groupby("bucket").map_groups`` pays ONE Python call per bucket
    (with a C-speed pandas groupby inside) instead of one per key —
    the bucket-cogroup pattern this module's pair stages use, exposed
    for the small aggregate merges (exact_dedup, token_counts, ...).

    Hashing is ``pandas.util.hash_array`` (vectorized siphash with the
    library's fixed default key — deterministic across workers and
    processes) xor-combined across columns; handles string and numeric
    key columns alike. Emits metadata-free Arrow so Ray's reduce-side
    schema dedup keeps hashing the block schemas."""
    import pandas as pd

    acc = np.zeros(len(batch), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in key_cols:
            col = batch[c].to_pandas().to_numpy()
            h = pd.util.hash_array(col, categorize=False)
            acc = (acc ^ h) * np.uint64(0x9E3779B97F4A7C15)
        bucket = acc % np.uint64(n_buckets)
    return batch.append_column(
        "bucket", pa.array(bucket.astype(np.int64), pa.int64())
    ).replace_schema_metadata(None)


def emit_bucket_pairs_attr(
    ids: np.ndarray, attrs: np.ndarray, cap: int, ratio: Optional[float] = None,
    maxham: Optional[int] = None, return_attrs: bool = False,
) -> tuple:
    """Vectorized pair emission with an attribute prefilter, applied at
    the earliest possible point (inside the cogroup — no extra shuffle,
    no attach):

    - ``ratio``: keep a pair only if ``min(attr) >= ratio * max(attr)``
      — for Jaccard at threshold t this is a NECESSARY condition
      (|A∩B| <= min sizes, |A∪B| >= max sizes), so the filter is
      exact-safe: every dropped pair would fail the exact verify anyway.
    - ``maxham``: attr is a 64-bit fingerprint (e.g. the full phash);
      keep only pairs with ``popcount(a ^ b) <= maxham``. Lossless for
      the dedup semantics when the verify requires near-identical
      images (PSNR>=40dB dups measure <=4 phash bits apart; random
      pairs ~32).

    Salting chain links are kept unconditionally (connectivity for CC
    consumers). ``ids`` must be unique and sorted ascending with
    ``attrs`` aligned; returns (src, dst, was_capped) as numpy arrays
    of ids' dtype — or (src, dst, attr_src, attr_dst, was_capped) when
    ``return_attrs`` is set (so a hamming-exact caller can emit the
    verified distance straight out of the bucket, skipping the slim
    attach + re-verify stage entirely)."""
    n = len(ids)
    if n < 2:
        if return_attrs:
            return ids[:0], ids[:0], attrs[:0], attrs[:0], False
        return ids[:0], ids[:0], False
    srcs: list = []
    dsts: list = []
    a_srcs: list = []
    a_dsts: list = []
    capped = n > cap
    for c0 in range(0, n, cap):
        idc = ids[c0 : c0 + cap]
        atc = attrs[c0 : c0 + cap]
        iu, ju = np.triu_indices(len(idc), 1)
        a, b = atc[iu], atc[ju]
        if ratio is not None:
            keep = np.minimum(a, b) >= ratio * np.maximum(a, b)
        elif maxham is not None:
            ham = _popcount_u64(
                (a.astype(np.int64).view(np.uint64))
                ^ (b.astype(np.int64).view(np.uint64))
            )
            keep = ham <= np.uint64(maxham)
        else:
            # no prefilter configured: return_attrs callers may still
            # route here just to carry attrs out of the bucket (ADVICE
            # r4 — np.uint64(None) would otherwise TypeError on any
            # over-cap bucket)
            keep = np.ones(len(a), dtype=bool)
        srcs.append(idc[iu[keep]])
        dsts.append(idc[ju[keep]])
        if return_attrs:
            a_srcs.append(a[keep])
            a_dsts.append(b[keep])
        if c0 + cap < n:  # chain link keeps the bucket connected
            srcs.append(idc[:1])
            dsts.append(ids[c0 + cap : c0 + cap + 1])
            if return_attrs:
                a_srcs.append(atc[:1])
                a_dsts.append(attrs[c0 + cap : c0 + cap + 1])
    if return_attrs:
        return (
            np.concatenate(srcs),
            np.concatenate(dsts),
            np.concatenate(a_srcs),
            np.concatenate(a_dsts),
            capped,
        )
    return np.concatenate(srcs), np.concatenate(dsts), capped


def grouped_by_cogroup(ds: "ray.data.Dataset", key: str, n_cogroups: int):
    """groupby on an integer cogroup key, optionally via HASH shuffle
    (``num_partitions``): hash partitioning streams blocks to
    aggregators with no global sample+sort barrier — at cluster scale
    the sort's sampling pass alone re-reads every block. Partition
    count tracks the cogroup count (each partition then holds ~4
    cogroup frames) with a floor for small inputs.

    ``ANALITICCL_HASH_SHUFFLE=0`` forces the sort-based groupby (the
    default): measured on this Ray (2.49) in local mode, the
    hash-shuffle aggregator actors REGRESS the 1M-row candidate stage
    at 32 CPUs (~+80% wall vs sort) — they compete with the map actors
    for CPU slots. The flag exists so a real multi-node deployment can
    flip it where the sort's global sampling barrier dominates
    instead."""
    import os

    if os.environ.get("ANALITICCL_HASH_SHUFFLE", "0") == "1":
        npart = max(32, n_cogroups // 4)
        try:
            return ds.groupby(key, num_partitions=npart)
        except TypeError:  # older Ray: sort-based groupby only
            pass
    return ds.groupby(key)


def emit_pairs_grouped(
    keys: np.ndarray,
    ids: np.ndarray,
    attrs: Optional[np.ndarray],
    cap: int,
    drop_threshold: int,
    ratio: Optional[float] = None,
    maxham: Optional[int] = None,
    return_attrs: bool = False,
) -> tuple:
    """ALL-bucket pair emission for one cogroup, vectorized by bucket
    SIZE CLASS: one lexsort co-locates every bucket, buckets sharing a
    unique-id count n are gathered into a (k, n) matrix, and the
    triangular expansion + attr prefilter run as single numpy ops per
    distinct n (<= cap distinct classes) instead of one Python/pandas
    iteration per bucket — the measured per-bucket overhead was ~40%
    of the flagship candidate stage at 20k rows. Semantics are
    bucket-for-bucket identical to emit_bucket_pairs[_attr] over a
    pandas groupby (property-tested):

    - a bucket's DROP decision uses its RAW row count (> drop_threshold
      -> reported, not emitted);
    - emitted pairs use the bucket's deduped ids, sorted ascending
      (canonical src < dst);
    - buckets above ``cap`` take the rare salted-chunk path (chain
      links keep them connected; every pair flagged capped=True);
    - ``ratio``/``maxham`` prefilters as in emit_bucket_pairs_attr.

    Returns (src, dst, capped, dropped_raw_rowcounts) — or, with
    ``return_attrs`` (requires ``attrs``), (src, dst, attr_src,
    attr_dst, capped, dropped): the per-pair attribute values ride out
    of the bucket so an exact-by-attr caller (banded hash hamming) can
    finish verification without any downstream attach."""
    assert not return_attrs or attrs is not None
    empty = ids[:0]
    e_attr = attrs[:0] if attrs is not None else None
    if len(keys) == 0:
        if return_attrs:
            return empty, empty, e_attr, e_attr, np.zeros(0, dtype=bool), []
        return empty, empty, np.zeros(0, dtype=bool), []
    order = np.lexsort((ids, keys))
    keys = keys[order]
    ids = ids[order]
    if attrs is not None:
        attrs = attrs[order]
    newkey = np.empty(len(keys), dtype=bool)
    newkey[0] = True
    np.not_equal(keys[1:], keys[:-1], out=newkey[1:])
    seg_id = np.cumsum(newkey) - 1
    raw_sizes = np.bincount(seg_id)
    dropped = raw_sizes[raw_sizes > drop_threshold].tolist()
    row_keep = ((raw_sizes >= 2) & (raw_sizes <= drop_threshold))[seg_id]
    # (key, id) dedup: duplicates are adjacent after the lexsort, and a
    # segment's first row is never a duplicate, so masking newkey keeps
    # exactly one True per surviving segment
    dup = np.zeros(len(keys), dtype=bool)
    dup[1:] = (~newkey[1:]) & (ids[1:] == ids[:-1])
    row_keep &= ~dup
    ids_u = ids[row_keep]
    if not len(ids_u):
        if return_attrs:
            return empty, empty, e_attr, e_attr, np.zeros(0, dtype=bool), dropped
        return empty, empty, np.zeros(0, dtype=bool), dropped
    at_u = attrs[row_keep] if attrs is not None else None
    starts = np.flatnonzero(newkey[row_keep])
    sizes = np.diff(np.append(starts, len(ids_u)))
    use_attr = at_u is not None and (ratio is not None or maxham is not None)
    srcs: list = []
    dsts: list = []
    caps: list = []
    at_s: list = []
    at_d: list = []
    for n in np.unique(sizes):
        n = int(n)
        if n < 2:
            continue
        sel = starts[sizes == n]
        if n > cap:
            # salted-chunk fallback; degenerate-adjacent, so rare
            for st in sel:
                seg_ids = ids_u[st : st + n]
                if use_attr or return_attrs:
                    out = emit_bucket_pairs_attr(
                        seg_ids, at_u[st : st + n], cap, ratio, maxham,
                        return_attrs=return_attrs,
                    )
                    if return_attrs:
                        s, d, a_s, a_d, capped = out
                    else:
                        s, d, capped = out
                else:
                    sl, dl, capped = emit_bucket_pairs(list(seg_ids), cap)
                    s = np.asarray(sl, dtype=ids_u.dtype)
                    d = np.asarray(dl, dtype=ids_u.dtype)
                if len(s):
                    srcs.append(s)
                    dsts.append(d)
                    caps.append(np.full(len(s), capped))
                    if return_attrs:
                        at_s.append(a_s)
                        at_d.append(a_d)
            continue
        idx = sel[:, None] + np.arange(n)
        idm = ids_u[idx]
        iu, ju = np.triu_indices(n, 1)
        s = idm[:, iu].ravel()
        d = idm[:, ju].ravel()
        a = b = None
        if use_attr or return_attrs:
            am = at_u[idx]
            a = am[:, iu].ravel()
            b = am[:, ju].ravel()
        if use_attr:
            if ratio is not None:
                keep = np.minimum(a, b) >= ratio * np.maximum(a, b)
            else:
                ham = _popcount_u64(
                    a.astype(np.int64).view(np.uint64)
                    ^ b.astype(np.int64).view(np.uint64)
                )
                keep = ham <= np.uint64(maxham)
            s = s[keep]
            d = d[keep]
            if return_attrs:
                a = a[keep]
                b = b[keep]
        if len(s):
            srcs.append(s)
            dsts.append(d)
            caps.append(np.zeros(len(s), dtype=bool))
            if return_attrs:
                at_s.append(a)
                at_d.append(b)
    if not srcs:
        if return_attrs:
            return empty, empty, e_attr, e_attr, np.zeros(0, dtype=bool), dropped
        return empty, empty, np.zeros(0, dtype=bool), dropped
    if return_attrs:
        return (
            np.concatenate(srcs),
            np.concatenate(dsts),
            np.concatenate(at_s),
            np.concatenate(at_d),
            np.concatenate(caps),
            dropped,
        )
    return (
        np.concatenate(srcs),
        np.concatenate(dsts),
        np.concatenate(caps),
        dropped,
    )


def cooccurrence_pairs(
    rows: "ray.data.Dataset",
    key_col: str,
    id_col: str,
    cap: int = 256,
    id_dtype: str = "str",
    drop_threshold: Optional[int] = None,
    stats: Optional[dict] = None,
    n_cogroups: int = 1024,
    keep_sentinels: bool = False,
    sentinel_salt: int = 0,
    attr_col: Optional[str] = None,
    attr_ratio: Optional[float] = None,
    attr_maxham: Optional[int] = None,
) -> "ray.data.Dataset":
    """(key, id) rows -> canonical candidate pairs (src < dst) for every
    key shared by >= 2 ids, with salting above ``cap``.

    ``sentinel_salt``: callers that UNION the sentinel-carrying outputs
    of several cooccurrence passes before one shared ``dedup_pairs``
    must give each pass a distinct salt — sentinel uniqueness is
    otherwise only per-call, and two passes could emit byte-identical
    sentinels (same cogroup, seq, row count) that the pair dedup would
    collapse, undercounting drops.

    ONE shuffle, keyed by a coarse integer co-group bucket (hash of the
    key): every row of a key lands in the same bucket (superset
    co-location), singleton keys are eliminated by a C-speed pandas
    ``value_counts`` inside the group, and Python-level pair emission
    touches only keys that can emit a pair. This replaces the earlier
    two-pass design (count keys -> semi-join -> group again), halving
    the shuffle count and avoiding a sort over wide key columns.

    ``drop_threshold`` (default 8*cap): a key shared by more ids than
    this is a *degenerate* bucket — no discriminative signal (the
    stop-word-shingle analog of the reference's hard search-space caps,
    src/lib.rs:42-46) and would still emit O(n*cap) pairs after salting.
    Such keys are dropped and *reported*: the group emits one sentinel
    row PER dropped bucket, globally unique (the cogroup id and a
    per-group sequence number are encoded into src_id), so downstream
    ``dedup_pairs`` can never collapse two sentinels (ADVICE r1) and the
    caller's tally is exact — no silent caps. Recall for true
    duplicates is carried by their other, non-degenerate keys.

    ``attr_col`` + ``attr_ratio``/``attr_maxham``: optional per-id
    integer attribute (gram-set size, or a 64-bit fingerprint) riding
    the same shuffle; in-bucket pairs violating ``min >= ratio * max``
    (ratio mode) or ``hamming(a, b) <= maxham`` (fingerprint mode) are
    pruned BEFORE the pair dedup shuffle (see emit_bucket_pairs_attr —
    both predicates are necessary conditions for their exact verifies).
    This is the degeneracy valve for corpora whose background
    similarity makes banding unselective."""
    if drop_threshold is None:
        drop_threshold = 8 * cap
    use_attr = attr_col is not None and (
        attr_ratio is not None or attr_maxham is not None
    )

    def _bucketize(batch: pa.Table) -> pa.Table:
        kv = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        bucket = (kv ^ (kv >> 17)) % n_cogroups
        cols = {
            "cogroup": pa.array(bucket, pa.int64()),
            key_col: batch[key_col],
            id_col: batch[id_col],
        }
        if use_attr:
            cols[attr_col] = batch[attr_col]
        return pa.table(cols)

    id_pd_dtype = "object" if id_dtype == "str" else "int64"

    def _pairs_many(group: pd.DataFrame) -> pd.DataFrame:
        cg = int(group["cogroup"].iloc[0]) if len(group) else 0
        src, dst, capped, dropped = emit_pairs_grouped(
            group[key_col].to_numpy(),
            group[id_col].to_numpy(),
            group[attr_col].to_numpy() if use_attr else None,
            cap,
            drop_threshold,
            attr_ratio,
            attr_maxham,
        )
        parts_s: list = [src]
        parts_d: list = [dst]
        parts_c: list = [capped]
        if dropped:
            # one sentinel per dropped bucket; src_id encodes (salt,
            # cogroup, seq) so every sentinel row is globally unique —
            # across unioned passes too — and survives any downstream
            # drop_duplicates (ADVICE r1)
            sent_s: list = []
            sent_d: list = []
            for seq, nrows in enumerate(dropped):
                if id_pd_dtype == "object":
                    sent_s.append(f"{DROPPED_SENTINEL}:{sentinel_salt}:{cg}:{seq}")
                    sent_d.append(f"1:{nrows}")
                else:
                    sent_s.append(
                        -(1 + 2 * (cg + n_cogroups * seq) + (sentinel_salt & 1))
                    )
                    sent_d.append(nrows)
            parts_s.append(np.asarray(sent_s))
            parts_d.append(np.asarray(sent_d))
            parts_c.append(np.full(len(dropped), True))
        id_pa_type = pa.string() if id_pd_dtype == "object" else pa.int64()
        return pa.table(
            {
                "src_id": pa.array(np.concatenate(parts_s), id_pa_type),
                "dst_id": pa.array(np.concatenate(parts_d), id_pa_type),
                "capped": pa.array(
                    np.concatenate(parts_c).astype(bool), pa.bool_()
                ),
            }
        )

    pairs = grouped_by_cogroup(
        rows.map_batches(_bucketize, batch_format="pyarrow"),
        "cogroup",
        n_cogroups,
    ).map_groups(_pairs_many, batch_format="pandas")
    if keep_sentinels:
        # caller (dedup_pipeline) tallies + strips sentinels in its final
        # pair pass — sentinel rows are globally unique, so tallying
        # after dedup_pairs is exact
        return pairs
    if stats is not None:
        pairs = pairs.materialize()
        tally_sentinels(pairs, stats, id_dtype)
    return strip_sentinels(pairs, id_dtype)


def cooccurrence_hamming_pairs(
    rows: "ray.data.Dataset",
    key_col: str,
    id_col: str,
    hash_col: str,
    max_hamming: int,
    cap: int = 256,
    drop_threshold: Optional[int] = None,
    stats: Optional[dict] = None,
    n_cogroups: int = 1024,
    sentinel_salt: int = 0,
    id_dtype: str = "str",
) -> "ray.data.Dataset":
    """cooccurrence_pairs specialized for banded 64-bit hash hamming,
    emitting the EXACT verified distance straight out of the bucket.

    The in-bucket ``maxham`` prefilter of cooccurrence_pairs is already
    the exact hamming over the full 64-bit hashes riding the band rows
    — every id has exactly ONE hash, so a pair's hamming is identical
    no matter which band bucket emitted it. Re-verifying after a slim
    hash attach (the round-3 shape) therefore re-derived a number the
    bucket already knew, at the cost of an extra materialize barrier
    and a broadcast/cogroup lookup over the hash table. Here the
    per-pair hash values ride out of the bucket
    (emit_pairs_grouped(return_attrs=True)), hamming is computed in the
    same task, and salted-chunk chain links — emitted unconditionally
    for CC connectivity in the generic op — are subjected to the same
    ``<= max_hamming`` filter the old downstream verify applied, so the
    output pair set is identical to banded-emit + attach + verify.
    Output: (src_id, dst_id, hamming, capped) with possible cross-band
    duplicates — callers run dedup_pairs (which now carries extra
    columns through) and strip sentinels (hamming = -1 on sentinel
    rows). ``id_dtype``: "str" (the multimodal tiers) or "int"
    (simhash over int64 doc_ids — sentinel rows use the negative-id
    encoding of cooccurrence_pairs)."""
    if drop_threshold is None:
        drop_threshold = 8 * cap
    id_pa_type = pa.string() if id_dtype == "str" else pa.int64()

    def _bucketize(batch: pa.Table) -> pa.Table:
        kv = batch[key_col].to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False
        )
        bucket = (kv ^ (kv >> 17)) % n_cogroups
        return pa.table(
            {
                "cogroup": pa.array(bucket, pa.int64()),
                key_col: batch[key_col],
                id_col: batch[id_col],
                hash_col: batch[hash_col],
            }
        )

    def _pairs(group: pd.DataFrame) -> pa.Table:
        cg = int(group["cogroup"].iloc[0]) if len(group) else 0
        src, dst, a_s, a_d, capped, dropped = emit_pairs_grouped(
            group[key_col].to_numpy(),
            group[id_col].to_numpy(),
            group[hash_col].to_numpy(),
            cap,
            drop_threshold,
            None,
            max_hamming,
            return_attrs=True,
        )
        ham = _popcount_u64(
            a_s.astype(np.int64).view(np.uint64)
            ^ a_d.astype(np.int64).view(np.uint64)
        ).astype(np.int64)
        # chain links from salted chunks bypass the in-bucket prefilter;
        # apply the exact filter here (the old attach+verify did this)
        ok = ham <= max_hamming
        src, dst, ham, capped = src[ok], dst[ok], ham[ok], capped[ok]
        parts_s: list = [src]
        parts_d: list = [dst]
        parts_h: list = [ham]
        parts_c: list = [capped]
        if dropped:
            if id_dtype == "str":
                sent_s: list = [
                    f"{DROPPED_SENTINEL}:{sentinel_salt}:{cg}:{seq}"
                    for seq in range(len(dropped))
                ]
                sent_d: list = [f"1:{nrows}" for nrows in dropped]
                parts_s.append(np.asarray(sent_s, dtype=object))
                parts_d.append(np.asarray(sent_d, dtype=object))
            else:
                parts_s.append(
                    np.asarray(
                        [
                            -(1 + 2 * (cg + n_cogroups * seq)
                              + (sentinel_salt & 1))
                            for seq in range(len(dropped))
                        ],
                        dtype=np.int64,
                    )
                )
                parts_d.append(np.asarray(dropped, dtype=np.int64))
            parts_h.append(np.full(len(dropped), -1, dtype=np.int64))
            parts_c.append(np.full(len(dropped), True))
        return pa.table(
            {
                "src_id": pa.array(np.concatenate(parts_s), id_pa_type),
                "dst_id": pa.array(np.concatenate(parts_d), id_pa_type),
                "hamming": pa.array(np.concatenate(parts_h), pa.int64()),
                "capped": pa.array(
                    np.concatenate(parts_c).astype(bool), pa.bool_()
                ),
            }
        )

    pairs = grouped_by_cogroup(
        rows.map_batches(_bucketize, batch_format="pyarrow"),
        "cogroup",
        n_cogroups,
    ).map_groups(_pairs, batch_format="pandas")
    if stats is not None:
        pairs = pairs.materialize()
        tally_sentinels(pairs, stats, id_dtype)
    return strip_sentinels(pairs, id_dtype)


def cooccurrence_pairs_multi(
    sources: list[dict],
    id_col: str,
    id_dtype: str = "str",
    n_cogroups: int = 1024,
    keep_sentinels: bool = False,
    stats: Optional[dict] = None,
) -> "ray.data.Dataset":
    """Several co-occurrence passes sharing ONE cogroup shuffle.

    The flagship pipeline generates candidates from two key families
    with different degeneracy policies (caption MinHash/winnow/content
    keys at ``bucket_cap`` vs phash bit-slices at the tight
    ``phash_bucket_cap`` + hamming prefilter). Running them as two
    ``cooccurrence_pairs`` calls costs two all-to-all groupby exchanges
    whose fixed per-stage latency dominates at small corpus sizes and
    whose shuffle count doubles at large ones. Here every source's rows
    ride ONE exchange: each source is normalized to
    (cogroup, band, id, attr, side) — ``side`` is the source index,
    ``attr`` a zero placeholder where unused — and the per-cogroup
    emission splits by side and applies that side's (cap,
    drop_threshold, prefilter, sentinel_salt) exactly as the separate
    passes would. Bucketing is the same ``(k ^ (k >> 17)) % n`` hash,
    so pair sets, capped flags and sentinel rows are identical
    byte-for-byte to the unioned two-pass output (sentinel seq numbers
    are per side per cogroup, as before).

    Each ``sources`` entry: ``rows`` (Dataset), ``key_col``, ``cap``,
    optional ``drop_threshold`` (default 8*cap), ``sentinel_salt``
    (must be distinct across sources), optional ``attr_col`` +
    ``attr_ratio``/``attr_maxham``."""
    assert len({s.get("sentinel_salt", 0) for s in sources}) == len(sources)
    id_pa_type = pa.string() if id_dtype == "str" else pa.int64()

    def _normalize(key_col: str, attr_col: Optional[str], side: int):
        def _f(batch: pa.Table) -> pa.Table:
            kv = batch[key_col].to_numpy(zero_copy_only=False).astype(
                np.int64, copy=False
            )
            bucket = (kv ^ (kv >> 17)) % n_cogroups
            n = len(batch)
            if attr_col is not None:
                attr = batch[attr_col]
            else:
                attr = pa.array(np.zeros(n, dtype=np.int64), pa.int64())
            return pa.table(
                {
                    "cogroup": pa.array(bucket, pa.int64()),
                    "band": pa.array(kv, pa.int64()),
                    id_col: batch[id_col],
                    "attr": attr,
                    "side": pa.array(
                        np.full(n, side, dtype=np.int8), pa.int8()
                    ),
                }
            )

        return _f

    rows = None
    for side, s in enumerate(sources):
        part = s["rows"].map_batches(
            _normalize(s["key_col"], s.get("attr_col"), side),
            batch_format="pyarrow",
        )
        rows = part if rows is None else rows.union(part)

    side_cfg = [
        {
            "cap": s["cap"],
            # explicit None check (ADVICE r4): a falsy-but-set 0 must
            # mean "drop every bucket of >0 rows", exactly as
            # cooccurrence_pairs resolves its own default
            "drop_threshold": (
                8 * s["cap"]
                if s.get("drop_threshold") is None
                else s["drop_threshold"]
            ),
            "salt": s.get("sentinel_salt", 0),
            "use_attr": s.get("attr_col") is not None
            and (s.get("attr_ratio") is not None or s.get("attr_maxham") is not None),
            "ratio": s.get("attr_ratio"),
            "maxham": s.get("attr_maxham"),
        }
        for s in sources
    ]

    def _pairs_multi(group: pd.DataFrame) -> pa.Table:
        cg = int(group["cogroup"].iloc[0]) if len(group) else 0
        parts_s: list = []
        parts_d: list = []
        parts_c: list = []
        sides = group["side"].to_numpy()
        for i, cfgd in enumerate(side_cfg):
            m = sides == i
            if not m.any():
                continue
            sub = group[m]
            src, dst, capped, dropped = emit_pairs_grouped(
                sub["band"].to_numpy(),
                sub[id_col].to_numpy(),
                sub["attr"].to_numpy() if cfgd["use_attr"] else None,
                cfgd["cap"],
                cfgd["drop_threshold"],
                cfgd["ratio"],
                cfgd["maxham"],
            )
            parts_s.append(src)
            parts_d.append(dst)
            parts_c.append(capped)
            if dropped:
                sent_s: list = []
                sent_d: list = []
                for seq, nrows in enumerate(dropped):
                    if id_dtype == "str":
                        sent_s.append(
                            f"{DROPPED_SENTINEL}:{cfgd['salt']}:{cg}:{seq}"
                        )
                        sent_d.append(f"1:{nrows}")
                    else:
                        sent_s.append(
                            -(1 + 2 * (cg + n_cogroups * seq) + (cfgd["salt"] & 1))
                        )
                        sent_d.append(nrows)
                parts_s.append(np.asarray(sent_s))
                parts_d.append(np.asarray(sent_d))
                parts_c.append(np.full(len(dropped), True))
        if not parts_s:
            return pa.table(
                {
                    "src_id": pa.array([], id_pa_type),
                    "dst_id": pa.array([], id_pa_type),
                    "capped": pa.array([], pa.bool_()),
                }
            )
        return pa.table(
            {
                "src_id": pa.array(np.concatenate(parts_s), id_pa_type),
                "dst_id": pa.array(np.concatenate(parts_d), id_pa_type),
                "capped": pa.array(
                    np.concatenate(parts_c).astype(bool), pa.bool_()
                ),
            }
        )

    pairs = grouped_by_cogroup(rows, "cogroup", n_cogroups).map_groups(
        _pairs_multi, batch_format="pandas"
    )
    if keep_sentinels:
        return pairs
    if stats is not None:
        pairs = pairs.materialize()
        tally_sentinels(pairs, stats, id_dtype)
    return strip_sentinels(pairs, id_dtype)


def _sentinel_mask(batch: pa.Table, id_dtype: str) -> pa.ChunkedArray:
    if id_dtype == "str":
        return pc.starts_with(batch["src_id"], DROPPED_SENTINEL)
    return pc.less(batch["src_id"], pa.scalar(0, pa.int64()))


def strip_sentinels(pairs: "ray.data.Dataset", id_dtype: str = "str") -> "ray.data.Dataset":
    """Remove sentinel diagnostic rows (vectorized Arrow filter)."""

    def _strip(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.invert(_sentinel_mask(batch, id_dtype)))

    return pairs.map_batches(_strip, batch_format="pyarrow")


def tally_sentinels(
    pairs: "ray.data.Dataset", stats: dict, id_dtype: str = "str"
) -> None:
    """Accumulate dropped-bucket diagnostics from sentinel rows (one
    globally-unique sentinel per dropped bucket)."""
    db = dr = 0

    def _only_sentinels(batch: pa.Table) -> pa.Table:
        return batch.filter(_sentinel_mask(batch, id_dtype))

    for b in pairs.map_batches(_only_sentinels, batch_format="pyarrow").iter_batches(
        batch_size=4096, batch_format="pyarrow"
    ):
        for v in b["dst_id"].to_pylist():
            if id_dtype == "str":
                x, y = str(v).split(":")
                db += int(x)
                dr += int(y)
            else:
                db += 1
                dr += int(v)
    stats["dropped_buckets"] = stats.get("dropped_buckets", 0) + db
    stats["dropped_rows"] = stats.get("dropped_rows", 0) + dr


def candidate_pairs(
    band_rows: "ray.data.Dataset", bucket_cap: int = 256, id_col: str = "image_id",
    id_dtype: str = "str", stats: Optional[dict] = None,
    keep_sentinels: bool = False, n_cogroups: int = 1024,
    sentinel_salt: int = 0, attr_col: Optional[str] = None,
    attr_ratio: Optional[float] = None,
) -> "ray.data.Dataset":
    """groupby(band) -> canonical candidate pairs (src_id < dst_id)."""
    return cooccurrence_pairs(
        band_rows, "band", id_col, bucket_cap, id_dtype, stats=stats,
        keep_sentinels=keep_sentinels, n_cogroups=n_cogroups,
        sentinel_salt=sentinel_salt, attr_col=attr_col, attr_ratio=attr_ratio,
    )


def dedup_pairs(
    pairs: "ray.data.Dataset", id_dtype: str = "str", n_cogroups: int = 1024
) -> "ray.data.Dataset":
    """Canonical-pair dedup after the union of candidate sources
    (MinHash ∪ SimHash ∪ substring ∪ exact) — the distributed analog of
    the reference's BTreeSet/dedup_by_key (src/lib.rs:1149, 1530-1533).

    Implementation: per-batch local dedup (combiner) shrinks the
    shuffle, then ONE groupby on a small integer hash bucket of the pair
    (both copies of a pair land in the same bucket) with a C-speed
    pandas ``drop_duplicates`` inside each group — cheaper than a global
    sort-aggregate over wide composite keys."""
    def _pair_hash(df: pd.DataFrame) -> np.ndarray:
        # deterministic, process-stable, C-vectorized pair hash (pandas
        # uses a fixed hash key; Python's hash() is salted per process
        # and would scatter identical pairs across buckets). Integer ids
        # combine two vectorized column hashes asymmetrically — no
        # per-row string materialization on the hot path.
        if id_dtype == "int":
            with np.errstate(over="ignore"):
                hs = pd.util.hash_array(df["src_id"].to_numpy(), categorize=False)
                hd = pd.util.hash_array(df["dst_id"].to_numpy(), categorize=False)
                return hs ^ (hd * np.uint64(0x9E3779B97F4A7C15))
        return pd.util.hash_pandas_object(
            df["src_id"].astype(str) + "\x1f" + df["dst_id"].astype(str),
            index=False,
        ).to_numpy()

    # extra columns (e.g. cooccurrence_hamming_pairs' ``hamming``) ride
    # through: dedup is keyed on (src_id, dst_id) only, and any carried
    # value is a function of the id pair (one hash per id), so keeping
    # the uncapped-first row is well-defined. Schema is pinned from the
    # input batch — from_pandas on an empty object column would
    # otherwise degrade string columns to null type and trip Ray's
    # block-size estimator on size-0 object arrays.
    def _local(batch: pa.Table) -> pa.Table:
        cols = [c for c in batch.column_names if c != "cogroup"]
        df = batch.select(cols).to_pandas()
        df = df.sort_values("capped").drop_duplicates(
            ["src_id", "dst_id"], keep="first"
        )
        df["cogroup"] = (_pair_hash(df) % np.uint64(n_cogroups)).astype(np.int64)
        schema = pa.schema(
            [batch.schema.field(c) for c in cols]
            + [pa.field("cogroup", pa.int64())]
        )
        return pa.Table.from_pandas(
            df, preserve_index=False, schema=schema
        ).replace_schema_metadata(None)

    def _dedup(group: pd.DataFrame) -> pa.Table:
        out = group.sort_values("capped").drop_duplicates(
            ["src_id", "dst_id"], keep="first"
        )
        cols = [c for c in out.columns if c != "cogroup"]
        # emit metadata-free Arrow with pinned types: object-dtype
        # columns are always id strings here, and pinning keeps empty
        # groups from degrading them to null type (block-schema drift +
        # size-estimator warnings on size-0 object arrays)
        schema = pa.schema(
            [
                pa.field(
                    c,
                    pa.string()
                    if out[c].dtype == object
                    else pa.from_numpy_dtype(out[c].dtype),
                )
                for c in cols
            ]
        )
        return pa.Table.from_pandas(
            out[cols], preserve_index=False, schema=schema
        ).replace_schema_metadata(None)

    return grouped_by_cogroup(
        pairs.map_batches(_local, batch_format="pyarrow"), "cogroup", n_cogroups
    ).map_groups(_dedup, batch_format="pandas")
