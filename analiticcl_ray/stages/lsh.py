"""LSH banding: the shuffle that *is* the index.

analiticcl's primary AnaIndex (anahash -> instances, src/index.rs:5-12)
and its deletion-neighborhood candidate search (find_nearest_anahashes,
src/lib.rs:1143-1308) are replaced by an explicit groupby exchange on
LSH band keys (SURVEY.md T3/J1): rows sharing any caption-MinHash band
or any phash bit-slice band become candidate pairs, later confirmed by
the exact verify kernel. Recall vs the reference's guaranteed-complete
neighborhood search is a measured target (>=0.99, BASELINE.json).

Performance shape (this matters at 10^12 rows): nearly every band key
is a singleton (unique caption -> unique band hashes), so the exchange
is never keyed by the band itself — that would cost one Python/pandas
call per singleton group. ``cooccurrence_pairs_multi``, the one
emitter, shuffles ONCE through the package's one keyed exchange
(stages/exchange.py): a hash of the band key picks a coarse co-group,
every row of a band lands in the same co-group, and the exchange's one
rule sizes the co-group count. Inside a co-group,
``emit_pairs_grouped`` drops singleton keys and emits every bucket's
pairs with numpy ops per bucket SIZE class, so Python runs once per
co-group, not once per key. ``probe_index_pairs`` is the asymmetric
form of the same exchange: a new shard against a
persisted reference, never ref x ref (the incremental dedup ops).

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

from typing import Callable, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


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

        cols = {"band": pa.concat_arrays(parts_band), id_col: pa.concat_arrays(parts_id)}
        for c in carry_cols:
            cols[c] = pa.concat_arrays(parts_carry[c])
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


DROPPED_SENTINEL = "__DROPPED_BUCKET__"


def sentinel_rows(
    dropped: list, cogroup: int, salt=0, id_dtype: str = "str", *, n_cogroups: int
) -> tuple[np.ndarray, np.ndarray]:
    """(src_id, dst_id) of the sentinel rows reporting one cogroup's
    dropped buckets: one row per entry of ``dropped`` (the bucket's raw
    row count). src_id encodes (salt, cogroup, seq) so every sentinel is
    globally unique — across passes with distinct salts too — and
    survives any downstream ``dedup_pairs``. str ids: src is
    DROPPED_SENTINEL, salt, cogroup and seq joined by ``:``, dst is
    ``1:<rows>``; int ids: src is a negative id built from (cogroup,
    seq) plus the parity of an int salt (0 for any other salt), dst is
    the row count — unique only while ``cogroup < n_cogroups``, so
    ``n_cogroups`` is the exchange's own group count
    (stages/exchange.py passes it in). ``tally_sentinels`` decodes
    both."""
    if id_dtype == "str":
        return (
            np.array(
                [f"{DROPPED_SENTINEL}:{salt}:{cogroup}:{seq}" for seq in range(len(dropped))],
                dtype=object,
            ),
            np.array([f"1:{nrows}" for nrows in dropped], dtype=object),
        )
    parity = salt & 1 if isinstance(salt, int) else 0
    seq = np.arange(len(dropped), dtype=np.int64)
    return (
        -(1 + 2 * (cogroup + n_cogroups * seq) + parity),
        np.asarray(dropped, dtype=np.int64),
    )


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
      keep only pairs with ``popcount(a ^ b) <= maxham``. A measured
      bound, not a proven one: on the seeded corpora PSNR>=40dB dups
      measured <=4 phash bits apart and random pairs ~32, but nothing
      forces a PSNR dup under ``maxham``, so a pair above it is lost
      without any count. Set ``maxham=None`` where that matters.

    Salting chain links are kept unconditionally (connectivity for CC
    consumers). ``ids`` must be unique and sorted ascending with
    ``attrs`` aligned; returns (src, dst, was_capped) as numpy arrays
    of ids' dtype — or (src, dst, attr_src, attr_dst, was_capped) when
    ``return_attrs`` is set (so a hamming-exact caller can emit the
    verified distance straight out of the bucket, skipping the slim
    attach + re-verify stage entirely)."""
    n = len(ids)
    srcs: list = [ids[:0]]
    dsts: list = [ids[:0]]
    a_srcs: list = [attrs[:0]]
    a_dsts: list = [attrs[:0]]
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
        a_srcs.append(a[keep])
        a_dsts.append(b[keep])
        if c0 + cap < n:  # chain link keeps the bucket connected
            srcs.append(idc[:1])
            dsts.append(ids[c0 + cap : c0 + cap + 1])
            a_srcs.append(atc[:1])
            a_dsts.append(attrs[c0 + cap : c0 + cap + 1])
    out = (np.concatenate(srcs), np.concatenate(dsts))
    if return_attrs:
        out += (np.concatenate(a_srcs), np.concatenate(a_dsts))
    return out + (capped,)


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
    srcs: list = [ids[:0]]
    dsts: list = [ids[:0]]
    caps: list = [np.zeros(0, dtype=bool)]
    at_s: list = [attrs[:0]] if return_attrs else []
    at_d: list = at_s[:]
    dropped: list = []

    def _out() -> tuple:
        out = (np.concatenate(srcs), np.concatenate(dsts))
        if return_attrs:
            out += (np.concatenate(at_s), np.concatenate(at_d))
        return out + (np.concatenate(caps), dropped)

    if len(keys) == 0:
        return _out()
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
    at_u = attrs[row_keep] if attrs is not None else None
    starts = np.flatnonzero(newkey[row_keep])
    sizes = np.diff(np.append(starts, len(ids_u)))
    use_attr = at_u is not None and (ratio is not None or maxham is not None)
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
                    s, d, a_s, a_d, capped = emit_bucket_pairs_attr(
                        seg_ids, at_u[st : st + n], cap, ratio, maxham,
                        return_attrs=True,
                    )
                else:
                    sl, dl, capped = emit_bucket_pairs(list(seg_ids), cap)
                    s = np.asarray(sl, dtype=ids_u.dtype)
                    d = np.asarray(dl, dtype=ids_u.dtype)
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
            s, d = s[keep], d[keep]
            if return_attrs:
                a, b = a[keep], b[keep]
        srcs.append(s)
        dsts.append(d)
        caps.append(np.zeros(len(s), dtype=bool))
        if return_attrs:
            at_s.append(a)
            at_d.append(b)
    return _out()


def cooccurrence_pairs(
    rows: "ray.data.Dataset",
    key_col: str,
    id_col: str,
    cap: int = 256,
    id_dtype: str = "str",
    drop_threshold: Optional[int] = None,
    stats: Optional[dict] = None,
    keep_sentinels: bool = False,
    sentinel_salt: int = 0,
    attr_col: Optional[str] = None,
    attr_ratio: Optional[float] = None,
    attr_maxham: Optional[int] = None,
) -> "ray.data.Dataset":
    """(key, id) rows -> canonical candidate pairs (src < dst) for every
    key shared by >= 2 ids, with salting above ``cap``: the one-source
    call of ``cooccurrence_pairs_multi``, which documents every
    option."""
    return cooccurrence_pairs_multi(
        [
            {
                "rows": rows,
                "key_col": key_col,
                "cap": cap,
                "drop_threshold": drop_threshold,
                "sentinel_salt": sentinel_salt,
                "attr_col": attr_col,
                "attr_ratio": attr_ratio,
                "attr_maxham": attr_maxham,
            }
        ],
        id_col,
        id_dtype=id_dtype,
        keep_sentinels=keep_sentinels,
        stats=stats,
    )


def cooccurrence_pairs_multi(
    sources: list[dict],
    id_col: str,
    id_dtype: str = "str",
    keep_sentinels: bool = False,
    stats: Optional[dict] = None,
    nbytes: Optional[int] = None,
) -> "ray.data.Dataset":
    """The cogroup pair emitter: (key, id) rows of one or more sources
    -> canonical pairs (src_id < dst_id, capped) for every key shared by
    >= 2 ids, through ONE shuffle.

    The shuffle is the keyed exchange (stages/exchange.py) on the key,
    sized by ``nbytes`` (a size the caller holds for the rows, or None):
    every row of a key lands in the same co-group, singleton keys are
    eliminated inside the group by ``emit_pairs_grouped`` (numpy, no
    Python per key), and Python runs once per co-group. Several sources (the flagship's caption keys at
    ``bucket_cap`` and phash bit-slices at ``phash_bucket_cap``) ride
    the same exchange tagged with an int8 ``side``; the emission splits
    each co-group by side and applies that side's policy exactly as a
    separate pass would, so the output equals the union of one-source
    calls byte for byte. A one-source call ships only (band, id[,
    attr]) and the exchange's group id, and never splits its groups.

    Each ``sources`` entry: ``rows`` (Dataset) and ``key_col`` (an
    integer key column), ``cap``, and optionally:

    - ``drop_threshold`` (default 8*cap): a key shared by more rows
      than this is a *degenerate* bucket — no discriminative signal
      (the stop-word-shingle analog of the reference's hard search-space
      caps, src/lib.rs:42-46) that would still emit O(n*cap) pairs after
      salting. It is dropped and reported: one sentinel row per dropped
      bucket (``sentinel_rows``), tallied by ``tally_sentinels`` — no
      silent caps. Recall for true duplicates is carried by their other,
      non-degenerate keys.
    - ``sentinel_salt``: distinct per source, and per pass when a caller
      unions the sentinel-carrying outputs of several calls before one
      shared ``dedup_pairs`` — otherwise two byte-identical sentinels
      (same co-group, seq) would collapse and undercount drops.
    - ``attr_col`` + ``attr_ratio``/``attr_maxham``: a per-id integer
      attribute (gram-set size, or a 64-bit fingerprint) riding the
      shuffle; in-bucket pairs violating ``min >= ratio * max`` or
      ``hamming(a, b) <= maxham`` are pruned before the pair dedup (see
      emit_bucket_pairs_attr). Salting chain links are kept.
    - ``exact_hamming``: the attr is the id's ONE 64-bit hash, so the
      in-bucket hamming is already the exact distance: emit it as a
      ``hamming`` column (src_id, dst_id, hamming, capped; -1 on
      sentinel rows) and hold the salting chain links to the same
      ``<= attr_maxham``. The pair set then equals banded emit + hash
      attach + verify, without that attach. Set on all sources or
      none.

    ``keep_sentinels`` returns the sentinel rows for the caller to tally
    after its own ``dedup_pairs`` (sentinels are globally unique, so the
    post-dedup tally is exact); otherwise ``stats`` (if given) receives
    the tally and the sentinels are stripped."""
    assert len({s.get("sentinel_salt", 0) for s in sources}) == len(sources)
    side_cfg = [
        {
            "cap": s["cap"],
            # explicit None check: a falsy-but-set 0 must mean "drop
            # every bucket of >0 rows"
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
    exact = {bool(s.get("exact_hamming")) for s in sources}
    assert len(exact) == 1, "exact_hamming must be set on every source or none"
    exact = exact.pop()
    assert not exact or all(c["maxham"] is not None and c["use_attr"] for c in side_cfg)
    with_attr = any(c["use_attr"] for c in side_cfg)
    multi = len(sources) > 1
    id_pa_type = pa.string() if id_dtype == "str" else pa.int64()

    def _normalize(key_col: str, attr_col: Optional[str], side: int):
        def _f(batch: pa.Table) -> pa.Table:
            kv = batch[key_col].to_numpy(zero_copy_only=False).astype(
                np.int64, copy=False
            )
            n = len(batch)
            cols = {
                "band": pa.array(kv, pa.int64()),
                id_col: batch[id_col],
            }
            if with_attr:
                cols["attr"] = (
                    batch[attr_col]
                    if attr_col is not None
                    else pa.array(np.zeros(n, dtype=np.int64), pa.int64())
                )
            if multi:
                cols["side"] = pa.array(np.full(n, side, dtype=np.int8), pa.int8())
            return pa.table(cols)

        return _f

    rows = [
        s["rows"].map_batches(
            _normalize(s["key_col"], s["attr_col"] if cfgd["use_attr"] else None, side),
            batch_format="pyarrow",
        )
        for side, (s, cfgd) in enumerate(zip(sources, side_cfg))
    ]

    def _pairs(group: pd.DataFrame, n_groups: int) -> pa.Table:
        cg = int(group["bucket"].iloc[0]) if len(group) else 0
        sides = group["side"].to_numpy() if multi else None
        parts_s: list = [np.zeros(0, dtype=object if id_dtype == "str" else np.int64)]
        parts_d: list = parts_s[:]
        parts_h: list = [np.zeros(0, dtype=np.int64)]
        parts_c: list = [np.zeros(0, dtype=bool)]
        for i, cfgd in enumerate(side_cfg):
            sub = group[sides == i] if multi else group
            if not len(sub):
                continue
            out = emit_pairs_grouped(
                sub["band"].to_numpy(),
                sub[id_col].to_numpy(),
                sub["attr"].to_numpy() if cfgd["use_attr"] else None,
                cfgd["cap"],
                cfgd["drop_threshold"],
                cfgd["ratio"],
                cfgd["maxham"],
                return_attrs=exact,
            )
            if exact:
                src, dst, a_s, a_d, capped, dropped = out
                ham = _popcount_u64(
                    a_s.astype(np.int64).view(np.uint64)
                    ^ a_d.astype(np.int64).view(np.uint64)
                ).astype(np.int64)
                # salting chain links bypass the in-bucket prefilter
                ok = ham <= cfgd["maxham"]
                src, dst, capped = src[ok], dst[ok], capped[ok]
                parts_h += [ham[ok], np.full(len(dropped), -1, dtype=np.int64)]
            else:
                src, dst, capped, dropped = out
            sent_s, sent_d = sentinel_rows(
                dropped, cg, cfgd["salt"], id_dtype, n_cogroups=n_groups
            )
            parts_s += [src, sent_s]
            parts_d += [dst, sent_d]
            parts_c += [capped, np.ones(len(dropped), dtype=bool)]
        cols = {
            "src_id": pa.array(np.concatenate(parts_s), id_pa_type),
            "dst_id": pa.array(np.concatenate(parts_d), id_pa_type),
        }
        if exact:
            cols["hamming"] = pa.array(np.concatenate(parts_h), pa.int64())
        cols["capped"] = pa.array(np.concatenate(parts_c).astype(bool), pa.bool_())
        return pa.table(cols)

    from .exchange import exchange

    pairs = exchange(rows, ["band"], _pairs, nbytes=nbytes, with_count=True)
    if keep_sentinels:
        return pairs
    if stats is not None:
        pairs = pairs.materialize()
        tally_sentinels(pairs, stats, id_dtype)
    return strip_sentinels(pairs, id_dtype)


def _from_slices(t: pa.Table, max_blocks: int, rows_per_block: int) -> "ray.data.Dataset":
    """A driver-side table re-entered as up to ``max_blocks`` object-store
    blocks (an empty table becomes one empty block)."""
    n = max(1, min(max_blocks, len(t) // rows_per_block + 1))
    step = max(1, -(-len(t) // n))
    return ray.data.from_arrow(
        [t.slice(i * step, step) for i in range(n) if i * step < max(1, len(t))]
    )


def probe_index_pairs(
    new: "ray.data.Dataset",
    ref: "ray.data.Dataset",
    id_col: str,
    attr_col: str,
    n_bands: int,
    add_bands: Optional[Callable[[pa.Table], pa.Table]] = None,
    id_dtype: str = "str",
    cap: int = 256,
    ratio: Optional[float] = None,
    maxham: Optional[int] = None,
) -> tuple["ray.data.Dataset", Callable[[pa.Table], pa.Table]]:
    """The probe-vs-index join: pairs of a NEW shard against itself and
    against a persisted REFERENCE table, never ref x ref — the asymmetric
    counterpart of ``cooccurrence_pairs_multi`` and the analog of probing
    analiticcl's persisted AnaIndex (src/lib.rs:1143-1308). Both tables
    hold (id, attr) rows and a ``bands`` fixed-size list column of
    ``n_bands`` integer band keys, or ``add_bands(table)`` appends it.

    1. ONE streaming driver pull over ``new`` (the only execution of its
       upstream) gives the new-id broadcast, the probe band-key broadcast
       and the probe band rows, exploded on the driver and re-entered as
       ``from_arrow`` blocks. The pull is O(|shard|) in every regime;
       the explode alone is gated: while its bytes (``n_bands`` band,
       id, attr and side values per row) fit the driver budget
       (stages/driver.py) it runs on the driver, past it distributed
       from the pulled table (one materialize).
    2. Ref side, one fused map_batches: supersession (an id re-ingested
       in ``new`` drops its stale ref row, so it never self-pairs and
       resolves to its new attr), explode, and the probe-key collision
       filter — a ref band row no new row shares dies before the
       shuffle, so the cogroup input is O(key collisions), not O(ref).
    3. One band-bucket cogroup: per band with >= 2 rows and >= 1 new
       row, the new x new triangle (ids sorted, src < dst) plus the new x
       ref cross (src new), kept where the ids differ and the pair test
       holds. A band over ``cap`` keeps all new rows and fills with the
       id-ordered ref prefix; a band with more than ``cap`` NEW rows
       takes the salted path of ``emit_bucket_pairs_attr``. Every pair
       of an over-cap band is flagged ``capped``, and its dropped ref
       rows are reported by ``sentinel_rows`` (salt ``inc``).

    The pair test is one of ``ratio`` — attr is a set size, kept where
    ``min(attr) >= ratio * max(attr)`` (necessary for Jaccard >= ratio;
    salted chain links skip it, for the caller's exact verify) — or
    ``maxham`` — attr is the id's one 64-bit hash, so the in-bucket
    hamming is exact (``cooccurrence_pairs_multi``'s ``exact_hamming``):
    pairs and salted chain links are held to ``<= maxham``, and the
    distance is emitted as a ``hamming`` column (-1 on sentinels).

    Returns (pairs, supersede): the sentinel-carrying, not yet deduped
    (src_id, dst_id[, hamming], capped) stream, and the supersession
    batch map (drops the rows of ids ``new`` holds) for the caller's own
    reference-side tables."""
    id_type = pa.string() if id_dtype == "str" else pa.int64()
    np_id = object if id_dtype == "str" else np.int64

    parts: dict = {}
    for b in new.iter_batches(batch_size=65536, batch_format="pyarrow"):
        for c in b.column_names:
            parts.setdefault(c, []).append(b[c].combine_chunks())
    local = pa.table(
        {c: pa.concat_arrays(p) for c, p in parts.items()}
        if parts
        else {id_col: pa.array([], id_type)}
    )
    new_ids = ray.put(local[id_col].combine_chunks())

    def supersede(batch: pa.Table) -> pa.Table:
        seen = ray.get(new_ids)
        if len(seen) == 0:
            return batch
        return batch.filter(pc.invert(pc.is_in(batch[id_col], value_set=seen)))

    def _explode(t: pa.Table, side: int) -> pa.Table:
        arr = (add_bands(t) if add_bands else t)["bands"].combine_chunks()
        idx = pa.array(np.repeat(np.arange(len(t), dtype=np.int64), arr.type.list_size))
        return pa.table(
            {
                "band": arr.flatten(),
                id_col: t[id_col].take(idx),
                attr_col: t[attr_col].take(idx),
                "side": pa.array(np.full(len(idx), side, np.int8), pa.int8()),
            }
        )

    from .driver import fits
    from .exchange import exchange

    # n_bands exploded rows per row: band (8 B), id, attr and side (1 B);
    # the collision-filtered ref side adds rows only where it shares a
    # probe band, so these bytes also size the exchange
    attr_bytes = local[attr_col].nbytes if len(local) else 0
    probe_bytes = n_bands * (local[id_col].nbytes + attr_bytes + 9 * len(local))
    if fits(probe_bytes):
        probe_rows = (
            _explode(local, 1)
            if len(local)
            else pa.schema(
                [("band", pa.int64()), (id_col, id_type), (attr_col, pa.int64()), ("side", pa.int8())]
            ).empty_table()
        )
        probe_keys = pc.unique(probe_rows["band"].combine_chunks())
        new_rows = _from_slices(probe_rows, 64, 16384)
    else:
        new_rows = (
            _from_slices(local, 256, 65536)
            .map_batches(lambda t: _explode(t, 1), batch_format="pyarrow")
            .materialize()  # two consumers: probe-key pull + band union
        )
        probe_keys = pc.unique(
            pa.chunked_array(
                [
                    b["band"].combine_chunks()
                    for b in new_rows.select_columns(["band"]).iter_batches(
                        batch_size=65536, batch_format="pyarrow"
                    )
                ],
                pa.int64(),
            )
        )
    probe_keys_ref = ray.put(probe_keys)

    def _ref_fused(batch: pa.Table) -> pa.Table:
        keys = ray.get(probe_keys_ref)
        if len(keys) == 0:  # empty probe shard: skip the explode
            return _explode(batch.slice(0, 0), 0)
        rows = _explode(supersede(batch), 0)
        return rows.filter(pc.is_in(rows["band"], value_set=keys))

    def _emit(group: pd.DataFrame, n_groups: int) -> pa.Table:
        agg = group.groupby("band", sort=False)["side"].agg(["size", "max"])
        live = agg.index[(agg["size"] >= 2) & (agg["max"] == 1)]
        srcs: list = [np.zeros(0, np_id)]
        dsts: list = srcs[:]
        hams: list = [np.zeros(0, np.int64)]
        caps: list = [np.zeros(0, bool)]
        dropped: list = []

        def _add(s, d, a, b, capped: bool, salted: bool) -> None:
            ok = s != d
            if ratio is not None and not salted:
                ok &= np.minimum(a, b) >= ratio * np.maximum(a, b)
            if maxham is not None:
                ham = _popcount_u64(
                    a.astype(np.int64).view(np.uint64) ^ b.astype(np.int64).view(np.uint64)
                ).astype(np.int64)
                ok &= ham <= maxham
                hams.append(ham[ok])
            srcs.append(s[ok])
            dsts.append(d[ok])
            caps.append(np.full(int(ok.sum()), capped))

        for _, g in group[group["band"].isin(live)].groupby("band", sort=False):
            g = g.sort_values(id_col, kind="stable")
            was_capped = len(g) > cap
            if was_capped:
                keep_new = g[g["side"] == 1]
                if len(keep_new) > cap:
                    # all-new over-cap band: salted chunks, every ref row dropped
                    s, d, a_s, a_d, _ = emit_bucket_pairs_attr(
                        keep_new[id_col].to_numpy(dtype=np_id),
                        keep_new[attr_col].to_numpy(dtype=np.int64),
                        cap, ratio, maxham, return_attrs=True,
                    )
                    _add(s, d, a_s, a_d, True, salted=True)
                    if len(g) > len(keep_new):
                        dropped.append(len(g) - len(keep_new))
                    continue
                keep_ref = g[g["side"] == 0].head(max(0, cap - len(keep_new)))
                if len(g) - len(keep_new) - len(keep_ref):
                    dropped.append(len(g) - len(keep_new) - len(keep_ref))
                g = pd.concat([keep_new, keep_ref]).sort_values(id_col, kind="stable")
            ids = g[id_col].to_numpy(dtype=np_id)
            attrs = g[attr_col].to_numpy(dtype=np.int64)
            is_new = g["side"].to_numpy() == 1
            ni, ri = np.flatnonzero(is_new), np.flatnonzero(~is_new)
            tri_i, tri_j = np.triu_indices(len(ni), 1)
            i = np.concatenate([ni[tri_i], np.repeat(ni, len(ri))])
            j = np.concatenate([ni[tri_j], np.tile(ri, len(ni))])
            _add(ids[i], ids[j], attrs[i], attrs[j], was_capped, salted=False)
        cg = int(group["bucket"].iloc[0]) if len(group) else 0
        sent_s, sent_d = sentinel_rows(dropped, cg, "inc", id_dtype, n_cogroups=n_groups)
        cols = {
            "src_id": pa.array(np.concatenate(srcs + [sent_s]), id_type),
            "dst_id": pa.array(np.concatenate(dsts + [sent_d]), id_type),
        }
        if maxham is not None:
            cols["hamming"] = pa.array(
                np.concatenate(hams + [np.full(len(dropped), -1, np.int64)]), pa.int64()
            )
        cols["capped"] = pa.array(
            np.concatenate(caps + [np.ones(len(dropped), bool)]), pa.bool_()
        )
        return pa.table(cols)

    pairs = exchange(
        [new_rows, ref.map_batches(_ref_fused, batch_format="pyarrow")],
        ["band"],
        _emit,
        nbytes=probe_bytes,
        with_count=True,
    )
    return pairs, supersede


def _sentinel_mask(batch: pa.Table, id_dtype: str) -> pa.ChunkedArray:
    if id_dtype == "str":
        return pc.starts_with(batch["src_id"], DROPPED_SENTINEL)
    return pc.less(batch["src_id"], pa.scalar(0, pa.int64()))


def strip_sentinels(pairs: "ray.data.Dataset", id_dtype: str = "str") -> "ray.data.Dataset":
    """Remove sentinel diagnostic rows (vectorized Arrow filter)."""

    def _strip(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.invert(_sentinel_mask(batch, id_dtype)))

    return pairs.map_batches(_strip, batch_format="pyarrow")


def pair_summary(pairs: "ray.data.Dataset", id_dtype: str = "str") -> dict:
    """One pass over a sentinel-carrying pair list, one summary row per
    block: ``dropped_buckets`` and ``dropped_rows`` decoded from the
    sentinel rows (see ``sentinel_rows``), and ``pairs`` and
    ``capped_pairs`` counted over the other rows."""
    keys = ("dropped_buckets", "dropped_rows", "pairs", "capped_pairs")

    def _summary(batch: pa.Table) -> pa.Table:
        mask = _sentinel_mask(batch, id_dtype)
        sent = batch.filter(mask)["dst_id"]
        real = batch.filter(pc.invert(mask))
        if id_dtype == "str":
            parts = [v.split(":") for v in sent.to_pylist()]
            db = sum(int(x) for x, _ in parts)
            dr = sum(int(y) for _, y in parts)
        else:
            db, dr = len(sent), pc.sum(sent).as_py() or 0
        capped = pc.sum(real["capped"].cast(pa.int64())).as_py() or 0
        return pa.table({k: [v] for k, v in zip(keys, (db, dr, real.num_rows, capped))})

    total = dict.fromkeys(keys, 0)
    for b in pairs.map_batches(_summary, batch_format="pyarrow", batch_size=None).iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        for k in keys:
            total[k] += pc.sum(b[k]).as_py() or 0
    return total


def tally_sentinels(
    pairs: "ray.data.Dataset", stats: dict, id_dtype: str = "str"
) -> None:
    """Accumulate dropped-bucket diagnostics from sentinel rows (one
    globally-unique sentinel per dropped bucket)."""
    summary = pair_summary(pairs, id_dtype)
    for k in ("dropped_buckets", "dropped_rows"):
        stats[k] = stats.get(k, 0) + summary[k]


def dedup_pairs(
    pairs: "ray.data.Dataset", id_dtype: str = "str", nbytes: Optional[int] = None
) -> "ray.data.Dataset":
    """Canonical-pair dedup after the union of candidate sources
    (MinHash ∪ SimHash ∪ substring ∪ exact) — the distributed analog of
    the reference's BTreeSet/dedup_by_key (src/lib.rs:1149, 1530-1533).

    Implementation: per-batch local dedup (combiner) shrinks the
    shuffle, then ONE keyed exchange on the pair (stages/exchange.py,
    sized by ``nbytes`` when the caller holds it: both copies of a pair
    land in the same group) with a C-speed pandas ``drop_duplicates``
    inside each group — cheaper than a global sort-aggregate over wide
    composite keys."""
    from .exchange import exchange

    # extra columns (e.g. the ``hamming`` of an exact_hamming emission) ride
    # through: dedup is keyed on (src_id, dst_id) only, and any carried
    # value is a function of the id pair (one hash per id), so keeping
    # the uncapped-first row is well-defined. Schema is pinned from the
    # input batch — from_pandas on an empty object column would
    # otherwise degrade string columns to null type and trip Ray's
    # block-size estimator on size-0 object arrays.
    def _local(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values("capped").drop_duplicates(
            ["src_id", "dst_id"], keep="first"
        )
        return pa.Table.from_pandas(
            df, preserve_index=False, schema=batch.schema
        ).replace_schema_metadata(None)

    def _dedup(group: pd.DataFrame) -> pa.Table:
        out = group.sort_values("capped").drop_duplicates(
            ["src_id", "dst_id"], keep="first"
        )
        cols = [c for c in out.columns if c != "bucket"]
        # pinned types: object-dtype columns are always id strings here,
        # and pinning keeps empty groups from degrading them to null type
        # (block-schema drift + size-estimator warnings on size-0 object
        # arrays)
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
        return pa.Table.from_pandas(out[cols], preserve_index=False, schema=schema)

    return exchange(
        pairs.map_batches(_local, batch_format="pyarrow"),
        ["src_id", "dst_id"],
        _dedup,
        nbytes=nbytes,
    )
