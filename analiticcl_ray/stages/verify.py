"""Pair verification: exact kernels in stateful actor pools.

The distributed form of analiticcl's find_variants inner loop
(gather_instances src/lib.rs:1311-1402 + score_and_rank
src/lib.rs:1405-1653): candidates produced by the banding shuffle are
confirmed with the exact Damerau-Levenshtein caption kernel and the
decoded-pixel PSNR image kernel (north rule).

Two-phase, cheapest-first:
1. ``CaptionVerifier`` needs only (caption, caption) per pair —
   attached via a side-lookup of the slim columns — and prunes most
   false candidates.
2. ``ImageVerifier`` runs only on caption-surviving pairs; exact byte
   equality short-circuits decode; decoded pixels are LRU-cached per
   actor (the reference's per-model cache analog, src/cache.rs:1-28).

Side-data attachment (SURVEY.md J-section): the corpus' slim columns
(caption / fmt+bytes) are attached to pairs either by
- ``broadcast``: one ``ray.put`` of a single Arrow lookup table —
  plasma-shared zero-copy across every worker on a node, attached per
  batch with vectorized ``index_in``/``take``. Zero shuffle; correct
  while the *referenced* slim columns fit in the object store (captions
  at 1e12 rows do not — use cogroup there; bytes for *surviving* pairs
  usually do), or
- ``cogroup``: a two-stage bucket-hash join (pair-side stubs and corpus
  rows co-bucketed by id hash, per-bucket pandas merge, then sides
  rejoined by pair hash) — the 1e12-scale path; only the slim
  projection ever enters a shuffle. Verified result-identical to
  broadcast (tests/test_stages_ray.py).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..config import DedupConfig
from ..functions.alphabet import Normalizer, simple_alphabet
from ..functions.kernels import resolve_max_distance
from ..functions.verify_kernel import caption_pair_score, image_pair_dup


# --------------------------------------------------------------------
# side-data attachment
# --------------------------------------------------------------------

def broadcast_lookup(
    corpus: "ray.data.Dataset", value_cols: list[str], id_col: str = "image_id"
):
    """Shared lookup table in the object store as ONE Arrow table
    (``ray.put`` once). Arrow buffers are plasma-shared zero-copy across
    all workers on a node — unlike a Python dict, which every actor
    would re-deserialize into its own heap (measured: the dominant
    non-scaling cost at 1M rows × 28 actors)."""
    parts = []
    for batch in corpus.select_columns([id_col, *value_cols]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        parts.append(batch)
    table = (
        pa.concat_tables(parts)
        if parts
        else pa.table({id_col: pa.array([], pa.string())})
    )
    return ray.put(table.combine_chunks())


class _AttachFromBroadcast:
    """Vectorized id -> values attach against the shared Arrow table:
    ``pc.index_in`` (hash lookup in C) + ``take`` — no per-actor Python
    dict, no per-row Python."""

    def __init__(self, lookup_ref, value_cols: list[str], prefixes=("src", "dst"),
                 id_col: str = "image_id"):
        self.table = ray.get(lookup_ref)  # zero-copy view of shared buffers
        self.ids = self.table[id_col].combine_chunks()
        self.value_cols = value_cols
        self.prefixes = prefixes

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        out = batch
        for pref in self.prefixes:
            idx = pc.index_in(batch[f"{pref}_id"], value_set=self.ids)
            if pc.any(pc.is_null(idx)).as_py() and len(batch):
                missing = batch[f"{pref}_id"].filter(pc.is_null(idx))
                raise KeyError(
                    f"attach: ids missing from lookup, e.g. {missing[0]}"
                )
            for col in self.value_cols:
                out = out.append_column(
                    f"{pref}_{col}", self.table[col].take(idx)
                )
        return out


#: rows above which the broadcast attach path is refused by "auto" —
#: a slim (id, caption) projection at this size is ~low-hundreds of MB
#: in the object store; beyond it the cogroup bucket-join is the shape
#: that survives 1e12 rows.
AUTO_BROADCAST_ROW_LIMIT = 2_000_000


def choose_attach_method(
    corpus: "ray.data.Dataset", row_limit: int = AUTO_BROADCAST_ROW_LIMIT
) -> str:
    """Size-based broadcast↔cogroup switch (VERDICT r1 item 6): prefer
    the zero-copy Arrow broadcast while the slim side fits comfortably
    in the object store, else the bucket-hash cogroup join. Uses the
    dataset's metadata row count when available (free for parquet and
    materialized datasets); the ``count()`` fallback EXECUTES a derived
    pipeline once just to decide — callers holding a derived corpus
    should go through ``attach_pair_sides(method="auto")``, which
    materializes the slim projection once and reuses it for the attach
    itself, or resolve against the metadata-backed base table (the
    text.py call sites)."""
    try:
        n = corpus._meta_count()
        if n is None:
            n = corpus.count()
    except Exception:
        return "cogroup"
    return "broadcast" if n is not None and n <= row_limit else "cogroup"


def attach_pair_sides(
    pairs: "ray.data.Dataset",
    corpus: "ray.data.Dataset",
    value_cols: list[str],
    method: str = "broadcast",
    id_filter: Optional[Iterable[str]] = None,
    concurrency=(1, 8),
    id_col: str = "image_id",
) -> "ray.data.Dataset":
    """Attach corpus columns to both sides of a pairs dataset.

    ``method``: "broadcast" | "cogroup" | "auto" (size-based switch).
    ``id_filter``: restrict the corpus scan to the ids actually
    referenced (semi-join via a broadcast Arrow id array + ``pc.is_in``,
    C-speed per batch) — essential when attaching the binary column:
    only surviving pairs' bytes are pulled."""
    import pyarrow.compute as pc

    src = corpus
    if id_filter is not None:
        ids = sorted(set(id_filter))
        needed_arr = pa.array(ids) if ids else None
        needed_ref = ray.put(needed_arr)

        def _semi(batch: pa.Table) -> pa.Table:
            needed = ray.get(needed_ref)
            if needed is None:
                return batch.slice(0, 0)
            return batch.filter(pc.is_in(batch[id_col], value_set=needed))

        src = corpus.map_batches(_semi, batch_format="pyarrow")

    if method == "auto":
        if id_filter is not None:
            # referenced set is already bounded by the surviving pairs
            method = (
                "broadcast" if len(ids) <= AUTO_BROADCAST_ROW_LIMIT else "cogroup"
            )
        else:
            try:
                n = corpus._meta_count()
            except Exception:
                n = None
            if n is None:
                # derived corpus (no metadata row count): counting it
                # would execute the upstream pipeline once and the
                # attach would execute it AGAIN — materialize the slim
                # projection ONCE (object-store blocks, spillable) and
                # reuse it for both the decision and the attach
                src = src.select_columns([id_col, *value_cols]).materialize()
                n = src.count()
            method = (
                "broadcast" if n <= AUTO_BROADCAST_ROW_LIMIT else "cogroup"
            )
    if method == "broadcast":
        ref = broadcast_lookup(src, value_cols, id_col=id_col)
        return pairs.map_batches(
            _AttachFromBroadcast,
            fn_constructor_args=(ref, value_cols, ("src", "dst"), id_col),
            batch_format="pyarrow",
            concurrency=concurrency,
        )
    if method == "cogroup":
        return _attach_cogroup(pairs, src, value_cols, id_col=id_col)
    raise ValueError(method)


def _attach_cogroup(
    pairs: "ray.data.Dataset",
    corpus: "ray.data.Dataset",
    value_cols: list[str],
    n_buckets: Optional[int] = None,
    id_col: str = "image_id",
) -> "ray.data.Dataset":
    """Hash-partitioned attach (the 1e12-scale path): two bucket-join
    shuffles over pair-sized data, C-speed pandas merges inside each
    bucket, and only the slim (id, value) projection of the corpus ever
    enters a shuffle.

    Stage A: pairs explode into per-side stub rows; stubs and corpus
    rows land in the same integer bucket (deterministic pandas hash of
    image_id) and a per-bucket ``pd.merge`` attaches the values.
    Stage B: the two sides of each pair meet again in a bucket keyed by
    the pair hash and merge back into one row."""
    import pandas as pd

    if id_col != "image_id":
        # internal canonical name; callers with other id columns
        # (e.g. documents.doc_id) get a zero-copy column rename
        corpus = corpus.select_columns([id_col, *value_cols]).rename_columns(
            {id_col: "image_id"}
        )

    # normalize to Arrow blocks: upstream map_groups stages may emit
    # pandas blocks, whose PandasBlockSchema lacks .field()
    pairs = pairs.map_batches(lambda t: t, batch_format="pyarrow")
    corpus = corpus.map_batches(lambda t: t, batch_format="pyarrow")

    if n_buckets is None:
        # scale bucket count with the corpus side (each bucket is one
        # pandas merge): parquet metadata makes count() cheap; lazy
        # pipelines without cheap counts keep the floor
        from .lsh import adaptive_cogroups

        try:
            n_buckets = adaptive_cogroups(corpus.count(), floor=512)
        except Exception:
            n_buckets = 512
    from .lsh import bucket_by_keys

    pair_schema = pairs.schema().base_schema
    corpus_schema = corpus.schema().base_schema
    pair_cols = list(pair_schema.names)
    vtypes = {c: corpus_schema.field(c).type for c in value_cols}

    def _stubs(batch: pa.Table) -> pa.Table:
        tabs = []
        for side, idc in ((0, "src_id"), (1, "dst_id")):
            cols = {
                "image_id": batch[idc],
                "side": pa.array(np.full(len(batch), side, dtype=np.int8)),
            }
            for c in pair_cols:
                cols[f"p_{c}"] = batch[c]
            for c in value_cols:
                cols[f"v_{c}"] = pa.nulls(len(batch), vtypes[c])
            cols["is_corpus"] = pa.array(np.zeros(len(batch), dtype=bool))
            tabs.append(pa.table(cols))
        return pa.concat_tables(tabs)

    def _corpus_rows(batch: pa.Table) -> pa.Table:
        n = len(batch)
        cols = {
            "image_id": batch["image_id"],
            "side": pa.array(np.full(n, -1, dtype=np.int8)),
        }
        for c in pair_cols:
            cols[f"p_{c}"] = pa.nulls(n, pair_schema.field(c).type)
        for c in value_cols:
            cols[f"v_{c}"] = batch[c]
        cols["is_corpus"] = pa.array(np.ones(n, dtype=bool))
        return pa.table(cols)

    def _bucket(batch: pa.Table) -> pa.Table:
        # shared deterministic vectorized hash (no per-row str build)
        return bucket_by_keys(batch, ["image_id"], n_buckets)

    both = (
        pairs.map_batches(_stubs, batch_format="pyarrow")
        .union(
            corpus.select_columns(["image_id", *value_cols]).map_batches(
                _corpus_rows, batch_format="pyarrow"
            )
        )
        .map_batches(_bucket, batch_format="pyarrow")
    )

    vcols = [f"v_{c}" for c in value_cols]

    def _merge_values(group: pd.DataFrame) -> pd.DataFrame:
        corp = group[group["is_corpus"]][["image_id", *vcols]]
        stubs = group[~group["is_corpus"]].drop(columns=vcols + ["is_corpus", "bucket"])
        if stubs.empty:
            return stubs.iloc[0:0]
        out = stubs.merge(corp, on="image_id", how="left", indicator=True)
        if (out["_merge"] == "left_only").any():
            # same missing-id policy as the broadcast path's KeyError:
            # a silent null-fill here would flow NaN/INT64_MIN garbage
            # into downstream kernels only at >2M-row scale, turning a
            # loud small-scale crash into silent wrong output
            missing = sorted(
                out.loc[out["_merge"] == "left_only", "image_id"].unique()[:10]
            )
            raise KeyError(
                f"pair ids missing from the attach corpus (first 10): {missing}"
            )
        return out.drop(columns=["_merge"])

    def _merge_values_pa(group: pd.DataFrame) -> pa.Table:
        return pa.Table.from_pandas(
            _merge_values(group), preserve_index=False
        ).replace_schema_metadata(None)

    attached = both.groupby("bucket").map_groups(_merge_values_pa, batch_format="pandas")

    def _pair_bucket(batch: pa.Table) -> pa.Table:
        t = bucket_by_keys(batch, ["p_src_id", "p_dst_id"], n_buckets)
        return t.rename_columns(
            ["pbucket" if c == "bucket" else c for c in t.column_names]
        )

    def _reassemble(group: pd.DataFrame) -> pa.Table:
        s0 = group[group["side"] == 0].drop(columns=["side", "pbucket", "image_id"])
        s1 = group[group["side"] == 1][["p_src_id", "p_dst_id", *vcols]]
        s0 = s0.rename(columns={f"v_{c}": f"src_{c}" for c in value_cols})
        s1 = s1.rename(columns={f"v_{c}": f"dst_{c}" for c in value_cols})
        out = s0.merge(s1, on=["p_src_id", "p_dst_id"], how="inner")
        out = out.rename(columns={f"p_{c}": c for c in pair_cols})
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).replace_schema_metadata(None)

    return (
        attached.map_batches(_pair_bucket, batch_format="pyarrow")
        .groupby("pbucket")
        .map_groups(_reassemble, batch_format="pandas")
    )


def split_exact_and_prune(survivors: "ray.data.Dataset", cfg):
    """Route caption-surviving pairs to the image phase
    (pipelines/dedup.verified_stage):

    1. 128-bit bytes-equality short-circuit: pairs whose two
       independent 64-bit content hashes both match (ADVICE r1 — a
       single 64-bit key has non-negligible birthday collisions at
       1e12 rows) are exact image dups with PSNR=inf; their binary
       column is never fetched.
    2. phash-hamming prune (when phash candidates are enabled):
       PSNR >= threshold implies a near-identical phash (measured
       <= 4 bits vs ~32 for unrelated images), so non-byte-equal
       pairs farther than ``cfg.phash_max_hamming`` can never pass
       the pixel verify — dropped BEFORE bytes are attached/decoded.

    Returns ``(n_survivors, exact_dups, needs_pixels)``; ``survivors``
    must carry src/dst ``bytes_key``/``bytes_key2`` (and ``phash`` when
    pruning). The flagged set is materialized once, which executes
    ``survivors`` (the caption verify) once; both filters read its
    cached blocks (edge-list-sized: surviving pairs only)."""
    import pyarrow.compute as pc

    def _split_exact(batch: pa.Table) -> pa.Table:
        eq = pc.and_(
            pc.equal(batch["src_bytes_key"], batch["dst_bytes_key"]),
            pc.equal(batch["src_bytes_key2"], batch["dst_bytes_key2"]),
        )
        return batch.append_column("bytes_equal", eq)

    flagged = survivors.map_batches(
        _split_exact, batch_format="pyarrow"
    ).materialize()
    exact_dups = flagged.filter(expr="bytes_equal == True").map_batches(
        lambda t: t.append_column(
            "psnr_db", pa.array([float("inf")] * len(t), pa.float64())
        ).select(["src_id", "dst_id", "caption_score", "psnr_db", "capped"]),
        batch_format="pyarrow",
    )
    needs_pixels = flagged.filter(expr="bytes_equal == False")
    if cfg.use_phash_bands and cfg.phash_max_hamming is not None:
        from .lsh import _popcount_u64

        maxham = np.uint64(cfg.phash_max_hamming)

        def _phash_near(batch: pa.Table) -> pa.Table:
            a = batch["src_phash"].to_numpy().astype(np.int64).view(np.uint64)
            b = batch["dst_phash"].to_numpy().astype(np.int64).view(np.uint64)
            return batch.filter(pa.array(_popcount_u64(a ^ b) <= maxham))

        needs_pixels = needs_pixels.map_batches(
            _phash_near, batch_format="pyarrow"
        )
    return flagged.count(), exact_dups, needs_pixels


# --------------------------------------------------------------------
# verifier actors
# --------------------------------------------------------------------

class CaptionVerifier:
    """Actor: computes the exact analiticcl caption score per pair.

    Input batch needs src_caption / dst_caption; emits caption_score
    (float64, -1.0 when above the DL cutoff) and caption_dup (bool).

    Before the O(len^2) DL kernel runs, every pair passes a *lossless*
    vectorized prefilter — the same bounds the reference's anagram
    neighborhood enforces (src/lib.rs:1143-1308 / src/distance.rs:108-130):
    |len_a - len_b| <= max_edit and bag-L1/2 <= max_edit (one edit moves
    the character multiset by at most 2). On candidate sets dominated by
    LSH false positives this removes ~90%+ of DL calls without touching
    recall."""

    def __init__(self, cfg: DedupConfig | None = None, alphabet=None):
        self.cfg = cfg or DedupConfig()
        self.norm = Normalizer(alphabet or simple_alphabet())
        self._memo: dict[tuple[str, str], float] = {}
        self._norm_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._bag_width = self.norm.size + 2

    def _norm_bag(self, caption: str) -> tuple[np.ndarray, np.ndarray]:
        hit = self._norm_cache.get(caption)
        if hit is not None:
            return hit
        nm = self.norm.normalize(caption)
        bag = np.zeros(self._bag_width, dtype=np.int32)
        if len(nm):
            np.add.at(bag, np.minimum(nm, self._bag_width - 1), 1)
        if len(self._norm_cache) > 500_000:
            self._norm_cache.clear()
        self._norm_cache[caption] = (nm, bag)
        return nm, bag

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        src_c = batch["src_caption"].to_pylist()
        dst_c = batch["dst_caption"].to_pylist()
        n = len(src_c)
        norms_a = [self._norm_bag(c) for c in src_c]
        norms_b = [self._norm_bag(c) for c in dst_c]
        lens_a = np.array([len(x[0]) for x in norms_a], dtype=np.int64)
        lens_b = np.array([len(x[0]) for x in norms_b], dtype=np.int64)
        bags_a = np.stack([x[1] for x in norms_a]) if n else np.zeros((0, 1))
        bags_b = np.stack([x[1] for x in norms_b]) if n else np.zeros((0, 1))
        l1 = np.abs(bags_a - bags_b).sum(axis=1)
        longer = np.maximum(lens_a, lens_b)
        cuts = np.array(
            [resolve_max_distance(int(l), cfg.max_edit_distance) if l > 0 else 0
             for l in longer],
            dtype=np.int64,
        )
        plausible = (
            (np.abs(lens_a - lens_b) <= cuts)
            & ((l1 + 1) // 2 <= cuts)
            & (longer > 0)
        )
        scores = np.full(n, -1.0, dtype=np.float64)
        for i in np.where(plausible)[0]:
            a, b = src_c[i], dst_c[i]
            key = (a, b) if a <= b else (b, a)
            s = self._memo.get(key)
            if s is None:
                cs = caption_pair_score(
                    norms_a[i][0], norms_b[i][0], a, b, cfg
                )
                s = -1.0 if cs is None else cs
                if len(self._memo) > 1_000_000:
                    self._memo.clear()
                self._memo[key] = s
            scores[i] = s
        return batch.append_column(
            "caption_score", pa.array(scores, pa.float64())
        ).append_column(
            "caption_dup",
            pa.array(scores >= cfg.caption_score_threshold),
        )


class ImageVerifier:
    """Actor: exact-bytes / decoded-pixel PSNR verdict per pair.

    Input batch needs src_bytes/src_fmt/dst_bytes/dst_fmt; emits
    psnr_db (inf for identical bytes) and image_dup. Decoded pixels are
    cached per actor keyed by image_id (src/cache.rs analog)."""

    def __init__(self, cfg: DedupConfig | None = None):
        self.cfg = cfg or DedupConfig()
        self.pixel_cache: dict = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        sb = batch["src_bytes"].to_pylist()
        db = batch["dst_bytes"].to_pylist()
        sf = batch["src_fmt"].to_pylist()
        dfmt = batch["dst_fmt"].to_pylist()
        sid = batch["src_id"].to_pylist()
        did = batch["dst_id"].to_pylist()
        dup = np.empty(len(sb), dtype=bool)
        vals = np.empty(len(sb), dtype=np.float64)
        for i in range(len(sb)):
            d, v = image_pair_dup(
                sb[i], sf[i], db[i], dfmt[i], cfg, self.pixel_cache, sid[i], did[i]
            )
            dup[i] = d
            vals[i] = v
        return batch.append_column("psnr_db", pa.array(vals, pa.float64())).append_column(
            "image_dup", pa.array(dup)
        )
