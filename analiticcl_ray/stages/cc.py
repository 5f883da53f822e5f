"""Connected components over the verified pair graph.

The clustering step the north rule adds on top of analiticcl's
variant matching (the reference's reverse index, src/index.rs:14-23,
maps each lexicon item to its observed variants — here each cluster
representative maps to its member rows).

Two interchangeable implementations (SURVEY.md §2.6 CC):

- ``cc_label_propagation``: the scale path. Iterative min-label
  propagation expressed purely in Ray Data, fully vectorized (VERDICT
  r1 item 8: no per-node Python calls):
    * label attach: half-edges and label rows meet in an integer hash
      bucket (adaptive count) and a C-speed ``pd.merge`` inside each
      bucket pushes every node's current label to its neighbors;
    * label update: ``union`` + native ``groupby(node).min(label)``
      (hash-shuffle aggregate, no Python per group).
  Every shuffle is edge-list-sized (never the corpus); no driver-side
  state. Converges in O(component diameter) rounds (dup clusters are
  star/chain shaped, so a handful); convergence is detected with an
  order-independent label checksum computed as a Dataset aggregate.
  Rounds are materialized to keep lineage bounded (checkpointable).
  Works over string or integer node ids (type-parametric).

- ``cc_union_find``: driver-side union-find, used when the edge list is
  provably small (it is the *verified duplicate* set, orders of
  magnitude smaller than the corpus). O(E α(E)) and exact.

Both return a Dataset (image_id, cluster_id) over nodes that appear in
at least one pair; cluster_id = smallest member id (deterministic
representative — analiticcl's "preferred reference form" analog).
Singleton rows (no pairs) are implicitly their own cluster and are
added back by the pipeline, not here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Sum


#: edge count up to which ``cc_auto`` takes the driver union-find
UNION_FIND_MAX_EDGES = 2_000_000


def cc_route(n_edges: int, small_threshold: int = UNION_FIND_MAX_EDGES) -> str:
    """The algorithm ``cc_auto`` picks for an edge list of ``n_edges``."""
    return "union_find" if n_edges <= small_threshold else "label_prop"


def cc_auto(
    pairs: "ray.data.Dataset", small_threshold: int = UNION_FIND_MAX_EDGES, **lp_kwargs
) -> "ray.data.Dataset":
    """Route by measured edge count (``cc_route``): the verified-pair
    edge list is orders of magnitude smaller than the corpus, so up to
    ``small_threshold`` edges the exact O(E a(E)) driver union-find wins
    outright (label propagation pays several shuffle+checksum rounds of
    fixed latency); beyond it, the distributed min-label path takes
    over with no driver-side state. ``pairs`` is materialized first so
    the count and the chosen algorithm consume one execution of the
    upstream pipeline, not two."""
    pairs = pairs.materialize()
    if cc_route(pairs.count(), small_threshold) == "union_find":
        return cc_union_find(pairs)
    return cc_label_propagation(pairs, **lp_kwargs)


def cc_union_find(pairs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Driver union-find over a (small) verified-pairs dataset."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for batch in pairs.select_columns(["src_id", "dst_id"]).iter_batches(
        batch_size=65536, batch_format="pyarrow"
    ):
        for a, b in zip(batch["src_id"].to_pylist(), batch["dst_id"].to_pylist()):
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo
    rows = {"image_id": [], "cluster_id": []}
    for node in parent:
        rows["image_id"].append(node)
        rows["cluster_id"].append(find(node))
    if not rows["image_id"]:
        return ray.data.from_arrow(
            pa.table(
                {"image_id": pa.array([], pa.string()),
                 "cluster_id": pa.array([], pa.string())}
            )
        )
    return ray.data.from_arrow(
        pa.table({k: pa.array(v) for k, v in rows.items()})
    )


def _label_checksum(labels: "ray.data.Dataset") -> float:
    """Order-independent convergence fingerprint as a Dataset aggregate
    (vectorized: fixed-key pandas row hash, wrap-sum in uint64 — the
    wrap is deterministic, so equal label sets give equal sums)."""

    def _h(batch: pa.Table) -> pa.Table:
        key = (
            batch["image_id"].to_pandas().astype(str)
            + "="
            + batch["cluster_id"].to_pandas().astype(str)
        )
        h = pd.util.hash_pandas_object(key, index=False).to_numpy()
        # per-row mod keeps every partial sum exactly representable, and
        # modular addition is associative+commutative, so the aggregate
        # is independent of row order AND block boundaries
        s = int((h % np.uint64(1 << 31)).sum())
        return pa.table({"s": pa.array([s], pa.int64()),
                         "n": pa.array([len(h)], pa.int64())})

    out = labels.map_batches(_h, batch_format="pyarrow").aggregate(
        Sum("s", alias_name="s"), Sum("n", alias_name="n")
    )
    return float(out["s"] or 0.0) + 1e-3 * float(out["n"] or 0.0)


def _rename_min(batch: pa.Table) -> pa.Table:
    return batch.rename_columns(["image_id", "cluster_id"])


def cc_label_propagation(
    pairs: "ray.data.Dataset",
    max_rounds: int = 50,
    n_buckets: Optional[int] = None,
) -> "ray.data.Dataset":
    """Distributed min-label propagation; all shuffles edge-sized and
    every per-group transform a C-speed pandas merge (no per-node
    Python)."""
    edges = pairs.select_columns(["src_id", "dst_id"]).materialize()

    # schema-stable empty result: zero pairs -> zero clusters with the
    # id-typed (image_id, cluster_id) schema preserved
    if edges.count() == 0:
        try:
            id_type = edges.schema().base_schema.field("src_id").type
        except Exception:
            id_type = pa.string()
        return ray.data.from_arrow(
            pa.table(
                {"image_id": pa.array([], id_type),
                 "cluster_id": pa.array([], id_type)}
            )
        )

    if n_buckets is None:
        from .lsh import adaptive_cogroups

        try:
            n_buckets = adaptive_cogroups(edges.count(), floor=256)
        except Exception:
            n_buckets = 256

    # symmetric half-edges once, reused every round
    def _sym(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "image_id": pa.concat_arrays(
                    [batch["src_id"].combine_chunks(), batch["dst_id"].combine_chunks()]
                ),
                "neighbor": pa.concat_arrays(
                    [batch["dst_id"].combine_chunks(), batch["src_id"].combine_chunks()]
                ),
            }
        )

    half_edges = edges.map_batches(_sym, batch_format="pyarrow").materialize()

    # init labels: every node labels itself; vectorized dedup via the
    # native min aggregate (label == node id at round 0)
    def _self_label(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"image_id": batch["image_id"], "cluster_id": batch["image_id"]}
        )

    labels = (
        half_edges.map_batches(_self_label, batch_format="pyarrow")
        .groupby("image_id")
        .min("cluster_id")
        .map_batches(_rename_min, batch_format="pyarrow")
        .materialize()
    )

    def _bucket(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pandas().astype(str)
        h = pd.util.hash_pandas_object(ids, index=False).to_numpy()
        return batch.append_column(
            "bucket",
            pa.array((h % np.uint64(n_buckets)).astype(np.int64), pa.int64()),
        )

    def _tag_label(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "image_id": batch["image_id"],
                "other": batch["cluster_id"],
                "is_label": pa.array(np.ones(len(batch), dtype=bool)),
            }
        )

    def _tag_edge(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "image_id": batch["image_id"],
                "other": batch["neighbor"],
                "is_label": pa.array(np.zeros(len(batch), dtype=bool)),
            }
        )

    def _push(group: pd.DataFrame) -> pa.Table:
        lab = group[group["is_label"]][["image_id", "other"]].rename(
            columns={"other": "label"}
        )
        edg = group[~group["is_label"]][["image_id", "other"]]
        m = edg.merge(lab, on="image_id", how="inner")
        out = pd.DataFrame(
            {"image_id": m["other"].to_numpy(), "cluster_id": m["label"].to_numpy()}
        )
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(
            None
        )

    prev = _label_checksum(labels)
    for _round in range(max_rounds):
        pushed = (
            labels.map_batches(_tag_label, batch_format="pyarrow")
            .union(half_edges.map_batches(_tag_edge, batch_format="pyarrow"))
            .map_batches(_bucket, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(_push, batch_format="pandas")
        )
        labels = (
            labels.union(pushed)
            .groupby("image_id")
            .min("cluster_id")
            .map_batches(_rename_min, batch_format="pyarrow")
            .materialize()
        )
        cur = _label_checksum(labels)
        if cur == prev:
            break
        prev = cur
    return labels


def keep_from_clusters(
    ids: "ray.data.Dataset",
    clusters: "ray.data.Dataset",
    id_col: str,
    cluster_id_col: str = "cluster_id",
) -> "ray.data.Dataset":
    """Final dedup decision from a CC labeling: (id, keep) for EVERY
    row of ``ids`` — keep iff the row is its component's representative
    (min id) or appears in no component. Shape: clusters emit flag
    ``id == cluster_id``, all ids emit flag 1, one int-keyed
    ``groupby(id).min(flag)`` merges — no driver-side drop-set, safe
    when the duplicate fraction is large."""
    import pyarrow.compute as pc

    def _rep_flags(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t[id_col],
                "flag": pc.cast(
                    pc.equal(t[id_col], t[cluster_id_col]), pa.int64()
                ),
            }
        )

    def _one_flags(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t[id_col],
                "flag": pa.array(np.ones(len(t), dtype=np.int64)),
            }
        )

    flags = clusters.map_batches(_rep_flags, batch_format="pyarrow").union(
        ids.select_columns([id_col]).map_batches(
            _one_flags, batch_format="pyarrow"
        )
    )

    def _as_keep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t[id_col],
                "keep": pc.equal(t["min(flag)"], pa.scalar(1, pa.int64())),
            }
        )

    return (
        flags.groupby(id_col).min("flag")
        .map_batches(_as_keep, batch_format="pyarrow")
    )
