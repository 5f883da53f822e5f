"""Locally-computed (no-Ray) kmeans_assign oracle table.

The combiner k-means is seeded and — as of round 5 — accumulates
centroid sums as exact nano-quantized integers, so its centroids are
bit-identical across block layouts AND to a single-process recompute
(pipelines/ann.kmeans_assign_table_local, which shares the init and
the update step). This module persists that local recompute per
(sf tier, kernel fingerprint) so the driver's DuckDB oracle can gate
kmeans_assign with a value hash instead of rows-only (VERDICT r4
item 4). Same caching contract as the other handoff tables.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq

from .oracle_tables import ORACLE_ROOT, _src_tag, _write_atomic
from .oracle_text import _tier_of


def kmeans_oracle_path(sf_dir: str) -> str:
    from ..pipelines import ann as _ann_mod
    from . import oracle_ann as _self_mod

    tag = _src_tag(_ann_mod, _self_mod)
    path = os.path.join(
        ORACLE_ROOT, f"kmeans_sf{_tier_of(sf_dir)}_{tag}.parquet"
    )
    if os.path.exists(path):
        return path
    from ..pipelines.ann import kmeans_assign_table_local

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    emb = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    _write_atomic(kmeans_assign_table_local(ids, emb), path)
    return path
