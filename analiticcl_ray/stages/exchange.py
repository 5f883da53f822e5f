"""The one keyed exchange.

analiticcl's in-memory anagram index becomes an exact-hash bucket
groupby (SURVEY.md T3/J1), and every keyed cogroup of the package — the
pair emitter, the probe join, the pair dedup, the attach, the CC label
push and the small aggregate merges and joins — is that same exchange:
rows are hashed on their key columns to an integer group id
(``bucket``), and ``groupby("bucket").map_groups(body)`` runs ``body``
once per group with every row of every key the group holds. Every
grouping is key-complete, so the output does not depend on the group
count; only the cost does. ``map_groups`` makes one Python call per
non-empty group, so at small inputs the count *is* the cost, and at
large inputs each group must still fit one worker's memory.

The count comes from one rule, ``group_count``: ``GROUPS_PER_SLOT``
groups per pool slot (so every slot has work at any size), or one group
per ``TARGET_GROUP_BYTES`` of the bytes entering the exchange, whichever
is larger. The bytes are a size the caller already holds (a materialized
dataset's block metadata), or ``None`` when it holds none.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .pools import pool_width

#: groups per slot of the pool width policy (stages/pools.py)
GROUPS_PER_SLOT = 4
#: bytes per group: 500,000 key rows of ~32 B each (an int64 key, an
#: int64 or short string id, the int64 group id and a one-byte side
#: tag) is 16 MB, the group size the former row-count rule aimed at
TARGET_GROUP_BYTES = 16 << 20


def group_count(nbytes: Optional[int] = None) -> int:
    """The group count of one exchange over ``nbytes`` input bytes
    (``None``: unknown, the width floor)."""
    floor = GROUPS_PER_SLOT * pool_width()
    if not nbytes:
        return floor
    return max(floor, -(-int(nbytes) // TARGET_GROUP_BYTES))


def bucket_by_keys(batch: pa.Table, key_cols: list[str], n_groups: int) -> pa.Table:
    """``batch`` with an int64 ``bucket`` column (replaced if present):
    a deterministic hash of the key columns mod ``n_groups``, so all
    rows sharing the keys land in one group.

    Hashing is ``pandas.util.hash_array`` (vectorized, with the
    library's fixed default key — deterministic across workers and
    processes) xor-combined across columns; it handles string and
    numeric key columns alike. The output is metadata-free, so the
    shuffle's blocks of one schema compare equal."""
    acc = np.zeros(len(batch), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in key_cols:
            h = pd.util.hash_array(batch[c].to_pandas().to_numpy(), categorize=False)
            acc = (acc ^ h) * np.uint64(0x9E3779B97F4A7C15)
        bucket = pa.array((acc % np.uint64(n_groups)).astype(np.int64), pa.int64())
    if "bucket" in batch.column_names:
        batch = batch.drop(["bucket"])
    return batch.append_column("bucket", bucket).replace_schema_metadata(None)


def exchange(
    sides: Union["ray.data.Dataset", list],
    keys: list[str],
    body: Callable,
    *,
    nbytes: Optional[int] = None,
    batch_format: str = "pandas",
    with_count: bool = False,
) -> "ray.data.Dataset":
    """One keyed exchange: the rows of ``sides`` (a Dataset, or a list
    whose members are unioned in order), hashed on their ``keys``
    columns into ``group_count(nbytes)`` groups, each group passed to
    ``body`` as one ``batch_format`` frame that carries the ``bucket``
    column. ``with_count`` calls ``body(group, n_groups)``, for a body
    whose output encodes its group id (``lsh.sentinel_rows``). A body
    may return a pandas frame or an Arrow table; the output is
    metadata-free Arrow either way."""
    n = group_count(nbytes)
    if isinstance(sides, ray.data.Dataset):
        sides = [sides]
    rows = None
    for side in sides:
        part = side.map_batches(
            lambda t: bucket_by_keys(t, keys, n), batch_format="pyarrow"
        )
        rows = part if rows is None else rows.union(part)

    def _body(group):
        out = body(group, n) if with_count else body(group)
        if isinstance(out, pd.DataFrame):
            out = pa.Table.from_pandas(out, preserve_index=False)
        return out.replace_schema_metadata(None)

    return rows.groupby("bucket").map_groups(_body, batch_format=batch_format)
