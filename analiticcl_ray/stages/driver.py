"""The driver-side memory budget.

Every choice between a driver-side path and a distributed one goes
through this module: the attach broadcast and its referenced-id
semi-join (stages/verify), the CC route (stages/cc), the probe join's
explode (stages/lsh) and the incremental text near-dup verify tail
(pipelines/text). Each gates on bytes it already holds — a pulled
table's ``nbytes`` or a materialized dataset's block metadata — never on
a lazy pipeline executed only to decide.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa

#: bytes one op may hold on the driver: a pulled lookup or id table, an
#: edge list for union-find, a dense gram-mask matrix
DRIVER_BUDGET_BYTES = 256 << 20


def fits(nbytes: int) -> bool:
    """Whether ``nbytes`` held on the driver stays within the budget."""
    return nbytes <= DRIVER_BUDGET_BYTES


def pull(ds, columns: Optional[list[str]] = None) -> Optional[pa.Table]:
    """``ds`` (its ``columns``) as one driver-side Arrow table, or None
    as soon as the pulled bytes pass the budget: the caller then takes
    its distributed path, which reads ``ds`` again. An empty dataset
    gives a table with no columns."""
    if columns is not None:
        ds = ds.select_columns(columns)
    parts, nbytes = [], 0
    for batch in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        nbytes += batch.nbytes
        if not fits(nbytes):
            return None
        parts.append(batch)
    return pa.concat_tables(parts).combine_chunks() if parts else pa.table({})
