"""Relational wide-aggregate and broadcast-join operators over the
TPC-H-shaped tables — the bread-and-butter groupby/join patterns a
100-TB pipeline mixes in with the dedup stages (per-partition revenue
rollups, dimension enrichment before a shuffle).

Money is quantized to integer cents at the row level BEFORE any sum, so
every aggregate is an exact int64 and the DuckDB oracle hashes
bit-identically regardless of distributed summation order (the
lm_perplexity nano-unit trick applied to currency). Rounding contract:
half-away-from-zero on positive values via ``floor(x + 0.5)`` — probed
equal to DuckDB's ``round()`` on every lineitem/orders row at sf0.01
and sf0.1, including the ~1.4% of discount products that land exactly
on a .5 cent boundary (np.round's half-even would diverge there).

Scale notes: the fact partials are per-batch combiners (one row per
group per block leaves the map stage — group cardinality is tiny), so
the only exchange is a constant-sized repartition(1) merge. Dimension sides
(nation, customer) are the blessed broadcast case: ``ray.put`` once,
zero-copy Arrow view per actor, int64 hash-index built per actor in
``__init__``. At a customer dimension too large for the object store,
swap the attach for the bucket-cogroup join in stages/verify.py
(attach_pair_sides cogroup path) — same output contract.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..stages.exchange import exchange
from ..stages.pools import actor_map



def _cents(x: np.ndarray) -> np.ndarray:
    """Positive money -> exact integer cents, DuckDB round() parity."""
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


def _pa_clean(df: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


def _lut_member(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-array membership for the broadcast-LUT stages: returns
    (hit mask, searchsorted positions). Empty-LUT safe (ADVICE r2: an
    empty segment/region/promo LUT indexed at the clamped position -1
    raised IndexError on every batch instead of yielding an empty
    result)."""
    if len(keys) == 0:
        return np.zeros(len(vals), dtype=bool), np.zeros(len(vals), dtype=np.int64)
    pos = np.searchsorted(keys, vals)
    hit = (pos < len(keys)) & (keys[np.minimum(pos, len(keys) - 1)] == vals)
    return hit, pos


def pricing_summary(
    lineitem: "ray.data.Dataset", cutoff: str = "1998-09-02"
) -> "ray.data.Dataset":
    """TPC-H Q1-shaped pricing summary: per (returnflag, linestatus),
    row count and exact cent-quantized sums of quantity, base price,
    discounted price and charge, over lineitems shipped on/before
    ``cutoff``. The per-batch combiner collapses each block to ≤ a few
    group rows, so the shuffle is constant-sized no matter the fact
    table's scale."""
    cut = np.datetime64(pd.Timestamp(cutoff), "us")

    def _partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["l_shipdate"].to_numpy().astype("datetime64[us]") <= cut]
        if not len(df):
            return pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "n_rows": pa.array([], pa.int64()),
                    "sum_qty_c": pa.array([], pa.int64()),
                    "sum_base_c": pa.array([], pa.int64()),
                    "sum_disc_c": pa.array([], pa.int64()),
                    "sum_charge_c": pa.array([], pa.int64()),
                }
            )
        ext = df["l_extendedprice"].to_numpy()
        disc = df["l_discount"].to_numpy()
        tax = df["l_tax"].to_numpy()
        df = df.assign(
            qty_c=_cents(df["l_quantity"].to_numpy()),
            base_c=_cents(ext),
            disc_c=_cents(ext * (1.0 - disc)),
            charge_c=_cents(ext * (1.0 - disc) * (1.0 + tax)),
        )
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .agg(
                n_rows=("qty_c", "size"),
                sum_qty_c=("qty_c", "sum"),
                sum_base_c=("base_c", "sum"),
                sum_disc_c=("disc_c", "sum"),
                sum_charge_c=("charge_c", "sum"),
            )
            .reset_index()
        )
        for c in g.columns[2:]:
            g[c] = g[c].astype("int64")
        return _pa_clean(g)

    def _merge(batch: pa.Table) -> pa.Table:
        group = batch.to_pandas()
        out = (
            group.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .agg(
                n_rows=("n_rows", "sum"),
                sum_qty_c=("sum_qty_c", "sum"),
                sum_base_c=("sum_base_c", "sum"),
                sum_disc_c=("sum_disc_c", "sum"),
                sum_charge_c=("sum_charge_c", "sum"),
            )
            .reset_index()
        )
        for c in out.columns[2:]:
            out[c] = out[c].astype("int64")
        return _pa_clean(out)

    # group cardinality is a handful (|flag|×|status|), so the partials
    # are ≤ a few rows per block: a repartition(1) merge moves almost
    # nothing and avoids a sort-shuffle whose mostly-empty partitions
    # would be pure overhead (and schema-warning noise) at any scale
    return (
        lineitem.select_columns(
            [
                "l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_tax", "l_shipdate",
            ]
        )
        .map_batches(_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_merge, batch_format="pyarrow", batch_size=None)
    )


class _NationAttach:
    """Actor-pool stage: custkey -> nation name via two broadcast dims.
    Zero-copy Arrow views from the object store; the int64 position
    index (searchsorted over sorted custkeys) is built once per actor.

    Broadcast bound (VERDICT r2 item 10): the custkey LUT grows with
    SF — 16 B/customer ≈ 2.4 GB at SF=10k (1.5e9 customers), still
    object-store-shareable on a 128 GiB node but the largest broadcast
    in this module. Beyond that, swap the dim attach for a custkey
    bucket cogroup (the shipping_priority big-big shape) — the
    aggregate semantics are unchanged."""

    def __init__(self, cust_ref, nation_ref):
        cust = ray.get(cust_ref)
        nation = ray.get(nation_ref)
        ck = cust["c_custkey"].to_numpy(zero_copy_only=False)
        order = np.argsort(ck, kind="stable")
        self.cust_keys = ck[order]
        cnk = cust["c_nationkey"].to_numpy(zero_copy_only=False)[order]
        nk = nation["n_nationkey"].to_numpy(zero_copy_only=False)
        names = np.asarray(nation["n_name"].to_pandas(), dtype=object)
        lut = np.empty(int(nk.max()) + 1, dtype=object)
        lut[nk] = names
        self.cust_nation = lut[cnk]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ok = batch["o_custkey"].to_numpy(zero_copy_only=False)
        # inner-join semantics: drop orders with no customer row
        valid, pos = _lut_member(self.cust_keys, ok)
        names = self.cust_nation[pos[valid]]
        cents = _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False)[valid])
        g = (
            pd.DataFrame({"n_name": names, "rev_c": cents})
            .groupby("n_name", sort=False)
            .agg(n_orders=("rev_c", "size"), revenue_c=("rev_c", "sum"))
            .reset_index()
        )
        g["n_orders"] = g["n_orders"].astype("int64")
        g["revenue_c"] = g["revenue_c"].astype("int64")
        return _pa_clean(g)


def revenue_by_nation(
    orders: "ray.data.Dataset",
    customer: pa.Table,
    nation: pa.Table,
) -> "ray.data.Dataset":
    """Revenue rollup by customer nation: orders ⋈ customer ⋈ nation,
    dims broadcast (never shuffled), fact streamed, per-batch combiner
    to ≤ |nation| rows per block, one constant-sized final merge."""
    cust_ref = ray.put(customer.select(["c_custkey", "c_nationkey"]))
    nation_ref = ray.put(nation.select(["n_nationkey", "n_name"]))

    def _merge(batch: pa.Table) -> pa.Table:
        group = batch.to_pandas()
        out = (
            group.groupby("n_name", sort=False)
            .agg(n_orders=("n_orders", "sum"), revenue_c=("revenue_c", "sum"))
            .reset_index()
        )
        out["n_orders"] = out["n_orders"].astype("int64")
        out["revenue_c"] = out["revenue_c"].astype("int64")
        return _pa_clean(out)

    # |nation| rows per block leave the attach stage; repartition(1)
    # merge (see pricing_summary) — constant-sized, never a bottleneck
    return (
        actor_map(
            orders.select_columns(["o_custkey", "o_totalprice"]),
            _NationAttach, cust_ref, nation_ref,
        )
        .repartition(1)
        .map_batches(_merge, batch_format="pyarrow", batch_size=None)
    )


def _emit_q3(df: pd.DataFrame) -> pa.Table:
    """Explicitly typed Q3 result rows (ADVICE r2): an EMPTY bucket's
    object columns would otherwise infer null type in from_pandas and
    lean on schema promotion at the reduce."""
    return pa.table(
        {
            "l_orderkey": pa.array(
                df["l_orderkey"].to_numpy(dtype=np.int64), pa.int64()
            ),
            "revenue_c": pa.array(
                df["revenue_c"].to_numpy(dtype=np.int64), pa.int64()
            ),
            "o_orderdate": pa.Array.from_pandas(
                df["o_orderdate"].astype("datetime64[us]")
            ),
            "o_orderpriority": pa.array(
                df["o_orderpriority"].tolist(), pa.string()
            ),
        }
    )


class _SegmentOrders:
    """Actor-pool stage: keep orders placed before ``cutoff`` by
    customers in the broadcast segment-custkey set (sorted int64 array,
    ``ray.put`` once, searchsorted membership per batch)."""

    def __init__(self, keys_ref, cutoff_us):
        self.keys = ray.get(keys_ref)
        self.cutoff = cutoff_us

    def __call__(self, batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        )
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        member, _ = _lut_member(self.keys, ck)
        hit = (od < self.cutoff) & member
        out = batch.select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"]
        ).filter(pa.array(hit))
        return out.append_column(
            "rev_c", pa.array([None] * len(out), pa.int64())
        ).replace_schema_metadata(None)


def shipping_priority(
    lineitem: "ray.data.Dataset",
    orders: "ray.data.Dataset",
    customer: pa.Table,
    segment: str = "BUILDING",
    cutoff: str = "1995-03-15",
    k: int = 10,
) -> "ray.data.Dataset":
    """TPC-H Q3-shaped shipping priority: top-``k`` unshipped orders of
    one market segment by outstanding revenue — the BIG-BIG join this
    module otherwise lacks (lineitem ⋈ orders are both fact-sized, so
    neither side can broadcast).

    Distribution shape: customer is the only broadcast (a sorted int64
    custkey array of the segment). The lineitem side collapses FIRST
    (per-batch combiner: filter + groupby orderkey sum of row-level
    cent-quantized revenue — one row per order per block leaves the
    map stage), then BOTH slim sides bucket-hash on orderkey and meet
    in ONE cogroup where an inner pandas merge + per-bucket top-k
    partial runs at C speed. Only ≤ k rows per bucket reach the
    constant-sized final merge. No side ever materializes on the
    driver."""
    cut = np.datetime64(pd.Timestamp(cutoff), "us")
    cdf = customer.select(["c_custkey", "c_mktsegment"]).to_pandas()
    keys = np.sort(
        cdf.loc[cdf["c_mktsegment"] == segment, "c_custkey"].to_numpy(
            dtype=np.int64
        )
    )
    keys_ref = ray.put(keys)

    def _line_partial(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        )
        m = sd > cut
        okey = batch["l_orderkey"].to_numpy(zero_copy_only=False)[m]
        rev = _cents(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)[m]
            * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False)[m])
        )
        g = (
            pd.DataFrame({"o_orderkey": okey, "rev_c": rev})
            .groupby("o_orderkey", sort=False)["rev_c"]
            .sum()
            .reset_index()
        )
        # explicit Arrow types for the all-null marker columns (ADVICE
        # r2): an object column of Nones round-tripped through
        # from_pandas infers null type and leans on Ray/Arrow null-type
        # schema promotion at the union — fragile across versions
        n = len(g)
        return pa.table(
            {
                "o_orderkey": pa.array(
                    g["o_orderkey"].to_numpy(dtype=np.int64), pa.int64()
                ),
                "o_orderdate": pa.nulls(n, pa.timestamp("us")),
                "o_orderpriority": pa.nulls(n, pa.string()),
                "rev_c": pa.array(
                    g["rev_c"].to_numpy(dtype=np.int64), pa.int64()
                ),
            }
        )

    line_side = lineitem.select_columns(
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    ).map_batches(_line_partial, batch_format="pyarrow")

    order_side = actor_map(
        orders.select_columns(["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]),
        _SegmentOrders, keys_ref, cut,
    )

    def _align(t: pa.Table) -> pa.Table:
        return t.select(["o_orderkey", "o_orderdate", "o_orderpriority", "rev_c"])

    def _topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["revenue_c", "l_orderkey"],
            ascending=[False, True],
            kind="mergesort",
        ).head(k)

    def _join_bucket(g: pd.DataFrame) -> pa.Table:
        rv = g["rev_c"]
        o = g.loc[rv.isna(), ["o_orderkey", "o_orderdate", "o_orderpriority"]]
        l = (
            g.loc[rv.notna(), ["o_orderkey", "rev_c"]]
            .groupby("o_orderkey", sort=False)["rev_c"]
            .sum()
            .reset_index()
        )
        m = o.merge(l, on="o_orderkey").rename(
            columns={"o_orderkey": "l_orderkey", "rev_c": "revenue_c"}
        )
        m["revenue_c"] = m["revenue_c"].astype(np.int64)
        return _emit_q3(
            _topk(m)[
                ["l_orderkey", "revenue_c", "o_orderdate", "o_orderpriority"]
            ]
        )

    def _final(df: pd.DataFrame) -> pa.Table:
        return _emit_q3(_topk(df).reset_index(drop=True))

    return (
        exchange(
            [
                line_side.map_batches(_align, batch_format="pyarrow"),
                order_side.map_batches(_align, batch_format="pyarrow"),
            ],
            ["o_orderkey"],
            _join_bucket,
        )
        .repartition(1)
        .map_batches(_final, batch_format="pandas", batch_size=None)
    )


class _OrderNationSide:
    """Actor-pool stage for the orders side of local_supplier_volume:
    date-range filter, custkey -> customer nation via the broadcast
    LUT, keep only nations inside the target region. Emits the slim
    ``(o_orderkey, nat_key)`` join side (rev_c/n_items null markers)."""

    def __init__(self, cust_ref, lo_us, hi_us):
        keys, nats = ray.get(cust_ref)
        self.keys, self.nats = keys, nats
        self.lo, self.hi = lo_us, hi_us

    def __call__(self, batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        )
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        member, pos = _lut_member(self.keys, ck)
        ok = (od >= self.lo) & (od < self.hi) & member
        nat = self.nats[pos[ok]]  # -1 when outside the region
        okey = batch["o_orderkey"].to_numpy(zero_copy_only=False)[ok]
        m = nat >= 0
        nulls = pa.array([None] * int(m.sum()), pa.int64())
        return pa.table(
            {
                "o_orderkey": pa.array(okey[m], pa.int64()),
                "nat_key": pa.array(nat[m], pa.int64()),
                "rev_c": nulls,
                "n_items": nulls,
            }
        )


class _LineSupplierSide:
    """Actor-pool stage for the lineitem side: suppkey -> supplier
    nation via the broadcast LUT, keep region nations, row-level cent
    revenue, then a per-batch combiner to one row per
    ``(l_orderkey, nat_key)`` per block."""

    def __init__(self, supp_ref):
        keys, nats = ray.get(supp_ref)
        self.keys, self.nats = keys, nats

    def __call__(self, batch: pa.Table) -> pa.Table:
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        ok, pos = _lut_member(self.keys, sk)
        nat = self.nats[pos[ok]]
        m = nat >= 0
        okey = batch["l_orderkey"].to_numpy(zero_copy_only=False)[ok][m]
        rev = _cents(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)[ok][m]
            * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False)[ok][m])
        )
        g = (
            pd.DataFrame({"o_orderkey": okey, "nat_key": nat[m], "rev_c": rev})
            .groupby(["o_orderkey", "nat_key"], sort=False)["rev_c"]
            .agg(["sum", "size"])
            .reset_index()
            .rename(columns={"sum": "rev_c", "size": "n_items"})
        )
        g["rev_c"] = g["rev_c"].astype(np.int64)
        g["n_items"] = g["n_items"].astype(np.int64)
        return _pa_clean(g[["o_orderkey", "nat_key", "rev_c", "n_items"]])


def local_supplier_volume(
    lineitem: "ray.data.Dataset",
    orders: "ray.data.Dataset",
    customer: pa.Table,
    supplier: pa.Table,
    nation: pa.Table,
    region: pa.Table,
    r_name: str = "ASIA",
    date_lo: str = "1995-01-01",
    date_hi: str = "1997-01-01",
) -> "ray.data.Dataset":
    """TPC-H Q5-shaped local supplier volume: per nation of one region,
    revenue from lineitems whose SUPPLIER and ordering CUSTOMER share
    that nation — the six-table join (region ⋈ nation ⋈ supplier ⋈
    customer ⋈ orders ⋈ lineitem) that exercises every remaining
    TPC-H dim table.

    Distribution shape: all four dims broadcast as two sorted-key LUTs
    that PRE-RESOLVE the nation/region filter (custkey→nat_key and
    suppkey→nat_key, -1 outside the region — so region/nation never
    appear in the stream at all). The nation-equality condition
    becomes part of the join key: both fact sides emit
    ``(o_orderkey, nat_key)`` and meet in ONE orderkey-bucket cogroup
    (the shipping_priority big-big idiom); the lineitem side is
    per-batch pre-combined, and only ≤|nations| partial rows per
    bucket reach the constant-sized final merge."""
    lo = np.datetime64(pd.Timestamp(date_lo), "us")
    hi = np.datetime64(pd.Timestamp(date_hi), "us")

    rdf = region.to_pandas()
    ndf = nation.to_pandas()
    rkey = rdf.loc[rdf["r_name"] == r_name, "r_regionkey"]
    in_region = ndf["n_regionkey"].isin(set(rkey))
    region_nations = ndf.loc[in_region, "n_nationkey"].to_numpy(np.int64)
    nat_names = dict(
        zip(ndf.loc[in_region, "n_nationkey"], ndf.loc[in_region, "n_name"])
    )

    def _lut(tbl: pa.Table, key: str, nat: str):
        df = tbl.select([key, nat]).to_pandas()
        keys = df[key].to_numpy(np.int64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        nats = df[nat].to_numpy(np.int64)[order]
        nats = np.where(np.isin(nats, region_nations), nats, -1)
        return keys, nats

    cust_ref = ray.put(_lut(customer, "c_custkey", "c_nationkey"))
    supp_ref = ray.put(_lut(supplier, "s_suppkey", "s_nationkey"))

    order_side = actor_map(
        orders.select_columns(["o_orderkey", "o_custkey", "o_orderdate"]),
        _OrderNationSide, cust_ref, lo, hi,
    )
    line_side = actor_map(
        lineitem.select_columns(["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]),
        _LineSupplierSide, supp_ref,
    )

    def _join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rv = g["rev_c"]
        o = g.loc[rv.isna(), ["o_orderkey", "nat_key"]]
        l = g.loc[rv.notna(), ["o_orderkey", "nat_key", "rev_c", "n_items"]]
        m = o.merge(l, on=["o_orderkey", "nat_key"])
        out = (
            m.groupby("nat_key", sort=False)[["rev_c", "n_items"]]
            .sum()
            .astype(np.int64)
            .reset_index()
        )
        return out

    def _final(df: pd.DataFrame) -> pa.Table:
        g = (
            df.groupby("nat_key", sort=False)[["rev_c", "n_items"]]
            .sum()
            .astype(np.int64)
            .reset_index()
        )
        g["n_name"] = g["nat_key"].map(nat_names)
        g = g.rename(columns={"rev_c": "revenue_c"})
        return _pa_clean(g[["n_name", "n_items", "revenue_c"]])

    return (
        exchange([order_side, line_side], ["o_orderkey"], _join_bucket)
        .repartition(1)
        .map_batches(_final, batch_format="pandas", batch_size=None)
    )


class _PromoAttach:
    """Actor-pool stage: partkey -> is-promo flag via the broadcast
    part LUT (sorted keys + bool array), date-window filter, then a
    per-batch combiner to ONE partial row (promo/total cent sums)."""

    def __init__(self, part_ref, lo_us, hi_us):
        keys, promo = ray.get(part_ref)
        self.keys, self.promo = keys, promo
        self.lo, self.hi = lo_us, hi_us

    def __call__(self, batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        )
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        member, pos = _lut_member(self.keys, pk)
        ok = (sd >= self.lo) & (sd < self.hi) & member
        rev = _cents(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)[ok]
            * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False)[ok])
        )
        is_promo = self.promo[pos[ok]]
        return pa.table(
            {
                "n_items": pa.array([int(ok.sum())], pa.int64()),
                "promo_rev_c": pa.array([int(rev[is_promo].sum())], pa.int64()),
                "total_rev_c": pa.array([int(rev.sum())], pa.int64()),
            }
        )


def promo_revenue(
    lineitem: "ray.data.Dataset",
    part: pa.Table,
    date_lo: str = "1995-09-01",
    date_hi: str = "1995-10-01",
    promo_type: str = "PROMO",
) -> "ray.data.Dataset":
    """TPC-H Q14-shaped promotion effect: the share of one month's
    revenue coming from promo parts. part broadcasts as a sorted
    (partkey, is_promo) LUT; each lineitem block collapses to ONE
    partial row, so the only exchange is the constant-sized
    repartition(1) merge. The promo fraction is a single division of
    two exact int64 cent totals on the final row — deterministic, so
    the DuckDB oracle hash-matches."""
    pdf = part.select(["p_partkey", "p_type"]).to_pandas()
    keys = pdf["p_partkey"].to_numpy(np.int64)
    order = np.argsort(keys, kind="stable")
    part_ref = ray.put(
        (
            keys[order],
            (pdf["p_type"].to_numpy(dtype=object)[order] == promo_type),
        )
    )
    lo = np.datetime64(pd.Timestamp(date_lo), "us")
    hi = np.datetime64(pd.Timestamp(date_hi), "us")

    def _final(df: pd.DataFrame) -> pa.Table:
        s = df[["n_items", "promo_rev_c", "total_rev_c"]].sum().astype(np.int64)
        out = pd.DataFrame([s])
        out["promo_frac"] = (
            float(s["promo_rev_c"]) / float(s["total_rev_c"])
            if s["total_rev_c"]
            else 0.0
        )
        return _pa_clean(out)

    return (
        actor_map(
            lineitem.select_columns(["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"]),
            _PromoAttach, part_ref, lo, hi,
        )
        .repartition(1)
        .map_batches(_final, batch_format="pandas", batch_size=None)
    )
