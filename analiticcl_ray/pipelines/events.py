"""Stream-shaped operations over the ``events`` table.

Ray Data is a batch engine (like the reference — SURVEY.md §2.10: no
windows/watermarks anywhere in analiticcl); stream semantics are
expressed as partition-by-key + sort-within-group transforms
(ray_guide.md "Streaming-shaped workloads"). Ordering assumption: each
group is sorted by ``ts`` inside the transform itself, so input block
order never matters.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..stages.exchange import exchange


def _merge_window_partials(partial: "ray.data.Dataset") -> "ray.data.Dataset":
    """Merge per-block (user_id, window_start, n_events, sum_value)
    partials through ONE int-keyed bucket cogroup: one Python call per
    bucket, C-speed pandas groupby inside — Ray's built-in two-column
    Aggregate was measured ~20x slower on the same merge. sum rounded
    to 4 decimals: float summation order differs between engines in
    the last ulp; the rounded value is the comparable contract (exact
    aggregation is over ints only)."""

    def _merge_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.groupby(["user_id", "window_start"], sort=False)
            .agg(n_events=("n_events", "sum"), sum_value=("sum_value", "sum"))
            .reset_index()
        )
        out["user_id"] = out["user_id"].astype("int64")
        out["window_start"] = out["window_start"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        out["sum_value"] = out["sum_value"].astype(float).round(4)
        return out

    return exchange(partial, ["user_id", "window_start"], _merge_bucket)


def tumbling_window_agg(
    events: "ray.data.Dataset", window_s: int = 3600
) -> "ray.data.Dataset":
    """Per (user, tumbling window): event count and value sum.
    window_start = floor(epoch_seconds / window_s) * window_s as an
    epoch integer (bit-identical to the SQL oracle's integer division)."""

    def _win(batch: pa.Table) -> pa.Table:
        df = batch.select(["user_id", "ts", "value"]).to_pandas()
        # unit-independent epoch seconds (pandas may carry ns or us)
        epoch = (df["ts"] - pd.Timestamp(0)) // pd.Timedelta(seconds=1)
        df["window_start"] = (epoch // window_s) * window_s
        g = (
            df.groupby(["user_id", "window_start"], sort=False)
            .agg(n_events=("value", "size"), sum_value=("value", "sum"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    return _merge_window_partials(events.map_batches(_win, batch_format="pyarrow"))


def hopping_window_agg(
    events: "ray.data.Dataset", window_s: int = 3600, hop_s: int = 900
) -> "ray.data.Dataset":
    """Per (user, hopping/sliding window): event count and value sum.

    Windows are [s, s + window_s) for every s that is a multiple of
    ``hop_s``; each event falls into exactly window_s/hop_s windows
    (hop_s must divide window_s). The per-batch expansion is a numpy
    broadcast (row replicated n_hops times with shifted window starts)
    followed by the same partial-combine + single bucket-cogroup merge
    as the tumbling variant, so the shuffle moves pre-aggregated
    partials only — the n_hops expansion never crosses the wire
    unaggregated. This is the "windowed aggregate" operator Ray Data
    has no primitive for (composed per the cogroup pattern)."""
    if window_s % hop_s:
        raise ValueError("hop_s must divide window_s")
    n_hops = window_s // hop_s

    def _win(batch: pa.Table) -> pa.Table:
        df = batch.select(["user_id", "ts", "value"]).to_pandas()
        epoch = ((df["ts"] - pd.Timestamp(0)) // pd.Timedelta(seconds=1)).to_numpy()
        base = epoch // hop_s
        # (n, n_hops) window starts: (base - k) * hop for k in [0, n_hops)
        ws = (base[:, None] - np.arange(n_hops)[None, :]) * hop_s
        g = (
            pd.DataFrame(
                {
                    "user_id": np.repeat(df["user_id"].to_numpy(), n_hops),
                    "window_start": ws.ravel(),
                    "value": np.repeat(df["value"].to_numpy(), n_hops),
                }
            )
            .groupby(["user_id", "window_start"], sort=False)
            .agg(n_events=("value", "size"), sum_value=("value", "sum"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    return _merge_window_partials(events.map_batches(_win, batch_format="pyarrow"))


def sessionize(
    events: "ray.data.Dataset", gap_s: int = 1800
) -> "ray.data.Dataset":
    """Session windows per user: a new session starts when the gap to
    the previous event exceeds ``gap_s``. Group-sorted by ts.
    ``sum_value`` is rounded to 4 decimals (same contract as
    tumbling_window_agg: float summation order differs between engines
    in the last ulp) so the op is DuckDB-oracle-checkable."""

    def _sessions_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # one Python call per BUCKET of users (not per user): sort the
        # whole bucket by (user, ts) once, then session boundaries,
        # session ids, and the per-session aggregate are all C-speed
        # pandas/numpy over the full bucket.
        g = group.sort_values(["user_id", "ts"], kind="mergesort").reset_index(
            drop=True
        )
        epoch = (g["ts"] - pd.Timestamp(0)) // pd.Timedelta(seconds=1)
        user_change = g["user_id"].ne(g["user_id"].shift())
        new_session = (
            user_change | (epoch.diff().fillna(gap_s + 1) > gap_s)
        ).cumsum()
        out = (
            g.assign(session=new_session, epoch=epoch)
            .groupby("session", sort=True)
            .agg(
                user_id=("user_id", "first"),
                session_start=("epoch", "min"),
                session_end=("epoch", "max"),
                n_events=("ts", "size"),
                sum_value=("value", "sum"),
            )
            .reset_index(drop=True)
        )
        out["user_id"] = out["user_id"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        out["sum_value"] = out["sum_value"].astype(float).round(4)
        return out

    return exchange(
        events.select_columns(["user_id", "ts", "value"]), ["user_id"], _sessions_bucket
    )


def _tag_events(batch: pa.Table) -> pa.Table:
    """Events as the left side of a keyed temporal join: (key, t_us,
    side=0) plus payload columns padded to the shared schema."""
    return pa.table(
        {
            "key": batch["user_id"],
            # normalize the unit BEFORE dropping to int64: a
            # timestamp[ns] input (pandas-origin) would otherwise carry
            # values 1000x a timestamp[us] right side and never match
            "t_us": batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
            "side": pa.array(np.zeros(batch.num_rows, dtype=np.int8), type=pa.int8()),
            "event_id": batch["event_id"],
            "okey": pa.array(
                np.full(batch.num_rows, -1, dtype=np.int64), type=pa.int64()
            ),
            "price": pa.array(
                np.zeros(batch.num_rows, dtype=np.float64), type=pa.float64()
            ),
        }
    )


def _tag_orders(batch: pa.Table) -> pa.Table:
    """Orders as the right side of a keyed temporal join (side=1)."""
    return pa.table(
        {
            "key": batch["o_custkey"],
            "t_us": batch["o_orderdate"].cast(pa.timestamp("us")).cast(pa.int64()),
            "side": pa.array(np.ones(batch.num_rows, dtype=np.int8), type=pa.int8()),
            "event_id": pa.array(
                np.full(batch.num_rows, -1, dtype=np.int64), type=pa.int64()
            ),
            "okey": batch["o_orderkey"],
            "price": batch["o_totalprice"],
        }
    )


def asof_join_orders(
    events: "ray.data.Dataset", orders: "ray.data.Dataset"
) -> "ray.data.Dataset":
    """AS-OF join: for each event, the most recent order of the same
    customer placed at or before the event time (left semantics;
    unmatched events get o_orderkey=-1 / o_totalprice=0.0).

    Ray Data has no as-of join primitive; this composes one from the
    same machinery as every other keyed op here: both sides are
    hash-bucketed on the join key (ONE shuffle, sides tagged), and
    inside each bucket a single ``pd.merge_asof(by=key)`` — a C-speed
    sort-merge — resolves every key in the bucket at once. The
    partitioning assumption is the usual cogroup one: all rows for a
    key fit in one bucket frame (stages/exchange.py sizes the group
    count). Ties on order date are broken toward the highest
    o_orderkey — deterministic, matching the SQL oracle's
    ``ORDER BY o_orderdate DESC, o_orderkey DESC`` tie-break."""

    def _asof_bucket(group: pd.DataFrame) -> pa.Table:
        left = group[group["side"] == 0]
        right = group[group["side"] == 1]
        left = left.sort_values("t_us", kind="mergesort")
        # sort by (t_us, okey): merge_asof keeps the LAST row among
        # equal on-values, so max okey wins a date tie
        right = right.sort_values(["t_us", "okey"], kind="mergesort")
        if right.empty:
            out = left[["event_id", "key"]].copy()
            out["o_orderkey"] = np.int64(-1)
            out["o_totalprice"] = 0.0
        else:
            m = pd.merge_asof(
                left[["t_us", "key", "event_id"]],
                right[["t_us", "key", "okey", "price"]],
                on="t_us",
                by="key",
                direction="backward",
                allow_exact_matches=True,
            )
            out = pd.DataFrame(
                {
                    "event_id": m["event_id"],
                    "key": m["key"],
                    "o_orderkey": m["okey"].fillna(-1).astype("int64"),
                    "o_totalprice": m["price"].fillna(0.0).astype(float),
                }
            )
        out = out.rename(columns={"key": "user_id"})
        out["event_id"] = out["event_id"].astype("int64")
        out["user_id"] = out["user_id"].astype("int64")
        return pa.Table.from_pandas(
            out[["event_id", "user_id", "o_orderkey", "o_totalprice"]],
            preserve_index=False,
        ).replace_schema_metadata(None)

    # both sides through ONE bucket-hash shuffle (sides tagged, shared
    # slim schema)
    return exchange(
        [
            events.select_columns(["event_id", "user_id", "ts"]).map_batches(
                _tag_events, batch_format="pyarrow"
            ),
            orders.select_columns(
                ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
            ).map_batches(_tag_orders, batch_format="pyarrow"),
        ],
        ["key"],
        _asof_bucket,
    )


def range_join_repeat_orders(
    orders: "ray.data.Dataset", window_days: int = 30
) -> "ray.data.Dataset":
    """RANGE (interval) self-join: every ordered pair of orders by the
    same customer placed within ``window_days`` of each other — the
    "repeat purchase within N days" analysis (inner semantics; pair
    emitted once with key_a < key_b on date ties).

    Ray Data has no range-join primitive; like the as-of join this
    composes one: the single input rides ONE bucket-hash shuffle on the
    join key, and inside each bucket a C-speed equi-``pd.merge`` on the
    key produces per-key candidate pairs that one vectorized mask prunes
    to the interval ``0 <= t_b - t_a <= window`` (ties resolved by
    ``key_a < key_b`` so each unordered pair appears exactly once). The
    within-bucket expansion is bounded by max-orders-per-customer², not
    by bucket size — the partitioning assumption to document at scale: a
    pathologically hot key needs its interval split into sub-ranges that
    overlap by ``window`` (each date sub-range replica is exact by
    construction)."""
    win_us = int(window_days) * 86_400 * 1_000_000

    def _slim(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": batch["o_custkey"],
                # unit-explicit: the absolute gap feeds the window test,
                # so ns- vs us-carrying inputs must land on one unit
                "t_us": batch["o_orderdate"]
                .cast(pa.timestamp("us"))
                .cast(pa.int64()),
                "okey": batch["o_orderkey"],
            }
        )

    empty = pa.table(
        {
            "o_custkey": pa.array([], type=pa.int64()),
            "o_orderkey_a": pa.array([], type=pa.int64()),
            "o_orderkey_b": pa.array([], type=pa.int64()),
            "gap_days": pa.array([], type=pa.int64()),
        }
    )

    def _range_bucket(group: pd.DataFrame) -> pa.Table:
        m = pd.merge(
            group[["key", "t_us", "okey"]],
            group[["key", "t_us", "okey"]],
            on="key",
            suffixes=("_a", "_b"),
        )
        ta = m["t_us_a"].to_numpy()
        tb = m["t_us_b"].to_numpy()
        gap = tb - ta
        keep = (gap >= 0) & (gap <= win_us) & (
            (gap > 0) | (m["okey_a"].to_numpy() < m["okey_b"].to_numpy())
        )
        m = m[keep]
        if m.empty:
            return empty
        return pa.Table.from_pandas(
            pd.DataFrame(
                {
                    "o_custkey": m["key"].astype("int64"),
                    "o_orderkey_a": m["okey_a"].astype("int64"),
                    "o_orderkey_b": m["okey_b"].astype("int64"),
                    "gap_days": (gap[keep] // (86_400 * 1_000_000)).astype("int64"),
                }
            ),
            preserve_index=False,
        ).replace_schema_metadata(None)

    return exchange(
        orders.select_columns(["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
            _slim, batch_format="pyarrow"
        ),
        ["key"],
        _range_bucket,
    )


def event_transitions(events: "ray.data.Dataset") -> "ray.data.Dataset":
    """Markov transition counts between consecutive event types per
    user — the standard funnel/behavior matrix over an event stream.
    Events are ordered by (ts, event_id) within each user (total order:
    event_id breaks ts ties deterministically), consecutive pairs are
    counted, and counts are merged globally.

    Two shuffles, both tiny: one user-bucket cogroup carrying only
    (user_id, t_us, event_id, event_type), then a (src,dst)-bucket
    cogroup over per-bucket partial counts — at most |types|² rows per
    bucket leave stage one, so the final exchange is model-sized
    regardless of corpus scale. Inside a bucket everything is one
    C-speed sort + shifted-view compare, no per-user Python."""

    def _pairs_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["user_id", "t_us", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        same = g["user_id"].to_numpy()[1:] == g["user_id"].to_numpy()[:-1]
        et = g["event_type"].to_numpy()
        out = (
            pd.DataFrame({"src_type": et[:-1][same], "dst_type": et[1:][same]})
            .groupby(["src_type", "dst_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype("int64")
        return out

    def _to_us(batch: pa.Table) -> pa.Table:
        # timestamp[us] -> epoch microseconds, zero-copy-ish Arrow cast
        return batch.select(["user_id", "event_id", "event_type"]).append_column(
            "t_us", batch["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        )

    def _merge_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.groupby(["src_type", "dst_type"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        out["n"] = out["n"].astype("int64")
        return out

    pairs = exchange(
        events.select_columns(["user_id", "ts", "event_id", "event_type"]).map_batches(
            _to_us, batch_format="pyarrow"
        ),
        ["user_id"],
        _pairs_bucket,
    )
    return exchange(pairs, ["src_type", "dst_type"], _merge_bucket)


def user_activity_stats(events: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-user activity profile: event count, distinct event types,
    activity span, and the longest inter-event gap — the features a
    behavioral sample-weighting or bot-filtering stage needs. Every
    output is an exact integer (microsecond epochs, no float division
    anywhere) so the DuckDB oracle hashes bit-identically by
    construction.

    One user-bucket cogroup; inside a bucket one mergesort by
    (user, t_us, event_id) then vectorized diff/groupby — gaps are a
    shifted-view subtraction masked to same-user adjacencies."""

    def _to_us(batch: pa.Table) -> pa.Table:
        # timestamp[us] -> epoch microseconds, zero-copy-ish Arrow cast
        return batch.select(["user_id", "event_id", "event_type"]).append_column(
            "t_us", batch["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        )

    def _stats_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["user_id", "t_us", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        u = g["user_id"].to_numpy()
        t = g["t_us"].to_numpy()
        gap = np.where(u[1:] == u[:-1], t[1:] - t[:-1], np.int64(-1))
        g2 = g.iloc[1:].assign(gap=gap)  # empty when the bucket has 1 row
        agg = g.groupby("user_id", sort=False).agg(
            n_events=("t_us", "size"),
            n_types=("event_type", "nunique"),
            first_us=("t_us", "min"),
            last_us=("t_us", "max"),
        )
        mg = g2.groupby("user_id", sort=False)["gap"].max()
        agg["max_gap_us"] = mg.reindex(agg.index).fillna(-1).astype("int64")
        # single-event users have no gap: -1 sentinel (matches the
        # oracle's coalesce(max(gap), -1))
        out = agg.reset_index()
        out["user_id"] = out["user_id"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        out["n_types"] = out["n_types"].astype("int64")
        out["span_us"] = (out["last_us"] - out["first_us"]).astype("int64")
        out = out[
            ["user_id", "n_events", "n_types", "first_us", "last_us",
             "span_us", "max_gap_us"]
        ]
        return out

    return exchange(
        events.select_columns(["user_id", "ts", "event_id", "event_type"]).map_batches(
            _to_us, batch_format="pyarrow"
        ),
        ["user_id"],
        _stats_bucket,
    )


def funnel_counts(
    events: "ray.data.Dataset",
    steps: tuple[str, ...] = ("view", "click", "purchase"),
) -> "ray.data.Dataset":
    """Ordered funnel analysis (the classic product-analytics op): how
    many users complete each prefix of ``steps`` IN ORDER, greedy
    semantics — t1 = user's first step-1 event, t_k = first step-k
    event strictly after t_{k-1}. Output one row per stage:
    (stage, step, n_users), n_users non-increasing with stage.

    Shape: filter to funnel event types at the read (nothing else
    shuffles), ONE user-bucket cogroup co-locates each user's funnel
    events; inside the bucket the greedy chain is |steps| vectorized
    pandas passes (mask → compare against the previous stage's per-user
    time → groupby-min). Per-bucket output is |steps| partial counts;
    the final merge is constant-sized. All time math on integer epoch
    µs — exact."""
    step_list = list(steps)
    stepset = set(step_list)

    def _project(batch: pa.Table) -> pa.Table:
        df = batch.select(["user_id", "ts", "event_type"]).to_pandas()
        df = df[df["event_type"].isin(stepset)]
        t_us = (df["ts"] - pd.Timestamp(0)) // pd.Timedelta(microseconds=1)
        out = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "t_us": t_us.astype("int64"),
                "event_type": df["event_type"],
            }
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    def _funnel_bucket(group: pd.DataFrame) -> pa.Table:
        prev: pd.Series | None = None  # per-user time of previous stage
        counts: list[int] = []
        for k, step in enumerate(step_list):
            sub = group[group["event_type"] == step]
            if prev is not None:
                after = sub["user_id"].map(prev)
                sub = sub[after.notna() & (sub["t_us"] > after)]
            cur = sub.groupby("user_id", sort=False)["t_us"].min()
            counts.append(len(cur))
            prev = cur
        return pa.table(
            {
                "stage": pa.array(
                    np.arange(1, len(step_list) + 1, dtype=np.int64), pa.int64()
                ),
                "step": pa.array(step_list, pa.string()),
                "n_users": pa.array(np.asarray(counts, dtype=np.int64), pa.int64()),
            }
        )

    partials = exchange(
        events.map_batches(_project, batch_format="pyarrow"), ["user_id"], _funnel_bucket
    )
    agg = (
        partials.groupby(["stage", "step"])
        .sum("n_users")
        .to_pandas()  # |steps| rows
        .rename(columns={"sum(n_users)": "n_users"})
    )
    agg["n_users"] = agg["n_users"].astype("int64")
    return ray.data.from_arrow(
        pa.Table.from_pandas(agg, preserve_index=False).replace_schema_metadata(None)
    )


def retention_cohorts(events: "ray.data.Dataset") -> "ray.data.Dataset":
    """Cohort retention matrix: users grouped by the epoch-day of their
    first event (the cohort), counted on each later active day as a
    day offset — the table behind every retention curve. Output
    (cohort_day, day_offset, n_users), all int64 (epoch days).

    Shape: per-batch combiner reduces events to distinct (user, day)
    pairs, ONE user-bucket cogroup makes the per-user min-day global
    (bucketing is by user, so a user's whole history is in one group),
    per-bucket (cohort, offset) partial counts → constant-ish final
    merge. Shuffle volume = distinct user-days, never raw events."""

    def _days(batch: pa.Table) -> pa.Table:
        df = batch.select(["user_id", "ts"]).to_pandas()
        day = (df["ts"] - pd.Timestamp(0)) // pd.Timedelta(days=1)
        out = (
            pd.DataFrame(
                {"user_id": df["user_id"].astype("int64"),
                 "day": day.astype("int64")}
            )
            .drop_duplicates()
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    def _cohort_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["user_id", "day"])
        cohort = g.groupby("user_id", sort=False)["day"].transform("min")
        part = (
            pd.DataFrame(
                {
                    "cohort_day": cohort.astype("int64"),
                    "day_offset": (g["day"] - cohort).astype("int64"),
                }
            )
            .groupby(["cohort_day", "day_offset"], sort=False)
            .size()
            .reset_index(name="n_users")
        )
        part["n_users"] = part["n_users"].astype("int64")
        return part

    partials = exchange(
        events.map_batches(_days, batch_format="pyarrow"), ["user_id"], _cohort_bucket
    )

    def _rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["cohort_day", "day_offset", "n_users"])

    return (
        partials.groupby(["cohort_day", "day_offset"])
        .sum("n_users")
        .map_batches(_rename, batch_format="pyarrow")
    )
