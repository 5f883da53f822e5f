"""The one keyed exchange (stages/exchange.py): its group-count rule,
count-invariance of every kind of body that runs through it, and a
guard that keeps every bucket cogroup of the package inside it."""

import ast
import pathlib

import numpy as np
import pyarrow as pa
import pytest


def test_group_count_rule(ray_session):
    """``None`` (or 0) bytes give the width floor; past
    ``TARGET_GROUP_BYTES`` per floor group the count grows with the
    bytes, one group per target size, rounded up."""
    from analiticcl_ray.stages import exchange as X
    from analiticcl_ray.stages.pools import pool_width

    floor = X.GROUPS_PER_SLOT * pool_width()
    assert floor == 16  # the 4-CPU test session
    assert X.group_count(None) == X.group_count(0) == floor
    assert X.group_count(X.TARGET_GROUP_BYTES) == floor
    assert X.group_count(floor * X.TARGET_GROUP_BYTES) == floor
    assert X.group_count(floor * X.TARGET_GROUP_BYTES + 1) == floor + 1
    assert X.group_count(10 * floor * X.TARGET_GROUP_BYTES) == 10 * floor
    # 1e12 rows x 25 band keys x 32 B per key row
    assert X.group_count(25 * 10**12 * 32) == -(-25 * 10**12 * 32 // (16 << 20))


def _rows(ds) -> list:
    df = ds.to_pandas()
    return sorted(df[sorted(df.columns)].itertuples(index=False, name=None))


def _stripped_and_tally(raw, id_dtype: str) -> tuple:
    from analiticcl_ray.stages.lsh import pair_summary, strip_sentinels

    raw = raw.materialize()
    # every emitted copy (a pair shared by several keys), as a multiset
    return _rows(strip_sentinels(raw, id_dtype)), pair_summary(raw, id_dtype)


def _emitter():
    import ray.data as rd

    from analiticcl_ray.stages.lsh import cooccurrence_pairs_multi

    rng = np.random.default_rng(21)
    n = 600
    # two boilerplate keys over source A's drop threshold, so the int
    # sentinel codec runs; source B carries a hamming-prefiltered attr
    keys_a = rng.integers(0, 80, size=n).astype(np.int64)
    keys_a[:60], keys_a[60:90] = 7777, 8888
    keys_b = rng.integers(0, 40, size=n).astype(np.int64)
    rows_a = rd.from_arrow(pa.table({"band": keys_a, "image_id": rng.integers(0, 200, n)}))
    rows_b = rd.from_arrow(pa.table({
        "band": keys_b,
        "image_id": rng.integers(0, 200, n),
        "phash": rng.integers(-(1 << 62), 1 << 62, size=n).astype(np.int64),
    }))
    raw = cooccurrence_pairs_multi(
        [
            {"rows": rows_a, "key_col": "band", "cap": 6, "drop_threshold": 20,
             "sentinel_salt": 0},
            {"rows": rows_b, "key_col": "band", "cap": 4, "drop_threshold": 30,
             "sentinel_salt": 1, "attr_col": "phash", "attr_maxham": 20},
        ],
        "image_id",
        id_dtype="int",
        keep_sentinels=True,
    )
    return _stripped_and_tally(raw, "int")


def _dedup_pairs():
    import ray.data as rd

    from analiticcl_ray.stages.lsh import cooccurrence_pairs, dedup_pairs

    rng = np.random.default_rng(5)
    n = 800
    ids = np.array([f"img{int(v):03d}" for v in rng.integers(0, 120, n)])
    rows = rd.from_arrow(pa.table({
        "band": rng.integers(0, 60, size=n).astype(np.int64),
        "image_id": pa.array(ids, pa.string()),
    }))
    return _rows(dedup_pairs(cooccurrence_pairs(rows, "band", "image_id", cap=5)))


def _probe_index():
    import ray.data as rd

    from analiticcl_ray.stages.lsh import probe_index_pairs

    rng = np.random.default_rng(3)
    n_bands = 3

    def tab(ids, hot):
        bands = rng.integers(0, 80, size=(len(ids), n_bands))
        bands[hot, 0] = 10_000  # one band over the cap: sentinels
        return rd.from_arrow(pa.table({
            "id": pa.array(ids, pa.int64()),
            "attr": pa.array(rng.integers(10, 20, size=len(ids)), pa.int64()),
            "bands": pa.FixedSizeListArray.from_arrays(
                pa.array(bands.ravel(), pa.int64()), n_bands),
        }))

    raw, _ = probe_index_pairs(
        tab(list(range(30)), slice(0, 2)), tab(list(range(30, 70)), slice(0, 8)),
        "id", "attr", n_bands, id_dtype="int", cap=6, ratio=0.8,
    )
    return _stripped_and_tally(raw, "int")


def _attach():
    import ray.data as rd

    from analiticcl_ray.stages.verify import attach_pair_sides

    base = (1 << 53) + 1
    ids = base + np.arange(40, dtype=np.int64)
    corpus = rd.from_arrow(pa.table({
        "image_id": ids, "bytes_key": (1 << 62) + np.arange(40, dtype=np.int64),
    }))
    rng = np.random.default_rng(9)
    src = rng.choice(ids, size=60)
    dst = rng.choice(ids, size=60)
    keep = src < dst
    pairs = rd.from_arrow(pa.table({"src_id": src[keep], "dst_id": dst[keep]}))
    return _rows(attach_pair_sides(pairs, corpus, ["bytes_key"], method="cogroup"))


def _label_propagation():
    import ray.data as rd

    from analiticcl_ray.stages.cc import cc_label_propagation

    # converges in two rounds: each round runs its own exchange, and a
    # round costs more than the one before it
    edges = [("n0", "n1"), ("n0", "n2"), ("n1", "n3"), ("m5", "m9"), ("m3", "m9")]
    pairs = rd.from_arrow(pa.table({
        "src_id": [s for s, _ in edges], "dst_id": [d for _, d in edges],
    }))
    return _rows(cc_label_propagation(pairs))


def _exact_dedup():
    import ray.data as rd

    from analiticcl_ray.pipelines.text import exact_dedup

    texts = ["alpha beta", "gamma", "alpha beta", "delta", "gamma", "alpha beta", ""]
    docs = rd.from_arrow(pa.table({"doc_id": np.arange(len(texts) * 3),
                                   "text": texts * 3})).repartition(4)
    return _rows(exact_dedup(docs))


def _asof_join():
    import ray.data as rd

    from analiticcl_ray.pipelines.events import asof_join_orders

    rng = np.random.default_rng(17)
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    day = np.timedelta64(86_400_000_000, "us")
    events = rd.from_arrow(pa.table({
        "event_id": np.arange(200, dtype=np.int64),
        "user_id": rng.integers(0, 25, 200).astype(np.int64),
        "ts": pa.array(t0 + rng.integers(0, 60, 200) * day, pa.timestamp("us")),
    }))
    orders = rd.from_arrow(pa.table({
        "o_orderkey": np.arange(90, dtype=np.int64),
        "o_custkey": rng.integers(0, 30, 90).astype(np.int64),
        "o_orderdate": pa.array(t0 + rng.integers(0, 60, 90) * day, pa.timestamp("us")),
        "o_totalprice": rng.integers(100, 10_000, 90) / 100.0,
    }))
    return _rows(asof_join_orders(events, orders))


_OPS = {
    "emitter_sentinels": _emitter,
    "dedup_pairs": _dedup_pairs,
    "probe_index_pairs": _probe_index,
    "cogroup_attach_int64": _attach,
    "cc_label_propagation": _label_propagation,
    "exact_dedup": _exact_dedup,
    "events_asof_join": _asof_join,
}


@pytest.mark.parametrize("op", sorted(_OPS))
def test_output_does_not_depend_on_the_group_count(ray_session, monkeypatch, op):
    """Every grouping the exchange runs is key-complete: forcing the
    rule to 1 group and to 64 groups gives the same sorted rows and,
    for the sentinel-carrying pair streams, the same tallies (only the
    sentinel ids, which the strip removes, encode the group)."""
    from analiticcl_ray.stages import exchange as X

    out = {}
    for n in (1, 64):
        monkeypatch.setattr(X, "group_count", lambda nbytes=None, n=n: n)
        out[n] = _OPS[op]()
    assert out[1] == out[64]
    rows = out[1][0] if isinstance(out[1], tuple) else out[1]
    assert rows, "fixture must produce rows"
    if isinstance(out[1], tuple):
        assert out[1][1]["dropped_buckets"], "fixture must drop buckets"


def test_every_bucket_cogroup_runs_through_the_exchange():
    """Only stages/exchange.py hashes rows to a group id
    (``bucket_by_keys``) and groups on it: no other module of the
    package calls ``bucket_by_keys`` or groups by a ``bucket`` or
    ``cogroup`` column. (Groupings on a real key column — a query id,
    a block-pair key, a range key — are not exchanges.)"""
    root = pathlib.Path(__file__).resolve().parent.parent / "analiticcl_ray"
    found = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "stages" / "exchange.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name == "bucket_by_keys":
                found.append(f"{path.relative_to(root)}:{node.lineno} bucket_by_keys")
            if name == "groupby" and any(
                isinstance(a, ast.Constant) and a.value in ("bucket", "cogroup")
                for a in node.args
            ):
                found.append(f"{path.relative_to(root)}:{node.lineno} groupby")
    assert not found, found
