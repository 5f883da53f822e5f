"""Tests for documents/embeddings/events operators: approximate paths
measured against their exact counterparts on the driver test data."""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def docs(ray_session):
    import ray.data as rd

    return rd.read_parquet("/root/testdata/sf0.001/documents.parquet")


@pytest.fixture(scope="module")
def emb(ray_session):
    import ray.data as rd

    return rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")


def test_exact_dedup_counts(docs):
    from analiticcl_ray.pipelines.text import exact_dedup

    out = exact_dedup(docs).to_pandas()
    assert out["n_dups"].sum() == docs.count()
    assert (out["n_dups"] >= 1).all()


def test_doc_stats_token_semantics(ray_session):
    import ray.data as rd

    from analiticcl_ray.pipelines.text import doc_stats

    ds = rd.from_items(
        [
            {"doc_id": 1, "text": "a b  c "},   # trailing + double spaces
            {"doc_id": 2, "text": "single"},
        ]
    )
    out = {r["doc_id"]: r for r in doc_stats(ds).take_all()}
    assert out[1]["n_tokens"] == 3
    assert out[2]["n_tokens"] == 1
    assert out[1]["n_chars_computed"] == 7


def test_minhash_recall_vs_exact_jaccard(docs):
    """LSH candidates at r=4 must recover >=0.99 of exact pairs at
    J>=0.8 (P[miss] ~ 5e-8 per pair at the fixed config)."""
    from analiticcl_ray.pipelines.text import minhash_dedup_pairs, ngram_jaccard_pairs

    exact = {
        (r["a"], r["b"]) for r in ngram_jaccard_pairs(docs, threshold=0.8).take_all()
    }
    approx = {
        (r["a"], r["b"]) for r in minhash_dedup_pairs(docs, jaccard_threshold=0.8).take_all()
    }
    if exact:
        recall = len(exact & approx) / len(exact)
        assert recall >= 0.99, f"missed {sorted(exact - approx)[:5]}"
    # verification is exact -> no false positives
    assert approx <= exact


def test_ngram_jaccard_cogroup_matches_broadcast(docs):
    """The 1e12-scale verify path (cogroup text attach) is
    result-identical to the broadcast path — no driver-side gram/matrix
    materialization exists in either (VERDICT r1 item 1)."""
    from analiticcl_ray.pipelines.text import ngram_jaccard_pairs

    bc = sorted(
        (r["a"], r["b"], round(r["jaccard"], 12))
        for r in ngram_jaccard_pairs(docs, attach_method="broadcast").take_all()
    )
    cg = sorted(
        (r["a"], r["b"], round(r["jaccard"], 12))
        for r in ngram_jaccard_pairs(docs, attach_method="cogroup").take_all()
    )
    assert bc == cg
    assert len(bc) > 0


def test_ngram_jaccard_prefix_filter_complete(ray_session):
    """Prefix filtering must not lose pairs: brute-force Jaccard over a
    small synthetic corpus with shared template text equals the sparse
    pipeline's output."""
    import ray.data as rd

    from analiticcl_ray.pipelines.text import ngram_jaccard_pairs

    base = "the quick brown fox jumps over the lazy dog near the river bank"
    texts = [base, base.replace("quick", "quikc"), base + " today",
             "a completely different document with other words entirely",
             base.replace("river", "creek"), "xy"]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]

    def gset(t):
        return {t[i:i + 3] for i in range(len(t) - 2)} if len(t) >= 3 else set()

    want = set()
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            sa, sb = gset(texts[i]), gset(texts[j])
            u = len(sa | sb)
            if u and len(sa & sb) / u >= 0.6:
                want.add((i, j))
    got = {
        (r["a"], r["b"])
        for r in ngram_jaccard_pairs(rd.from_items(rows), threshold=0.6).take_all()
    }
    assert got == want
    assert len(want) >= 3


def test_empty_doc_token_parity(ray_session):
    """Engine and DuckDB oracle agree on empty/whitespace-only docs
    (ADVICE r1: regexp_split_to_array('') returns [''] in DuckDB; the
    oracle SQL now guards it)."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    import __ray_entry__ as entry
    from analiticcl_ray.pipelines.text import doc_stats, token_counts

    pdf = pd.DataFrame(
        {"doc_id": [1, 2, 3], "text": ["", "   ", "a b"],
         "lang": ["en"] * 3, "n_chars": [0, 3, 3]}
    )
    ds = rd.from_pandas(pdf)
    out = {r["doc_id"]: r["n_tokens"] for r in doc_stats(ds).take_all()}
    assert out == {1: 0, 2: 0, 3: 2}
    tc = {r["token"]: r["cnt"] for r in token_counts(ds).take_all()}
    assert tc == {"a": 1, "b": 1}

    con = duckdb.connect()
    con.register("documents", pdf)
    osql = entry.oracle_sql()
    o_stats = con.execute(osql["doc_stats"]).df().set_index("doc_id")["n_tokens"].to_dict()
    assert o_stats == out
    o_tc = con.execute(osql["token_counts"]).df().set_index("token")["cnt"].to_dict()
    assert o_tc == tc


def test_unicode_whitespace_token_parity(ray_session):
    """Engine tokenization (oracle_tokens) bit-matches DuckDB's
    regexp_split_to_array(trim(x),'\\s+') on the divergent cases:
    RE2 \\s is ASCII-only (NBSP/U+2028/NEL/VT are token chars), trim
    strips spaces only (leading tab -> empty leading field)."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    import __ray_entry__ as entry
    from analiticcl_ray.pipelines.text import doc_stats, quality_signals

    texts = ["a b", "\ta b", "a\x0bb", "a b", "a\x85b",
             "x  y ", " lead", ""]
    pdf = pd.DataFrame(
        {"doc_id": list(range(len(texts))), "text": texts,
         "lang": ["en"] * len(texts),
         "n_chars": [len(t) for t in texts]}
    )
    ds = rd.from_pandas(pdf)
    con = duckdb.connect()
    con.register("documents", pdf)
    osql = entry.oracle_sql()

    eng = {r["doc_id"]: r["n_tokens"] for r in doc_stats(ds).take_all()}
    ora = con.execute(osql["doc_stats"]).df().set_index("doc_id")["n_tokens"].to_dict()
    assert eng == ora
    # NBSP is NOT a separator; leading tab yields the empty field
    assert eng[0] == 1 and eng[1] == 3 and eng[2] == 1

    eng_q = {r["doc_id"]: (r["n_tokens"], r["stopword_ratio"])
             for r in quality_signals(ds).take_all()}
    ora_q = {int(r.doc_id): (int(r.n_tokens), float(r.stopword_ratio))
             for r in con.execute(osql["quality_signals"]).df().itertuples()}
    assert eng_q == ora_q


def test_testinput_has_unk(ray_session):
    """M8: per-document encodability check (reference `analiticcl
    testinput`, src/bin/analiticcl.rs:1007-1023)."""
    import ray.data as rd

    from analiticcl_ray.pipelines.text import testinput

    ds = rd.from_items(
        [
            {"doc_id": 1, "text": "all lower case words."},
            {"doc_id": 2, "text": "Uppercase Folds Fine,"},
            {"doc_id": 3, "text": "d1gits & symbols!"},
        ]
    )
    out = {r["doc_id"]: (r["has_unk"], r["n_unk"]) for r in testinput(ds).take_all()}
    assert out[1] == (False, 0)
    assert out[2] == (False, 0)
    assert out[3] == (True, 3)  # '1', '&', '!'


def test_simhash_near_dup_close(ray_session):
    import ray.data as rd

    from analiticcl_ray.image.codec import hamming64
    from analiticcl_ray.pipelines.text import simhash_fingerprints

    base = "the quick brown fox jumps over the lazy dog again and again today"
    ds = rd.from_items(
        [
            {"doc_id": 0, "text": base},
            {"doc_id": 1, "text": base.replace("quick", "quikc")},
            {"doc_id": 2, "text": "entirely different words compose this unrelated document body"},
        ]
    )
    out = {r["doc_id"]: r["simhash"] for r in simhash_fingerprints(ds).take_all()}
    near = hamming64(np.array([out[0]]), np.array([out[1]]))[0]
    far = hamming64(np.array([out[0]]), np.array([out[2]]))[0]
    assert near < far
    assert near <= 12


def test_lang_id_heuristics(ray_session):
    # NB: the driver documents table's `lang` column is a synthetic label
    # with no textual signal (all rows share the same English-ish word
    # pool), so accuracy is asserted on real-language samples instead.
    import ray.data as rd

    from analiticcl_ray.pipelines.text import lang_id

    ds = rd.from_items(
        [
            {"doc_id": 0, "text": "the value of the table is in the row"},
            {"doc_id": 1, "text": "le chat est sur la table et les livres"},
            {"doc_id": 2, "text": "der hund und die katze ist ein tier"},
            {"doc_id": 3, "text": "el perro y el gato es un animal para todos"},
            {"doc_id": 4, "text": "这是一个中文文档的示例文本内容展示"},
        ]
    )
    pred = {r["doc_id"]: r["pred_lang"] for r in lang_id(ds).take_all()}
    assert pred == {0: "en", 1: "fr", 2: "de", 3: "es", 4: "zh"}


def test_ann_lsh_recall_vs_bruteforce(emb):
    from analiticcl_ray.pipelines.ann import cosine_topk, lsh_bucketed_topk

    qids = list(range(10))
    exact = {(r["query_id"], r["neighbor_id"]) for r in cosine_topk(emb, qids, 5).take_all()}
    # these synthetic embeddings have no angular clustering (true top-k
    # neighbors sit at ~65 deg), so recall needs short codes + many
    # tables: P[hit] = 1-(1-(1-theta/pi)^4)^16 ~ 0.95 at theta=65deg
    approx = {
        (r["query_id"], r["neighbor_id"])
        for r in lsh_bucketed_topk(emb, qids, 5, n_planes=4, n_tables=16).take_all()
    }
    recall = len(exact & approx) / len(exact)
    assert recall >= 0.8


def test_cosine_dup_pairs_lsh_recall(emb):
    """LSH candidates + exact verify vs the exact block-pair cross
    product: no false positives ever; recall ~1 at 2 planes × 32
    tables."""
    from analiticcl_ray.pipelines.ann import cosine_dup_pairs, cosine_dup_pairs_lsh

    exact = {(r["a"], r["b"]) for r in cosine_dup_pairs(emb, threshold=0.4).take_all()}
    approx = {
        (r["a"], r["b"]) for r in cosine_dup_pairs_lsh(emb, threshold=0.4).take_all()
    }
    assert approx <= exact
    if exact:
        assert len(approx & exact) / len(exact) >= 0.95


def test_cosine_topk_excludes_self(emb):
    from analiticcl_ray.pipelines.ann import cosine_topk

    rows = cosine_topk(emb, [3], 5).take_all()
    assert len(rows) == 5
    assert all(r["neighbor_id"] != 3 for r in rows)
    assert [r["rank"] for r in sorted(rows, key=lambda r: r["rank"])] == [0, 1, 2, 3, 4]


def test_cosine_topk_tie_break_deterministic(ray_session):
    """21 identical vectors split across blocks: the per-block cut must
    keep tied smaller-id neighbors (cos desc, vec_id asc contract) —
    an argpartition cut would drop an arbitrary tied subset."""
    import ray.data as rd

    from analiticcl_ray.pipelines.ann import cosine_topk

    rows = [
        {"vec_id": i, "embedding": [1.0, 0.0, 0.0], "label": 0}
        for i in range(21)
    ]
    ds = rd.from_items(rows).repartition(4)
    got = sorted(
        (r["rank"], r["neighbor_id"])
        for r in cosine_topk(ds, [0], 5).take_all()
    )
    assert got == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


def test_gather_queries_missing_id_raises(ray_session, emb):
    from analiticcl_ray.pipelines.ann import cosine_topk

    with pytest.raises(ValueError, match="999999"):
        cosine_topk(emb, [0, 999999], 5).take_all()


def test_window_agg_counts(ray_session):
    import ray.data as rd

    from analiticcl_ray.pipelines.events import tumbling_window_agg

    ev = rd.read_parquet("/root/testdata/sf0.001/events.parquet")
    out = tumbling_window_agg(ev).to_pandas()
    assert out["n_events"].sum() == ev.count()
    assert (out["window_start"] % 3600 == 0).all()


def test_sessionize_gap_semantics(ray_session):
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.events import sessionize

    ts = pd.to_datetime(
        ["2026-01-01 00:00:00", "2026-01-01 00:10:00", "2026-01-01 02:00:00"]
    )
    ev = rd.from_pandas(
        pd.DataFrame({"user_id": [1, 1, 1], "ts": ts, "value": [1.0, 2.0, 3.0]})
    )
    out = sessionize(ev, gap_s=1800).to_pandas().sort_values("session_start")
    assert len(out) == 2
    assert out.iloc[0]["n_events"] == 2
    assert out.iloc[1]["n_events"] == 1


def test_event_transitions_golden(ray_session):
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.events import event_transitions

    ts = pd.to_datetime(
        [
            "2026-01-01 00:00:00", "2026-01-01 00:01:00",  # u1: a->b
            "2026-01-01 00:00:30",                          # tie-free middle
            "2026-01-01 00:02:00",                          # u1: ...->a
            "2026-01-01 05:00:00",                          # u2 single event
        ]
    )
    ev = rd.from_pandas(
        pd.DataFrame(
            {
                "event_id": [10, 11, 12, 13, 14],
                "user_id": [1, 1, 1, 1, 2],
                "ts": ts,
                "event_type": ["a", "b", "c", "a", "z"],
            }
        )
    )
    # u1 time order: a(00:00) c(00:30) b(01:00) a(02:00) -> a->c, c->b, b->a
    out = {
        (r["src_type"], r["dst_type"]): r["n"]
        for r in event_transitions(ev).take_all()
    }
    assert out == {("a", "c"): 1, ("c", "b"): 1, ("b", "a"): 1}


def test_user_activity_stats_golden(ray_session):
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.events import user_activity_stats

    ts = pd.to_datetime(
        ["2026-01-01 00:00:00", "2026-01-01 00:01:00", "2026-01-01 00:05:00",
         "2026-01-01 09:00:00"]
    )
    ev = rd.from_pandas(
        pd.DataFrame(
            {
                "event_id": [1, 2, 3, 4],
                "user_id": [7, 7, 7, 8],
                "ts": ts,
                "event_type": ["a", "a", "b", "c"],
            }
        )
    )
    out = {r["user_id"]: r for r in user_activity_stats(ev).take_all()}
    u7 = out[7]
    assert u7["n_events"] == 3 and u7["n_types"] == 2
    assert u7["span_us"] == 300 * 1_000_000
    assert u7["max_gap_us"] == 240 * 1_000_000  # 00:01 -> 00:05
    u8 = out[8]
    assert u8["n_events"] == 1 and u8["max_gap_us"] == -1
    assert u8["span_us"] == 0


def test_hopping_window_membership(ray_session):
    """Every event lands in exactly window/hop windows, each window
    covers the event, and totals equal the tumbling aggregate's."""
    import ray.data as rd

    from analiticcl_ray.pipelines.events import hopping_window_agg

    ev = rd.read_parquet("/root/testdata/sf0.001/events.parquet")
    n = ev.count()
    out = hopping_window_agg(ev, window_s=3600, hop_s=900).to_pandas()
    assert out["n_events"].sum() == 4 * n
    assert (out["window_start"] % 900 == 0).all()

    # brute-force membership oracle on a single user slice
    import pandas as pd

    one = ev.filter(expr="user_id == 1").to_pandas()
    sec = (one["ts"] - pd.Timestamp(0)) // pd.Timedelta(seconds=1)
    want = {}
    for s in sec:
        for k in range(4):
            w = (s // 900 - k) * 900
            assert w <= s < w + 3600
            want[w] = want.get(w, 0) + 1
    got = dict(
        zip(
            out[out["user_id"] == 1]["window_start"],
            out[out["user_id"] == 1]["n_events"],
        )
    )
    assert got == want


def test_asof_join_semantics(ray_session):
    """Backward as-of with exact-match inclusion, date-tie broken to the
    max o_orderkey, and -1/-0.0 coalesce for unmatched events."""
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.events import asof_join_orders

    ts = pd.to_datetime(
        ["2026-01-10", "2026-01-01", "2025-01-01"]
    )  # event 2 predates every order
    ev = rd.from_pandas(
        pd.DataFrame({"event_id": [10, 11, 12], "user_id": [1, 1, 1], "ts": ts})
    )
    od = pd.to_datetime(["2026-01-01", "2026-01-01", "2026-01-05"])
    orders = rd.from_pandas(
        pd.DataFrame(
            {
                "o_orderkey": [7, 9, 8],
                "o_custkey": [1, 1, 1],
                "o_orderdate": od,
                "o_totalprice": [70.0, 90.0, 80.0],
            }
        )
    )
    out = (
        asof_join_orders(ev, orders)
        .to_pandas()
        .set_index("event_id")
        .sort_index()
    )
    assert out.loc[10, "o_orderkey"] == 8  # latest at/before 01-10
    assert out.loc[11, "o_orderkey"] == 9  # exact-date match, tie -> max key
    assert out.loc[12, "o_orderkey"] == -1  # no order yet
    assert out.loc[12, "o_totalprice"] == 0.0


def test_top_docs_per_group_combiner(ray_session):
    """Group-wise top-k stays exact when groups span many blocks (the
    per-block partial must not drop a global winner) and on ties."""
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import top_docs_per_group

    df = pd.DataFrame(
        {
            "doc_id": range(100),
            "lang": ["a" if i % 2 == 0 else "b" for i in range(100)],
            "n_chars": [i // 2 for i in range(100)],  # pairwise ties
        }
    )
    out = top_docs_per_group(
        rd.from_pandas(df).repartition(10), k=3, group_col="lang"
    ).to_pandas()
    want = (
        df.sort_values(["n_chars", "doc_id"], ascending=[False, True])
        .groupby("lang")
        .head(3)
    )
    assert (
        out.sort_values(["lang", "doc_id"]).reset_index(drop=True)[
            ["doc_id", "lang", "n_chars"]
        ].equals(
            want.sort_values(["lang", "doc_id"]).reset_index(drop=True)[
                ["doc_id", "lang", "n_chars"]
            ]
        )
    )


def test_cooccurrence_window_semantics(ray_session):
    """Window-3 unordered pair counts vs a brute-force per-doc oracle,
    incl. repeat-word self-pairs and cross-doc isolation."""
    from collections import Counter

    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import cooccurrence_counts

    texts = ["a b a c", "c c d", "x"]
    docs = rd.from_pandas(
        pd.DataFrame({"doc_id": [1, 2, 3], "text": texts})
    )
    want = Counter()
    for t in texts:
        ws = t.split()
        for i in range(len(ws)):
            for d in range(1, 4):
                if i + d < len(ws):
                    want[tuple(sorted((ws[i], ws[i + d])))] += 1
    out = cooccurrence_counts(docs, window=3).to_pandas()
    got = {(r.w1, r.w2): r.cnt for r in out.itertuples()}
    assert got == dict(want)


def test_range_join_semantics(ray_session):
    """Interval self-join: inclusive 30-day bound, each unordered pair
    exactly once (date ties by key order), cross-key isolation."""
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.events import range_join_repeat_orders

    od = pd.to_datetime(
        ["2026-01-01", "2026-01-31", "2026-02-05", "2026-01-01", "2026-01-10"]
    )
    orders = rd.from_pandas(
        pd.DataFrame(
            {
                # cust 1: k1..k3 — (1,2) gap 30 in, (1,3) gap 35 out,
                # (2,3) gap 5 in; cust 2: k4 same date as cust-1's k1
                # (no cross-key pair), k5 gap 9 in; tie test: k6 shares
                # k4's date -> (4,6) once, by key order
                "o_orderkey": [1, 2, 3, 4, 5],
                "o_custkey": [1, 1, 1, 2, 2],
                "o_orderdate": od,
            }
        ).assign(o_totalprice=0.0)
    )
    out = range_join_repeat_orders(orders, window_days=30).to_pandas()
    got = set(zip(out["o_orderkey_a"], out["o_orderkey_b"]))
    assert got == {(1, 2), (2, 3), (4, 5)}
    gaps = dict(zip(zip(out["o_orderkey_a"], out["o_orderkey_b"]), out["gap_days"]))
    assert gaps[(1, 2)] == 30 and gaps[(2, 3)] == 5 and gaps[(4, 5)] == 9


def test_exact_dup_clusters(ray_session):
    """Content-hash pairs -> equality verify -> distributed CC: clusters
    equal the SQL window-min oracle, incl. schema-stable empty output."""
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import exact_dup_clusters

    texts = ["alpha beta", "gamma delta", "alpha beta", "epsilon", "gamma delta",
             "alpha beta", "zeta eta theta"]
    pdf = pd.DataFrame({"doc_id": range(len(texts)), "text": texts,
                        "lang": ["en"] * len(texts),
                        "n_chars": [len(t) for t in texts]})
    out = exact_dup_clusters(rd.from_pandas(pdf)).to_pandas()
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got == {0: 0, 2: 0, 5: 0, 1: 1, 4: 1}

    # empty case keeps the (doc_id, cluster_id) schema on the Dataset
    # (Ray's to_pandas drops empty blocks, so check Dataset.schema();
    # the __ray_entry__ wrapper returns a typed Arrow table instead)
    pdf2 = pd.DataFrame({"doc_id": [0, 1], "text": ["unique one", "unique two"],
                         "lang": ["en"] * 2, "n_chars": [10, 10]})
    ds2 = exact_dup_clusters(rd.from_pandas(pdf2))
    assert ds2.count() == 0
    assert ds2.schema().names == ["doc_id", "cluster_id"]


def test_near_dup_clusters_transitive(ray_session):
    """A ~ B and B ~ C but A !~ C must still land in ONE cluster."""
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import near_dup_clusters

    a = "the quick brown fox jumps over the lazy dog near the river bank today"
    b = a.replace("quick", "quicc")          # very close to a
    c = b.replace("river", "rivxr")          # close to b, farther from a
    d = "completely different text with no overlap whatsoever in any gram"
    pdf = pd.DataFrame({"doc_id": [10, 11, 12, 13], "text": [a, b, c, d],
                        "lang": ["en"] * 4, "n_chars": [len(t) for t in [a, b, c, d]]})
    out = near_dup_clusters(rd.from_pandas(pdf), threshold=0.75).to_pandas()
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got.get(10) == 10 and got.get(11) == 10 and got.get(12) == 10
    assert 13 not in got


def test_ann_ivf_recall_vs_bruteforce(emb):
    """IVF (k-means lists + nprobe probing + exact re-rank) recall@5
    vs the brute-force baseline; nprobe/nlist=1/2 of the corpus scored."""
    from analiticcl_ray.pipelines.ann import cosine_topk, ivf_topk

    qids = list(range(10))
    exact = {(r["query_id"], r["neighbor_id"]) for r in cosine_topk(emb, qids, 5).take_all()}
    approx = {
        (r["query_id"], r["neighbor_id"])
        for r in ivf_topk(emb, qids, 5, nlist=16, nprobe=8).take_all()
    }
    recall = len(exact & approx) / len(exact)
    assert recall >= 0.7, recall


def test_kmeans_centroids_deterministic(emb):
    import numpy as np

    from analiticcl_ray.pipelines.ann import kmeans_centroids

    c1 = kmeans_centroids(emb, nlist=8, iters=2)
    c2 = kmeans_centroids(emb, nlist=8, iters=2)
    assert np.array_equal(c1, c2)
    assert np.allclose(np.linalg.norm(c1, axis=1), 1.0)


def test_kmeans_centroids_block_layout_invariant(emb, ray_session):
    """Partial-merge correctness (code-review r2): per-block partials
    repeat every centroid id, so the driver merge must ACCUMULATE
    (np.add.at), not fancy-index-assign. A layout-dependent merge
    yields different centroids when the same rows arrive in a
    different number of blocks."""
    import numpy as np

    from analiticcl_ray.pipelines.ann import kmeans_centroids

    one = kmeans_centroids(emb.repartition(1), nlist=8, iters=2)
    many = kmeans_centroids(emb.repartition(7), nlist=8, iters=2)
    # BIT-identical, not allclose: integer nano-sum accumulation makes
    # the fold associative (round 5 — the kmeans handoff-oracle basis)
    assert np.array_equal(one, many)


def test_token_counts_re_oracle_parity(ray_session):
    """BPE-ish regex pre-tokenizer counts match the DuckDB
    regexp_extract_all oracle exactly (punct, digits, mixed)."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    import __ray_entry__ as entry
    from analiticcl_ray.pipelines.text import token_counts_re

    pdf = pd.DataFrame(
        {"doc_id": [0, 1, 2], "text": [
            "hello, world! it's 42 degrees... maybe-not",
            "a1b2!c  spaced\ttabbed",
            "",
        ], "lang": ["en"] * 3, "n_chars": [42, 20, 0]}
    )
    got = (
        token_counts_re(rd.from_pandas(pdf)).to_pandas()
        .sort_values("token").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", pdf)
    want = (
        con.execute(entry.oracle_sql()["token_counts_re"]).df()
        .sort_values("token").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))
    assert int(got.set_index("token").loc["'", "cnt"]) == 1


def test_simhash_dup_pairs_complete(ray_session):
    """Band-slice candidates + exact hamming verify equals brute-force
    hamming over the simhash column (pigeonhole completeness k<bands)."""
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import simhash_dup_pairs, simhash_fingerprints

    base = "the quick brown fox jumps over the lazy dog near the river bank today"
    texts = [base, base.replace("quick", "quikc"), base.replace("dog", "dot"),
             "a wholly different document about database engines and shuffles",
             base + " ok", "short"]
    pdf = pd.DataFrame({"doc_id": range(len(texts)), "text": texts,
                        "lang": ["en"] * len(texts),
                        "n_chars": [len(t) for t in texts]})
    ds = rd.from_pandas(pdf)
    sims = {r["doc_id"]: r["simhash"] for r in simhash_fingerprints(ds).take_all()}

    def ham(a, b):
        return bin((a ^ b) & ((1 << 64) - 1)).count("1")

    k = 6
    want = {
        (i, j): ham(sims[i], sims[j])
        for i in sims for j in sims if i < j and ham(sims[i], sims[j]) <= k
    }
    got = {
        (r["a"], r["b"]): r["hamming"]
        for r in simhash_dup_pairs(ds, max_hamming=k, n_bands=8).take_all()
    }
    assert got == want
    assert len(want) >= 2


def test_ngram_jaccard_dense_matches_sparse(docs):
    """Strategy switch: dense bitset-matmul path and forced-sparse
    prefix path produce bit-identical pairs and jaccard values."""
    from analiticcl_ray.pipelines.text import ngram_jaccard_pairs

    dense = sorted(
        (r["a"], r["b"], r["jaccard"])
        for r in ngram_jaccard_pairs(docs, threshold=0.8).take_all()
    )
    sparse = sorted(
        (r["a"], r["b"], r["jaccard"])
        for r in ngram_jaccard_pairs(docs, threshold=0.8, dense_vocab_limit=0).take_all()
    )
    assert dense == sparse
    assert len(dense) > 0


def test_top_docs_order_and_limit(docs):
    from analiticcl_ray.pipelines.text import doc_stats, top_docs

    out = top_docs(docs, k=10).to_pandas()
    assert len(out) == 10
    # deterministic total order: n_tokens desc, doc_id asc
    assert (out["n_tokens"].to_numpy()[:-1] >= out["n_tokens"].to_numpy()[1:]).all()
    allstats = doc_stats(docs).to_pandas()
    assert out["n_tokens"].iloc[0] == allstats["n_tokens"].max()


def test_doc_label_join_inner(ray_session):
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import doc_label_join

    pdf = pd.DataFrame({"doc_id": [0, 1, 2], "text": ["a b", "c d e", "f"],
                        "lang": ["en"] * 3, "n_chars": [3, 5, 1]})
    emb = pd.DataFrame({"vec_id": [0, 2], "label": [7, 9]})
    out = doc_label_join(rd.from_pandas(pdf), rd.from_pandas(emb)).to_pandas()
    got = {(r.doc_id, r.n_tokens, r.label) for r in out.itertuples()}
    assert got == {(0, 2, 7), (2, 1, 9)}  # doc 1 dropped (inner join)


def test_decontaminate_flags_overlap(ray_session):
    """Train docs sharing a long span with an eval doc are flagged with
    the exact distinct-shared-gram count; clean docs are absent."""
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import decontaminate

    leak = "the secret benchmark answer is forty two exactly"
    train = pd.DataFrame({
        "doc_id": [1, 2],
        "text": [f"some filler then {leak} and more filler", "totally clean document"],
        "lang": ["en"] * 2, "n_chars": [10, 10],
    })
    ev = pd.DataFrame({
        "doc_id": [100],
        "text": f"unrelated prefix {leak} unrelated suffix",
        "lang": ["en"], "n_chars": [10],
    })
    out = decontaminate(
        rd.from_pandas(train), rd.from_pandas(ev), n=16
    ).to_pandas()
    got = dict(zip(out["doc_id"], out["n_shared"]))
    assert 1 in got and 2 not in got
    # shared distinct 16-grams of " {leak} " window: len(leak)+2-16+1... at
    # least the interior grams of the common " <leak> " span
    assert got[1] >= len(leak) - 16 + 1


def test_token_counts_re_unicode_whitespace_parity(ray_session):
    """Python \\s is Unicode-aware, RE2's is ASCII-only — the explicit
    ASCII whitespace class keeps engine and oracle identical on U+00A0."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    import __ray_entry__ as entry
    from analiticcl_ray.pipelines.text import token_counts_re

    pdf = pd.DataFrame(
        {"doc_id": [0], "text": ["a b"], "lang": ["en"], "n_chars": [3]}
    )
    got = (
        token_counts_re(rd.from_pandas(pdf)).to_pandas()
        .sort_values("token").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", pdf)
    want = (
        con.execute(entry.oracle_sql()["token_counts_re"]).df()
        .sort_values("token").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))
    assert " " in set(got["token"])  # NBSP is a symbol token in BOTH


def test_repetition_stats_edge_cases(ray_session):
    import ray.data as rd

    from analiticcl_ray.pipelines.text import repetition_stats

    ds = rd.from_items(
        [
            {"doc_id": 0, "text": ""},                    # empty: all zeros
            {"doc_id": 1, "text": "word"},                # 1 token: no 2-grams
            {"doc_id": 2, "text": "a a a a"},             # all same: top=1, dup=1
            {"doc_id": 3, "text": "a b a b a"},           # top 3/5; 2grams ab,ba,ab,ba
            {"doc_id": 4, "text": "x y z"},               # all distinct
        ]
    )
    out = {r["doc_id"]: r for r in repetition_stats(ds).take_all()}
    assert out[0]["n_tokens"] == 0 and out[0]["top_word_frac"] == 0.0
    assert out[1]["dup_2gram_frac"] == 0.0
    assert out[2]["top_word_frac"] == 1.0
    assert out[2]["dup_2gram_frac"] == (3 - 1) / 3
    assert out[3]["top_word_frac"] == 3 / 5
    assert out[3]["dup_2gram_frac"] == (4 - 2) / 4
    assert out[4]["top_word_frac"] == 1 / 3
    assert out[4]["dup_2gram_frac"] == 0.0


def test_lexical_stats_edge_cases(ray_session):
    import math

    import ray.data as rd

    from analiticcl_ray.pipelines.text import lexical_stats

    ds = rd.from_items(
        [
            {"doc_id": 0, "text": ""},            # no tokens: row dropped
            {"doc_id": 1, "text": "word"},        # 1 type: ttr=1, entropy=0
            {"doc_id": 2, "text": "a a a a"},     # all same: ttr=1/4, H=0
            {"doc_id": 3, "text": "a b a b"},     # uniform 2 types: H=1 bit
            {"doc_id": 4, "text": "x y z"},       # all hapax
            {"doc_id": 5, "text": "a a b"},       # H = -(2/3 lg 2/3 + 1/3 lg 1/3)
        ]
    )
    out = {r["doc_id"]: r for r in lexical_stats(ds).take_all()}
    assert set(out) == {1, 2, 3, 4, 5}  # empty doc dropped
    assert out[1]["n_types"] == 1 and out[1]["ttr"] == 1.0
    assert out[1]["n_hapax"] == 1 and out[1]["entropy"] == 0.0
    assert out[2]["ttr"] == 1 / 4 and out[2]["n_hapax"] == 0
    assert out[2]["entropy"] == 0.0
    assert out[3]["entropy"] == 1.0 and out[3]["hapax_frac"] == 0.0
    assert out[4]["ttr"] == 1.0 and out[4]["hapax_frac"] == 1.0
    assert abs(out[4]["entropy"] - math.log2(3)) < 1e-8
    h5 = -(2 / 3 * math.log2(2 / 3) + 1 / 3 * math.log2(1 / 3))
    assert abs(out[5]["entropy"] - h5) < 1e-8
    assert out[5]["n_hapax"] == 1 and out[5]["n_tokens"] == 3


def test_sample_docs_deterministic_subset(docs):
    from analiticcl_ray.pipelines.text import sample_docs

    a = sorted(r["doc_id"] for r in sample_docs(docs, pct=10).take_all())
    b = sorted(r["doc_id"] for r in sample_docs(docs, pct=10).take_all())
    wider = set(r["doc_id"] for r in sample_docs(docs, pct=50).take_all())
    n = docs.count()
    assert a == b  # deterministic across runs
    assert set(a) <= wider  # nested: pct=10 subset of pct=50
    assert 0.02 * n < len(a) < 0.25 * n  # ~10%, loose bounds


def test_balanced_sample_equalizes_langs(docs):
    import pandas as pd

    from analiticcl_ray.pipelines.text import balanced_sample

    kept = balanced_sample(docs).to_pandas()
    full = docs.select_columns(["lang"]).to_pandas()["lang"].value_counts()
    mn = int(full.min())
    per = kept["lang"].value_counts()
    # every language present, kept counts concentrate near the rarest
    # language's count (hash sampling: binomial around mn)
    assert set(per.index) == set(full.index)
    assert (per <= full[per.index]).all()
    assert (per >= max(1, int(0.5 * mn))).all()
    assert (per <= 1.5 * mn + 10).all()


def test_doc_freq_golden(ray_session):
    import math

    import ray.data as rd

    from analiticcl_ray.pipelines.text import doc_freq

    ds = rd.from_items(
        [
            {"doc_id": 0, "text": "apple apple banana"},   # df counts once
            {"doc_id": 1, "text": "banana cherry"},
            {"doc_id": 2, "text": "cherry date"},
        ]
    )
    out = {r["token"]: r for r in doc_freq(ds).take_all()}
    assert {t: r["df"] for t, r in out.items()} == {
        "apple": 1, "banana": 2, "cherry": 2, "date": 1
    }
    assert abs(out["banana"]["idf"] - math.log(3 / 2)) < 1e-12
    # min_df prunes the tail
    out2 = {r["token"] for r in doc_freq(ds, min_df=2).take_all()}
    assert out2 == {"banana", "cherry"}


def test_tfidf_top_terms_small_oracle(ray_session):
    import math

    import ray.data as rd

    from analiticcl_ray.pipelines.text import tfidf_top_terms

    ds = rd.from_items(
        [
            {"doc_id": 0, "text": "apple apple banana"},
            {"doc_id": 1, "text": "banana cherry"},
            {"doc_id": 2, "text": "cherry date date date"},
        ]
    )
    out = tfidf_top_terms(ds, k=2).to_pandas()
    by_doc = {d: g.sort_values("tfidf", ascending=False) for d, g in out.groupby("doc_id")}
    # doc 0: apple tf=2 df=1 -> 2*ln(3); banana tf=1 df=2 -> ln(1.5)
    g0 = by_doc[0]
    assert list(g0["token"]) == ["apple", "banana"]
    # numpy's vectorized log may differ from scalar libm by 1 ulp —
    # the oracle gate rounds floats to 9 decimals, so isclose here
    assert math.isclose(g0["tfidf"].iloc[0], 2 * math.log(3 / 1), rel_tol=1e-12)
    assert math.isclose(g0["tfidf"].iloc[1], 1 * math.log(3 / 2), rel_tol=1e-12)
    # doc 2: date tf=3 df=1 dominates cherry tf=1 df=2
    assert list(by_doc[2]["token"]) == ["date", "cherry"]
    # k bound respected everywhere
    assert out.groupby("doc_id").size().max() <= 2


def test_simhasher_paths_agree(ray_session):
    """Dense counts@signs, byte-LUT reduceat, and wide-n fallback all
    reproduce the per-gram md5 sign-sum reference construction."""
    import hashlib
    import random

    import pyarrow as pa

    from analiticcl_ray.pipelines.text import _SimHasher

    def ref(t, n):
        grams = [t[j:j + n] for j in range(len(t) - n + 1)] or [t]
        acc = np.zeros(64, dtype=np.int64)
        for g in grams:
            h = int.from_bytes(hashlib.md5(g.encode()).digest()[:8], "little")
            for b in range(64):
                acc[b] += 1 if (h >> b) & 1 else -1
        v = np.uint64(0)
        for b in range(64):
            if acc[b] > 0:
                v |= np.uint64(1) << np.uint64(b)
        return int(np.int64(v.view(np.int64)))

    random.seed(11)
    texts = [
        "".join(random.choice("abcdef 中é") for _ in range(random.randint(0, 40)))
        for _ in range(50)
    ]
    batch = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    for n in (3, 4):  # n=4 -> 84-bit pack, exercises the wide-n loop
        want = [ref(t, n) for t in texts]
        assert _SimHasher(n)(batch)["simhash"].to_pylist() == want
    lut = _SimHasher(3)
    lut.dense_limit = 1  # force the byte-LUT reduceat path
    assert lut(batch)["simhash"].to_pylist() == [ref(t, 3) for t in texts]


def test_lm_perplexity_matches_reference_lm(ray_session):
    """lm_perplexity reproduces BigramLM.score_tokens (T9 semantics,
    src/lib.rs:2632-2674) per document, including the smoothing branch
    (train_mod=2 leaves odd-doc transitions unseen), empty docs
    ([BOS,EOS] = one transition), and nano-int order independence."""
    import math

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.pipelines.text import _LM_BOS, _LM_EOS, lm_perplexity

    texts = [
        "the cat sat on the mat",
        "the cat ran",
        "a dog  ran fast",
        "",
        "   ",
        "the the the",
        "unique words appearing once only",
        "the cat sat on the mat",
    ]
    ids = list(range(len(texts)))
    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    )
    for train_mod in (None, 2):
        got = (
            lm_perplexity(docs, train_mod=train_mod)
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        counts: dict = {}
        for i, t in zip(ids, texts):
            if train_mod is not None and i % train_mod:
                continue
            seq = [_LM_BOS, *t.split(), _LM_EOS]
            for tok in seq:
                counts[(tok,)] = counts.get((tok,), 0) + 1
            for a, b in zip(seq, seq[1:]):
                counts[(a, b)] = counts.get((a, b), 0) + 1
        saw_smoothing = False
        for i, t in zip(ids, texts):
            seq = [_LM_BOS, *t.split(), _LM_EOS]
            nano = 0
            for a, b in zip(seq, seq[1:]):
                pr = counts.get((a,), 1)
                j = counts.get((a, b))
                if j is None:
                    nano += -13815510558
                    saw_smoothing = True
                elif pr < j:
                    nano += int(np.round(math.log(j) * 1e9))
                else:
                    nano += int(np.round(math.log(j / pr) * 1e9))
            n = len(seq) - 1
            lp = nano / 1e9
            row = got.loc[i]
            assert row["n_transitions"] == n
            assert row["logprob"] == lp
            assert row["perplexity"] == -lp / n
        if train_mod == 2:
            assert saw_smoothing  # the held-out half exercises smoothing


def test_shared_span_pairs_matches_sql_oracle(docs):
    """Winnow-candidate + exact-verify output equals the DuckDB raw
    substring self-join (the operator is exact, not approximate)."""
    import duckdb

    from analiticcl_ray.pipelines.text import shared_span_pairs

    got = sorted(
        (r["src_id"], r["dst_id"]) for r in shared_span_pairs(docs, min_span=30).take_all()
    )
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        "read_parquet('/root/testdata/sf0.001/documents.parquet')"
    )
    want = sorted(
        tuple(r)
        for r in con.execute(
            """
            WITH g AS (
              SELECT doc_id, substr(text, CAST(i AS INT), 30) AS gram
              FROM documents, unnest(generate_series(1, length(text) - 29)) AS t(i)
              WHERE length(text) >= 30
            )
            SELECT DISTINCT a.doc_id, b.doc_id
            FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
            """
        ).fetchall()
    )
    assert got == want


def test_shared_span_pairs_guarantee_boundary(ray_session):
    """A shared span of exactly min_span chars is found; max-29-char
    overlap is excluded (exact semantics on both sides of the bound)."""
    import ray.data as rd

    from analiticcl_ray.pipelines.text import shared_span_pairs

    span30 = "0123456789abcdefghijklmnopqrs!"  # 30 chars
    assert len(span30) == 30
    rows = [
        {"doc_id": 0, "text": "AAA " + span30 + " tail zero"},
        {"doc_id": 1, "text": "unrelated prefix " + span30 + "BBBB"},
        # prefix must not end with doc 0/1's pre-span char (space), or
        # the overlap would extend back to 30 chars
        {"doc_id": 2, "text": "CCC_" + span30[:-1] + "_different ending here"},
        {"doc_id": 3, "text": "no overlap at all in this document body"},
    ]
    got = sorted(
        (r["src_id"], r["dst_id"])
        for r in shared_span_pairs(rd.from_items(rows), min_span=30).take_all()
    )
    assert got == [(0, 1)]


def test_quality_signals_oracle_parity(ray_session):
    """Gopher-style stopword/punct/alpha ratios: engine vs the DuckDB
    oracle, bit-identical, incl. empty / punct-heavy / unicode docs."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    import __ray_entry__ as entry
    from analiticcl_ray.pipelines.text import quality_signals

    pdf = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5],
            "text": [
                "",
                "the quick brown fox AND a dog!!!",
                "?!?,.;:",
                "münchen strasse ÄÖÜ 42",
                "  \t  ",
            ],
        }
    )
    got = (
        quality_signals(rd.from_pandas(pdf))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", pdf)
    want = (
        con.execute(entry.oracle_sql()["quality_signals"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)[got.columns]
    )
    pd.testing.assert_frame_equal(got, want, check_exact=True)
    row2 = got.set_index("doc_id").loc[2]
    assert row2["n_stopwords"] == 3  # the, AND->and, a
    assert row2["n_punct_chars"] == 3  # !!!
    assert got.set_index("doc_id").loc[1]["stopword_ratio"] == 0.0


def test_near_dup_keep_flags(ray_session):
    """keep = True exactly for component representatives (min doc_id)
    and docs in no verified pair; every doc gets exactly one row."""
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import near_dup_clusters, near_dup_keep

    a = "the quick brown fox jumps over the lazy dog near the river bank today"
    b = a.replace("quick", "quicc")
    c = b.replace("river", "rivxr")
    d = "completely different text with no overlap whatsoever in any gram"
    pdf = pd.DataFrame({"doc_id": [10, 11, 12, 13], "text": [a, b, c, d],
                        "lang": ["en"] * 4, "n_chars": [len(t) for t in [a, b, c, d]]})
    ds = rd.from_pandas(pdf)
    keep = near_dup_keep(ds, threshold=0.75).to_pandas()
    assert sorted(keep["doc_id"]) == [10, 11, 12, 13]
    got = dict(zip(keep["doc_id"], keep["keep"]))
    # cluster {10,11,12} keeps only its min id; untouched 13 keeps itself
    assert got == {10: True, 11: False, 12: False, 13: True}
    # consistency with the cluster assignment
    cl = near_dup_clusters(ds, threshold=0.75).to_pandas()
    reps = set(cl["cluster_id"])
    for doc, cid in zip(cl["doc_id"], cl["cluster_id"]):
        assert got[doc] == (doc == cid)
    assert reps <= {d for d, k in got.items() if k}


def test_column_quantiles_matches_ceil_rank(docs):
    """Histogram-fold quantiles == sorted value at 1-based rank
    ceil(q*N) (DuckDB quantile_disc semantics), vs numpy brute force."""
    from analiticcl_ray.pipelines.text import column_quantiles

    qs = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)
    out = column_quantiles(docs, col="n_chars", qs=qs).to_pandas()
    vals = np.sort(docs.to_pandas()["n_chars"].to_numpy())
    n = len(vals)
    expect = {q: int(vals[max(int(np.ceil(q * n)), 1) - 1]) for q in qs}
    got = dict(zip(out["q"], out["value"]))
    assert got == {float(q): v for q, v in expect.items()}


def test_semantic_keep_matches_clusters(emb):
    """keep = True exactly for component reps (min vec_id) and
    unclustered vectors; one row per vector."""
    from analiticcl_ray.pipelines.ann import cosine_dup_clusters, semantic_keep

    keep = semantic_keep(emb, threshold=0.4).to_pandas()
    assert len(keep) == emb.count()
    got = dict(zip(keep["vec_id"], keep["keep"]))
    cl = cosine_dup_clusters(emb, threshold=0.4).to_pandas()
    clustered = set(cl["vec_id"])
    for vid, cid in zip(cl["vec_id"], cl["cluster_id"]):
        assert got[vid] == (vid == cid)
    for vid, k in got.items():
        if vid not in clustered:
            assert k


def test_fold_text_matches_duckdb():
    """fold_text == DuckDB trim(regexp_replace(lower(x),'[^a-z0-9]+',' ','g'))
    on tricky inputs (Unicode case mapping, NBSP, digits, empties)."""
    import duckdb
    import pandas as pd

    from analiticcl_ray.pipelines.text import fold_text

    cases = [
        "Hello, World!", "  MIXED-case_42  ", "", "   ", "!!!",
        "Ångström Über STRASSE ß", "İstanbul", "a b c",
        "tabs\tand\nnewlines", "ALL CAPS 99", "émigré café", "ΣΙΓΜΑ Σ ς",
    ]
    got = fold_text(pd.Series(cases, dtype=object)).tolist()
    con = duckdb.connect()
    df = pd.DataFrame({"x": cases})
    want = con.execute(
        "SELECT trim(regexp_replace(lower(x), '[^a-z0-9]+', ' ', 'g')) FROM df"
    ).fetchall()
    con.close()
    assert got == [w[0] for w in want]


def test_normalized_dedup_folds_case_and_punct(ray_session):
    import ray.data as rd

    from analiticcl_ray.pipelines.text import normalized_dedup

    ds = rd.from_items(
        [
            {"doc_id": 10, "text": "Hello, World!"},
            {"doc_id": 3, "text": "hello world"},
            {"doc_id": 7, "text": "HELLO   world..."},
            {"doc_id": 5, "text": "something else"},
        ]
    )
    out = normalized_dedup(ds).to_pandas().set_index("norm_text")
    assert out.loc["hello world", "rep_id"] == 3
    assert out.loc["hello world", "n_dups"] == 3
    assert out.loc["something else", "n_dups"] == 1


def test_incremental_dedup_exact_semi_join(ray_session):
    """Brute-force parity on a corpus with planted cross-side dups, at a
    deliberately tiny Bloom (m_bits=256 for ~200 distinct keys, k=2) so
    false positives are ~guaranteed — the exact join must remove every
    one; Bloom no-false-negatives keeps recall exact."""
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import incremental_dedup

    rng = np.random.default_rng(7)
    texts = [f"doc body {i}" for i in range(100)]
    snap = pd.DataFrame(
        {"doc_id": np.arange(0, 200, 2, dtype=np.int64),
         "text": [texts[rng.integers(0, 100)] for _ in range(100)]}
    )
    # incoming: half planted dups of snapshot texts, half fresh
    inc_texts = [texts[rng.integers(0, 100)] for _ in range(50)] + [
        f"fresh text {i}" for i in range(50)
    ]
    rng.shuffle(inc_texts)
    inc = pd.DataFrame(
        {"doc_id": np.arange(1, 201, 2, dtype=np.int64), "text": inc_texts}
    )

    got = (
        incremental_dedup(
            rd.from_pandas(inc), rd.from_pandas(snap), m_bits=256
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = (
        inc.merge(snap, on="text", suffixes=("", "_s"))
        .groupby("doc_id", as_index=False)["doc_id_s"].min()
        .rename(columns={"doc_id_s": "snap_rep"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(want) > 0  # the plant worked
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_text_bloom_no_false_negatives(ray_session):
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import bloom_probe, text_bloom
    import ray

    df = pd.DataFrame(
        {"doc_id": np.arange(64, dtype=np.int64),
         "text": [f"member {i}" for i in range(64)]}
    )
    ds = rd.from_pandas(df)
    bloom = ray.put(text_bloom(ds, m_bits=1 << 14))
    kept = bloom_probe(ds, bloom, 1 << 14).to_pandas()
    assert len(kept) == 64  # every member passes its own filter


def test_source_mix_weights(docs):
    from analiticcl_ray.pipelines.text import oracle_tokens, source_mix

    out = source_mix(docs).to_pandas().set_index("source")
    pdf = docs.to_pandas()
    ntok = oracle_tokens(pdf["text"]).str.len()
    want = pdf.assign(n=ntok).groupby("source")["n"].agg(["size", "sum"])
    assert abs(out["weight"].sum() - 1.0) < 1e-12
    for src, row in want.iterrows():
        assert out.loc[src, "n_docs"] == row["size"]
        assert out.loc[src, "n_tokens"] == row["sum"]
        assert out.loc[src, "weight"] == row["sum"] / want["sum"].sum()


def test_dup_ngram_fraction_brute_force(ray_session):
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import dup_ngram_fraction

    rows = [
        {"doc_id": 1, "text": "a b c d e"},        # grams abc bcd cde
        {"doc_id": 2, "text": "a b c x y"},        # shares 'a b c' with 1
        {"doc_id": 3, "text": "q r s t"},          # unique
        {"doc_id": 4, "text": "a b c d e"},        # exact dup of 1
        {"doc_id": 5, "text": "xx yy"},            # < n tokens: no rows
    ]
    got = (
        dup_ngram_fraction(rd.from_items(rows), n=3)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # brute force
    grams = {}
    for r in rows:
        t = r["text"].split()
        gs = {" ".join(t[i:i + 3]) for i in range(len(t) - 2)}
        if gs:
            grams[r["doc_id"]] = gs
    df = {}
    for gs in grams.values():
        for g in gs:
            df[g] = df.get(g, 0) + 1
    assert sorted(got.index) == sorted(grams)
    for d, gs in grams.items():
        sh = sum(df[g] >= 2 for g in gs)
        assert got.loc[d, "n_grams"] == len(gs)
        assert got.loc[d, "n_shared"] == sh
        assert got.loc[d, "shared_frac"] == sh / len(gs)


def test_pricing_summary_cents_golden(ray_session):
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.relational import pricing_summary

    li = rd.from_pandas(
        pd.DataFrame(
            {
                "l_returnflag": ["A", "A", "N"],
                "l_linestatus": ["F", "F", "O"],
                "l_quantity": [10.0, 20.0, 5.0],
                "l_extendedprice": [100.10, 200.25, 50.00],
                "l_discount": [0.05, 0.10, 0.0],
                "l_tax": [0.0, 0.10, 0.02],
                "l_shipdate": pd.to_datetime(
                    ["1996-01-01", "1997-01-01", "1999-01-01"]
                ),
            }
        )
    )
    out = {
        (r["l_returnflag"], r["l_linestatus"]): r
        for r in pricing_summary(li, cutoff="1998-09-02").take_all()
    }
    assert set(out) == {("A", "F")}  # 1999 row filtered by cutoff
    af = out[("A", "F")]
    assert af["n_rows"] == 2
    assert af["sum_qty_c"] == 3000
    assert af["sum_base_c"] == 10010 + 20025
    # double-column semantics (what the parquet tables hold): the
    # product is computed in binary floats BEFORE quantization, so
    # 100.10*(1-0.05) = 95.09499999999998 -> 9509 (NOT the decimal
    # 95.095 -> 9510); DuckDB on DOUBLE columns computes the same.
    assert af["sum_disc_c"] == 9509 + 18023
    # 200.25*0.9*1.1 = 198.2475 exactly -> half-away -> 19825
    assert af["sum_charge_c"] == 9509 + 19825


def test_revenue_by_nation_inner_join(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.pipelines.relational import revenue_by_nation

    orders = rd.from_pandas(
        pd.DataFrame(
            {
                "o_custkey": [1, 2, 2, 99],  # 99 has no customer row
                "o_totalprice": [10.00, 20.00, 30.00, 1000.00],
            }
        )
    )
    customer = pa.table({"c_custkey": [1, 2], "c_nationkey": [0, 1]})
    nation = pa.table({"n_nationkey": [0, 1], "n_name": ["AAA", "BBB"]})
    out = {
        r["n_name"]: r
        for r in revenue_by_nation(orders, customer, nation).take_all()
    }
    assert set(out) == {"AAA", "BBB"}  # orphan order dropped (inner join)
    assert out["AAA"]["n_orders"] == 1 and out["AAA"]["revenue_c"] == 1000
    assert out["BBB"]["n_orders"] == 2 and out["BBB"]["revenue_c"] == 5000


def test_grouped_quantiles_golden(ray_session):
    import ray.data as rd

    from analiticcl_ray.pipelines.text import grouped_quantiles

    rows = [{"doc_id": i, "lang": "a", "n_chars": v}
            for i, v in enumerate([10, 20, 30, 40])]
    rows += [{"doc_id": 100 + i, "lang": "b", "n_chars": v}
             for i, v in enumerate([5, 7])]
    out = {
        (r["lang"], r["q"]): r["value"]
        for r in grouped_quantiles(
            rd.from_items(rows), qs=(0.5, 1.0)
        ).take_all()
    }
    # discrete quantile: value at 1-based rank ceil(q*N) per group
    assert out[("a", 0.5)] == 20 and out[("a", 1.0)] == 40
    assert out[("b", 0.5)] == 5 and out[("b", 1.0)] == 7


def test_pmi_scores_golden(ray_session):
    import math

    import ray.data as rd

    from analiticcl_ray.pipelines.text import pmi_scores

    # one doc "x y", one doc "x z": pairs (x,y):1, (x,z):1; unigrams
    # x:2 y:1 z:1; T_pair=2, T_tok=4
    ds = rd.from_items(
        [{"doc_id": 0, "text": "x y"}, {"doc_id": 1, "text": "x z"}]
    )
    out = {(r["w1"], r["w2"]): r for r in pmi_scores(ds, window=3).take_all()}
    assert set(out) == {("x", "y"), ("x", "z")}
    want = math.log((1 / 2) / ((2 / 4) * (1 / 4)))
    assert abs(out[("x", "y")]["pmi"] - want) < 1e-12
    assert out[("x", "y")]["cnt"] == 1


def test_char_ngram_counts_golden(ray_session):
    import ray.data as rd

    from analiticcl_ray.pipelines.text import char_ngram_counts

    ds = rd.from_items(
        [
            {"doc_id": 0, "text": "abcab"},  # abc bca cab
            {"doc_id": 1, "text": "abc"},    # abc
            {"doc_id": 2, "text": "xy"},     # too short: no grams
        ]
    )
    out = {r["gram"]: r["cnt"] for r in char_ngram_counts(ds, n=3).take_all()}
    assert out == {"abc": 2, "bca": 1, "cab": 1}


def test_top_terms_rank_and_ties(ray_session):
    import ray.data as rd

    from analiticcl_ray.pipelines.text import top_terms

    ds = rd.from_items(
        [
            {"doc_id": 0, "text": "b b a a c"},
            {"doc_id": 1, "text": "b d"},
        ]
    )
    rows = sorted(top_terms(ds, k=3).take_all(), key=lambda r: r["rank"])
    # b:3, a:2, c:1, d:1 -> tie at cnt=1 broken by token asc (c before d)
    assert [(r["token"], r["cnt"], r["rank"]) for r in rows] == [
        ("b", 3, 1), ("a", 2, 2), ("c", 1, 3)
    ]


def test_lang_confusion_counts(ray_session):
    import ray.data as rd

    from analiticcl_ray.pipelines.text import lang_confusion

    ds = rd.from_items(
        [
            {"doc_id": 0, "lang": "en", "text": "the value of the table"},
            {"doc_id": 1, "lang": "en", "text": "zzz qqq www"},  # -> unknown
            {"doc_id": 2, "lang": "fr", "text": "le la les et un"},
        ]
    )
    out = {
        (r["true_lang"], r["pred_lang"]): r["n"]
        for r in lang_confusion(ds).take_all()
    }
    assert out == {("en", "en"): 1, ("en", "unknown"): 1, ("fr", "fr"): 1}


def test_chunk_docs_boundaries(ray_session):
    import ray.data as rd

    from analiticcl_ray.pipelines.text import chunk_docs

    ds = rd.from_items(
        [
            {"doc_id": 1, "text": "t1 t2 t3 t4 t5"},  # window 2 -> 3 chunks
            {"doc_id": 2, "text": "   "},             # empty -> no chunks
            {"doc_id": 3, "text": "only"},
        ]
    )
    out = chunk_docs(ds, window=2).to_pandas()
    out = out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    assert list(out["doc_id"]) == [1, 1, 1, 3]
    assert list(out["chunk_id"]) == [0, 1, 2, 0]
    assert list(out["chunk_text"]) == ["t1 t2", "t3 t4", "t5", "only"]
    assert list(out["n_tokens"]) == [2, 2, 1, 1]


def test_chunk_docs_reconstructs_tokens(docs):
    from analiticcl_ray.pipelines.text import chunk_docs, oracle_tokens

    out = chunk_docs(docs, window=7).to_pandas()
    rebuilt = (
        out.sort_values(["doc_id", "chunk_id"])
        .groupby("doc_id")["chunk_text"]
        .agg(" ".join)
    )
    full = docs.select_columns(["doc_id", "text"]).to_pandas()
    toks = oracle_tokens(full["text"]).str.join(" ")
    expect = dict(zip(full["doc_id"], toks))
    for did, joined in rebuilt.items():
        assert joined == expect[did]


def test_pack_sequences_is_global_prefix_sum(docs):
    import numpy as np

    from analiticcl_ray.pipelines.text import oracle_tokens, pack_sequences

    # force several blocks so offsets must cross block boundaries;
    # small bucket_shift so many cogroups exercise the merge
    out = (
        pack_sequences(docs.repartition(7), seq_len=16, bucket_shift=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    full = docs.select_columns(["doc_id", "text"]).to_pandas()
    n = oracle_tokens(full["text"]).str.len().to_numpy(dtype=np.int64)
    ref = (
        full.assign(n=n)[lambda d: d["n"] > 0]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    off = ref["n"].cumsum().shift(1, fill_value=0).to_numpy(dtype=np.int64)
    assert list(out["doc_id"]) == list(ref["doc_id"])
    assert list(out["tok_offset"]) == list(off)
    assert list(out["first_seq"]) == list(off // 16)
    assert list(out["last_seq"]) == list((off + ref["n"].to_numpy() - 1) // 16)


def test_split_assign_partitions_everything(docs):
    from analiticcl_ray.pipelines.text import oracle_tokens, split_assign

    out = split_assign(docs).to_pandas().set_index("split")
    assert set(out.index) <= {"train", "val", "test"}
    assert int(out["n_docs"].sum()) == docs.count()
    full_tokens = int(
        oracle_tokens(docs.select_columns(["text"]).to_pandas()["text"])
        .str.len()
        .sum()
    )
    assert int(out["n_tokens"].sum()) == full_tokens
    # ~90/5/5 with loose bounds
    assert out.loc["train", "n_docs"] > 0.7 * docs.count()


def test_quantize_stats_known_vectors(ray_session):
    import ray.data as rd

    from analiticcl_ray.pipelines.ann import quantize_stats

    ds = rd.from_items(
        [
            {"vec_id": 0, "embedding": [0.0, 0.0, 0.0]},      # all-zero
            {"vec_id": 1, "embedding": [1.0, -1.0, 0.5]},     # sat both ends
            {"vec_id": 2, "embedding": [2.0, 0.0, -0.25]},
        ]
    )
    out = quantize_stats(ds).to_pandas().set_index("vec_id").sort_index()
    assert out.loc[0, "code_sum"] == 0 and out.loc[0, "n_zero"] == 3
    assert out.loc[0, "n_sat"] == 0
    # vec 1: codes 127, -127, 64 (floor(63.5+0.5))
    assert out.loc[1, "code_sum"] == 64 and out.loc[1, "n_sat"] == 2
    # vec 2: codes 127, 0, -16 (floor(-15.875+0.5) = -16)
    assert out.loc[2, "code_sum"] == 111
    assert out.loc[2, "n_sat"] == 1 and out.loc[2, "n_zero"] == 1


def test_length_histogram_buckets(ray_session):
    import ray.data as rd

    from analiticcl_ray.pipelines.text import length_histogram

    ds = rd.from_items(
        [
            {"doc_id": 0, "text": ""},                 # 0 tokens -> bucket 0
            {"doc_id": 1, "text": "a"},                # 1 -> bucket 1 [1,1]
            {"doc_id": 2, "text": "a b c"},            # 3 -> bucket 2 [2,3]
            {"doc_id": 3, "text": "a b c d e f g h"},  # 8 -> bucket 4 [8,15]
        ]
    )
    out = length_histogram(ds).to_pandas().set_index("bucket_bits").sort_index()
    assert list(out.index) == [0, 1, 2, 4]
    assert out.loc[2, "lo"] == 2 and out.loc[2, "hi"] == 3
    assert out.loc[4, "lo"] == 8 and out.loc[4, "hi"] == 15
    assert int(out["n_docs"].sum()) == 4
    assert int(out["n_tokens"].sum()) == 12


def test_dup_rate_by_source_consistent_with_keep(docs):
    from analiticcl_ray.pipelines.text import dup_rate_by_source, near_dup_keep

    out = dup_rate_by_source(docs).to_pandas()
    keep = near_dup_keep(docs).to_pandas()
    src = docs.select_columns(["doc_id", "source"]).to_pandas()
    ref = keep.merge(src, on="doc_id")
    assert int(out["n_docs"].sum()) == docs.count()
    total_dropped = int((~ref["keep"]).sum())
    assert int(out["n_dropped"].sum()) == total_dropped
    per_src = ref.groupby("source")["keep"].agg(lambda s: int((~s).sum()))
    got = out.set_index("source")["n_dropped"]
    for s, v in per_src.items():
        assert got.get(s, 0) == v


def test_funnel_counts_greedy_order(ray_session):
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.events import funnel_counts

    t0 = pd.Timestamp("2024-01-01")
    s = pd.Timedelta(seconds=1)
    rows = [
        # user 1 completes the full funnel in order
        {"user_id": 1, "ts": t0 + 1 * s, "event_type": "view"},
        {"user_id": 1, "ts": t0 + 2 * s, "event_type": "click"},
        {"user_id": 1, "ts": t0 + 3 * s, "event_type": "purchase"},
        # user 2: click BEFORE first view -> stops at stage 1
        {"user_id": 2, "ts": t0 + 5 * s, "event_type": "click"},
        {"user_id": 2, "ts": t0 + 6 * s, "event_type": "view"},
        # user 3: purchase before click -> stops at stage 2
        {"user_id": 3, "ts": t0 + 1 * s, "event_type": "view"},
        {"user_id": 3, "ts": t0 + 2 * s, "event_type": "purchase"},
        {"user_id": 3, "ts": t0 + 3 * s, "event_type": "click"},
        # user 4: never views
        {"user_id": 4, "ts": t0 + 1 * s, "event_type": "purchase"},
    ]
    out = (
        funnel_counts(rd.from_items(rows))
        .to_pandas()
        .set_index("stage")
        .sort_index()
    )
    assert list(out["step"]) == ["view", "click", "purchase"]
    assert list(out["n_users"]) == [3, 2, 1]


def test_retention_cohorts_offsets(ray_session):
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.events import retention_cohorts

    d = pd.Timedelta(days=1)
    t0 = pd.Timestamp("2024-01-01")
    rows = [
        # user 1: cohort day0, active day0 + day2 (two events same day
        # count once)
        {"user_id": 1, "ts": t0},
        {"user_id": 1, "ts": t0 + pd.Timedelta(hours=3)},
        {"user_id": 1, "ts": t0 + 2 * d},
        # user 2: cohort day1, active day1 only
        {"user_id": 2, "ts": t0 + d},
    ]
    day0 = (t0 - pd.Timestamp(0)) // d
    out = (
        retention_cohorts(rd.from_items(rows))
        .to_pandas()
        .sort_values(["cohort_day", "day_offset"])
        .reset_index(drop=True)
    )
    got = list(zip(out["cohort_day"], out["day_offset"], out["n_users"]))
    assert got == [(day0, 0, 1), (day0, 2, 1), (day0 + 1, 0, 1)]


def test_prep_corpus_matches_brute_force(ray_session):
    """The end-to-end prep composition (quality gate -> exact dedup ->
    near dedup -> splitmix split -> per-(split,source) rollup) matches
    a driver-side pandas brute force on a corpus engineered to hit
    every stage: a quality reject, an exact-dup pair, a near-dup
    triple, a whitespace-only doc, multiple sources."""
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import oracle_tokens, prep_corpus
    from analiticcl_ray.stages.signatures import splitmix64

    base = ("the quick brown fox jumps over the lazy dog near the "
            "clear river bank today while birds sing above the old "
            "stone bridge and wind moves softly through green trees")
    near1 = base.replace("quick", "quicc")
    near2 = base.replace("river", "rivxr")
    rows = [
        (1, base, "sA"),
        (2, near1, "sA"),          # near-dup of 1
        (3, near2, "sB"),          # near-dup of 1 (transitive via grams)
        (4, base, "sB"),           # exact dup of 1 -> dropped at stage 2
        (5, "short doc", "sA"),    # quality reject: < 20 tokens
        (6, "a a a a a a a a a a a a a a a a a a a a a a", "sB"),
        #    ^ 22 tokens but distinct_ratio 1/22 < 0.3 -> reject
        (7, "   \t ", "sA"),       # whitespace-only -> reject
        (8, "every one of these twenty distinct plain words appears "
            "exactly once so this document clears both quality gates "
            "comfortably today", "sB"),
    ]
    pdf = pd.DataFrame(rows, columns=["doc_id", "text", "source"])
    got = (
        prep_corpus(rd.from_pandas(pdf), min_tokens=20, threshold=0.8)
        .to_pandas()
        .sort_values(["split", "source"])
        .reset_index(drop=True)
    )

    # brute force
    toks = oracle_tokens(pdf["text"])
    nt = toks.str.len()
    nd = toks.apply(lambda t: len(set(t)))
    q = pdf[(nt >= 20) & (nd / nt.clip(lower=1) >= 0.3)].copy()
    q["n_tokens"] = nt[q.index]
    q = q[q.groupby("text")["doc_id"].transform("min") == q["doc_id"]]

    def grams(t):
        return {t[i:i + 3] for i in range(len(t) - 2)}

    gs = {r.doc_id: grams(r.text) for r in q.itertuples()}
    parent = {d: d for d in gs}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    ids = sorted(gs)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            inter = len(gs[a] & gs[b])
            if inter / (len(gs[a]) + len(gs[b]) - inter) >= 0.8:
                ra, rb = find(a), find(b)
                parent[max(ra, rb)] = min(ra, rb)
    q = q[[find(d) == d for d in q["doc_id"]]]
    hv = splitmix64(q["doc_id"].to_numpy(dtype=np.uint64)) % np.uint64(1000)
    q["split"] = np.where(hv < 900, "train", np.where(hv < 950, "val", "test"))
    want = (
        q.groupby(["split", "source"])
        .agg(n_docs=("doc_id", "size"), n_tokens=("n_tokens", "sum"))
        .reset_index()
        .astype({"n_docs": np.int64, "n_tokens": np.int64})
        .sort_values(["split", "source"])
        .reset_index(drop=True)
    )
    # stage assertions baked into the fixture: 4 (exact dup), 5/6/7
    # (quality) and two of {1,2,3} (near-dup) are gone
    assert set(q["doc_id"]) == {1, 8}
    pd.testing.assert_frame_equal(got[want.columns], want, check_exact=True)


def test_chunk_dedup_global_first_occurrence(ray_session):
    """An occurrence of a chunk survives iff it is the global first
    (min doc_id, then min chunk_id); within-doc repeats drop too; docs
    whose every chunk is seen earlier get NULL text_kept; empty docs
    emit no row."""
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import chunk_dedup

    A = " ".join(f"a{i}" for i in range(4))   # chunk A
    B = " ".join(f"b{i}" for i in range(4))   # chunk B
    C = " ".join(f"c{i}" for i in range(4))   # chunk C
    pdf = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                f"{A} {B} {A}",   # A, B, then A again (within-doc repeat)
                f"{B} {C}",       # B seen in doc 1 -> dropped; C kept
                f"{A} {B}",       # nothing new -> all dropped
                "",               # empty -> no output row
            ],
        }
    )
    out = (
        chunk_dedup(rd.from_pandas(pdf), window=4)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert list(out.index) == [1, 2, 3]
    assert out.loc[1, "n_chunks"] == 3 and out.loc[1, "n_kept"] == 2
    assert out.loc[1, "text_kept"] == f"{A} {B}"
    assert out.loc[2, "n_chunks"] == 2 and out.loc[2, "n_kept"] == 1
    assert out.loc[2, "text_kept"] == C
    assert out.loc[3, "n_kept"] == 0 and pd.isna(out.loc[3, "text_kept"])
    assert out.loc[3, "n_tokens_kept"] == 0
    assert out.loc[1, "n_tokens_kept"] == 8


def test_source_overlap_matrix(ray_session):
    """Diagonal = per-source distinct texts; off-diagonal = distinct
    texts shared by the pair; duplicate docs collapse first."""
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.text import source_overlap

    pdf = pd.DataFrame(
        {
            "doc_id": range(7),
            "text": ["t1", "t1", "t2", "t1", "t3", "t2", "t3"],
            "source": ["A", "A", "A", "B", "B", "C", "B"],
        }
    )
    out = source_overlap(rd.from_pandas(pdf)).to_pandas()
    got = {
        (r.source_a, r.source_b): r.n_shared_texts for r in out.itertuples()
    }
    # A={t1,t2}, B={t1,t3}, C={t2}
    assert got == {
        ("A", "A"): 2, ("B", "B"): 2, ("C", "C"): 1,
        ("A", "B"): 1, ("A", "C"): 1,
    }


def test_shipping_priority_matches_duckdb(ray_session):
    """Q3-shaped big-big cogroup join == DuckDB on the sf0.001 tables
    (exact cent revenue, deterministic revenue-desc/orderkey-asc
    top-10)."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    import __ray_entry__ as entry
    from analiticcl_ray.pipelines.relational import shipping_priority

    sf = "/root/testdata/sf0.001"
    got = shipping_priority(
        rd.read_parquet(f"{sf}/lineitem.parquet"),
        rd.read_parquet(f"{sf}/orders.parquet"),
        pq.read_table(f"{sf}/customer.parquet"),
    ).to_pandas()
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf}/{t}.parquet')"
        )
    want = con.execute(entry.oracle_sql()["shipping_priority"]).df()
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        want[got.columns].reset_index(drop=True),
        check_exact=True,
        check_dtype=False,
    )


def test_shipping_priority_empty_segment(ray_session):
    """ADVICE r2: a segment matching no customers must yield an empty
    result, not IndexError from indexing the empty broadcast LUT."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from analiticcl_ray.pipelines.relational import shipping_priority

    sf = "/root/testdata/sf0.001"
    got = shipping_priority(
        rd.read_parquet(f"{sf}/lineitem.parquet"),
        rd.read_parquet(f"{sf}/orders.parquet"),
        pq.read_table(f"{sf}/customer.parquet"),
        segment="NO_SUCH_SEGMENT",
    ).to_pandas()
    assert len(got) == 0


def test_label_centroids_exact_sums(ray_session):
    """Nano-quantized per-(label, dim) sums equal a numpy brute force
    regardless of batch/block partitioning."""
    import pandas as pd
    import ray.data as rd

    from analiticcl_ray.pipelines.ann import label_centroids

    rng = np.random.default_rng(7)
    n, d = 100, 5
    emb = rng.standard_normal((n, d)).astype(np.float32)
    labels = rng.integers(0, 3, n)
    ds = rd.from_items(
        [
            {"vec_id": i, "embedding": emb[i].tolist(), "label": int(labels[i])}
            for i in range(n)
        ]
    ).repartition(7)
    out = (
        label_centroids(ds)
        .to_pandas()
        .sort_values(["label", "dim"])
        .reset_index(drop=True)
    )
    q = np.floor(emb.astype(np.float64) * 1e9 + 0.5).astype(np.int64)
    for lab in range(3):
        sub = q[labels == lab]
        got = out[out["label"] == lab]
        assert (got["n_vecs"] == len(sub)).all()
        assert list(got["sum_q"]) == list(sub.sum(axis=0))


def _duck_parity(name, got, tables, sf="/root/testdata/sf0.001"):
    import duckdb
    import pandas as pd

    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf}/{t}.parquet')"
        )
    want = con.execute(entry.oracle_sql()[name]).df()
    cols = list(got.columns)
    g = got.sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_exact=True, check_dtype=False)


def test_local_supplier_volume_matches_duckdb(ray_session):
    """Q5-shaped six-table join == DuckDB at sf0.001: dims pre-resolved
    to broadcast nat_key LUTs, nation equality folded into the
    cogroup join key."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from analiticcl_ray.pipelines.relational import local_supplier_volume

    sf = "/root/testdata/sf0.001"
    got = local_supplier_volume(
        rd.read_parquet(f"{sf}/lineitem.parquet"),
        rd.read_parquet(f"{sf}/orders.parquet"),
        pq.read_table(f"{sf}/customer.parquet"),
        pq.read_table(f"{sf}/supplier.parquet"),
        pq.read_table(f"{sf}/nation.parquet"),
        pq.read_table(f"{sf}/region.parquet"),
    ).to_pandas()
    _duck_parity(
        "local_supplier_volume",
        got,
        ["lineitem", "orders", "customer", "supplier", "nation", "region"],
    )


def test_promo_revenue_matches_duckdb(ray_session):
    """Q14-shaped promo share == DuckDB at sf0.001 (exact cent sums +
    one deterministic final division)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from analiticcl_ray.pipelines.relational import promo_revenue

    sf = "/root/testdata/sf0.001"
    got = promo_revenue(
        rd.read_parquet(f"{sf}/lineitem.parquet"),
        pq.read_table(f"{sf}/part.parquet"),
    ).to_pandas()
    assert got["total_rev_c"].iloc[0] > 0
    _duck_parity("promo_revenue", got, ["lineitem", "part"])


def test_kmeans_assign_matches_local_reference(ray_session):
    """Distributed deterministic k-means assignment == the shared
    single-process reference (kmeans_assign_table_local), exactly —
    including the nano-quantized cosine and cluster sizes. The
    integer-sum centroid update (round 5) makes this BIT-identity, not
    allclose: it is the identity the kmeans_assign handoff oracle
    certifies at the driver gate."""
    import ray.data as rd

    from analiticcl_ray.pipelines.ann import (
        kmeans_assign,
        kmeans_assign_table_local,
    )

    sf = "/root/testdata/sf0.001"
    emb_ds = rd.read_parquet(f"{sf}/embeddings.parquet")
    nlist, iters, seed = 8, 3, 0x5EED
    out = (
        kmeans_assign(emb_ds, nlist=nlist, iters=iters, seed=seed)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )

    df = emb_ds.to_pandas().sort_values("vec_id")
    X = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    want = (
        kmeans_assign_table_local(
            df["vec_id"].to_numpy(), X, nlist=nlist, iters=iters, seed=seed
        )
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert list(out["cluster"]) == list(want["cluster"])
    assert list(out["cluster_size"]) == list(want["cluster_size"])
    assert list(out["sim_q"]) == list(want["sim_q"])


# ---------------------------------------------------------------------
# incremental (probe-vs-index) MinHash text near-dup dedup
# ---------------------------------------------------------------------

def _jac_grams(t, n=3):
    return (
        frozenset(t[i : i + n] for i in range(len(t) - n + 1))
        if len(t) >= n
        else frozenset()
    )


def _restricted_bruteforce(df, is_new, threshold=0.8):
    """All (a, b) with a new, b new (a<b) or ref, exact Jaccard >= t."""
    g = {int(r.doc_id): _jac_grams(r.text) for r in df.itertuples()}
    want = {}
    ids = sorted(g)
    for a in ids:
        if not is_new(a):
            continue
        for b in ids:
            if b == a:
                continue
            if is_new(b) and not a < b:
                continue
            u = g[a] | g[b]
            j = len(g[a] & g[b]) / len(u) if u else 0.0
            if j >= threshold:
                want[(a, b)] = j
    return want


def test_incremental_minhash_matches_restricted_bruteforce(docs, monkeypatch):
    """Parity split of the sf0.001 documents table: the probe-vs-index
    op must equal the parity-restricted exact-Jaccard brute force
    (pairs AND values), with src always from the new shard."""
    import pyarrow.compute as pc

    from analiticcl_ray.pipelines.text import (
        incremental_minhash_dedup_pairs,
        minhash_signatures,
    )

    def _half(par):
        def _f(t):
            keep = pc.equal(pc.bit_wise_and(t["doc_id"], 1), par)
            return t.filter(keep).select(["doc_id", "text"])

        return _f

    new = docs.map_batches(_half(1), batch_format="pyarrow")
    ref = docs.map_batches(_half(0), batch_format="pyarrow")
    ref_sigs = minhash_signatures(ref).materialize()
    stats = {}
    out = incremental_minhash_dedup_pairs(
        new, ref_sigs, ref, stats=stats
    ).to_pandas()
    # the fully-distributed tail (driver budget 0) must agree with the
    # local tail (values too, not just the pair set)
    from analiticcl_ray.stages import driver

    monkeypatch.setattr(driver, "DRIVER_BUDGET_BYTES", 0)
    out_dist = incremental_minhash_dedup_pairs(new, ref_sigs, ref).to_pandas()
    got_dist = {
        (int(a), int(b)): j
        for a, b, j in zip(out_dist["a"], out_dist["b"], out_dist["jaccard"])
    }
    got = {(int(a), int(b)): j for a, b, j in zip(out["a"], out["b"], out["jaccard"])}
    assert got == got_dist
    want = _restricted_bruteforce(docs.to_pandas(), lambda i: i % 2 == 1)
    assert set(got) == set(want), (
        f"extra={sorted(set(got) - set(want))[:5]} "
        f"missing={sorted(set(want) - set(got))[:5]}"
    )
    for k, j in want.items():
        assert abs(got[k] - j) < 1e-12
    # src orientation: a is always a new-shard doc
    assert all(a % 2 == 1 for a, _ in got)
    assert stats["dropped_rows"] == 0


def test_incremental_minhash_supersession_and_self_pair(ray_session):
    """A re-ingested id (present in BOTH the persisted index and the
    new shard, text changed) must never self-pair, and every pair it
    joins must be computed from its FRESH text."""
    import ray.data as rd

    from analiticcl_ray.pipelines.text import (
        incremental_minhash_dedup_pairs,
        minhash_signatures,
    )

    base = "the quick brown fox jumps over the lazy dog again and again"
    drift = base.replace("dog", "cat")
    other = "completely unrelated content with nothing shared at all here"
    # ref corpus: id 2 holds the OLD text (== base), id 4 unrelated
    ref = rd.from_items(
        [{"doc_id": 2, "text": base}, {"doc_id": 4, "text": other}]
    )
    # new shard: id 1 matches the OLD text of 2; id 2 re-ingested with
    # drifted text; id 3 matches the drifted text
    new = rd.from_items(
        [
            {"doc_id": 1, "text": base},
            {"doc_id": 2, "text": drift},
            {"doc_id": 3, "text": drift},
        ]
    )
    ref_sigs = minhash_signatures(ref).materialize()
    out = incremental_minhash_dedup_pairs(new, ref_sigs, ref).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(out["a"], out["b"])}
    # no self pair for the superseded id
    assert (2, 2) not in got
    # expected = restricted brute force under SUPERSEDED texts
    texts = {1: base, 2: drift, 3: drift, 4: other}
    df = __import__("pandas").DataFrame(
        {"doc_id": list(texts), "text": list(texts.values())}
    )
    want = _restricted_bruteforce(df, lambda i: i in (1, 2, 3))
    assert got == set(want)
    # sanity: the drifted pair (2, 3) must be there, computed from the
    # fresh text on both sides
    assert (2, 3) in got


def test_incremental_minhash_cap_subset_and_sentinels(ray_session, monkeypatch):
    """Under a tiny cap the op emits a SUBSET of the restricted brute
    force (exact verify -> no false positives) and reports every
    dropped ref row through the sentinel tally."""
    import ray.data as rd

    from analiticcl_ray.pipelines.text import (
        incremental_minhash_dedup_pairs,
        minhash_signatures,
    )

    # 12 near-identical docs -> every band key collides across all rows
    texts = {
        i: "shared boilerplate sentence repeated across the corpus %d" % (i % 2)
        for i in range(12)
    }
    df = __import__("pandas").DataFrame(
        {"doc_id": list(texts), "text": list(texts.values())}
    )
    new = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in texts.items() if i % 2 == 1]
    )
    ref = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in texts.items() if i % 2 == 0]
    )
    ref_sigs = minhash_signatures(ref).materialize()
    stats = {}
    out = incremental_minhash_dedup_pairs(
        new, ref_sigs, ref, cap=4, stats=stats
    ).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(out["a"], out["b"])}
    want = set(_restricted_bruteforce(df, lambda i: i % 2 == 1))
    assert got <= want
    # capped groups keep all new rows: new x new evidence survives
    assert any(a % 2 == 1 and b % 2 == 1 for a, b in got)
    # ref rows were displaced and counted
    assert stats["dropped_rows"] > 0

    # distributed-fallback parity: forcing the over-budget paths (the
    # probe explode AND the verify tail) must not change the output
    # (pytest analog of the multimodal boundary test)
    from analiticcl_ray.stages import driver

    monkeypatch.setattr(driver, "DRIVER_BUDGET_BYTES", 0)
    out2 = incremental_minhash_dedup_pairs(new, ref_sigs, ref, cap=4).to_pandas()
    got2 = {(int(a), int(b)) for a, b in zip(out2["a"], out2["b"])}
    assert got2 == got


def test_incremental_minhash_duplicated_shard_id_never_self_pairs(ray_session):
    """An id appearing TWICE in the new shard (retried batch) must not
    self-pair even on the degenerate all-new salted-chunk path
    (code-review r5)."""
    import ray.data as rd

    from analiticcl_ray.pipelines.text import (
        incremental_minhash_dedup_pairs,
        minhash_signatures,
    )

    t = "identical boilerplate text shared by every row in this shard"
    # 8 rows, one id duplicated; cap=2 forces every band into the
    # all-new salted-chunk path
    rows = [{"doc_id": i, "text": t} for i in (1, 1, 3, 5, 7, 9, 11, 13)]
    new = rd.from_items(rows)
    ref = rd.from_items([{"doc_id": 2, "text": "something else entirely"}])
    ref_sigs = minhash_signatures(ref).materialize()
    out = incremental_minhash_dedup_pairs(
        new, ref_sigs, ref, cap=2
    ).to_pandas()
    assert not ((out["a"] == out["b"]).any())


def test_incremental_minhash_local_tail_gates_fall_through(docs, monkeypatch):
    """The local verify tail stops at each of its two driver-budget
    gates — the pull of the referenced texts, then the dense mask's
    ids x words x 8 bytes, checked before any mask is allocated — and
    falls through to the distributed tail, which gives exactly the
    default path's rows."""
    import pyarrow.compute as pc

    from analiticcl_ray.pipelines import text
    from analiticcl_ray.stages import driver, lsh

    def _half(par):
        def _f(t):
            keep = pc.equal(pc.bit_wise_and(t["doc_id"], 1), par)
            return t.filter(keep).select(["doc_id", "text"])

        return _f

    new = docs.map_batches(_half(1), batch_format="pyarrow")
    ref = docs.map_batches(_half(0), batch_format="pyarrow")
    ref_sigs = text.minhash_signatures(ref).materialize()

    def rows():
        out = text.incremental_minhash_dedup_pairs(new, ref_sigs, ref).to_pandas()
        return sorted(map(tuple, out[["a", "b", "jaccard"]].values.tolist()))

    # the distributed tail is the only caller of dedup_pairs here, the
    # local tail the only one of _gram_masks
    calls = {"dedup_pairs": 0, "_gram_masks": 0}
    for mod, name in ((lsh, "dedup_pairs"), (text, "_gram_masks")):
        real = getattr(mod, name)
        monkeypatch.setattr(
            mod, name,
            lambda *a, _r=real, _n=name, **k: calls.__setitem__(_n, calls[_n] + 1) or _r(*a, **k),
        )
    # every budget check in order: the probe explode, the candidates,
    # the texts pull (one per batch, running total), the dense mask
    seen = []
    real_fits = driver.fits
    monkeypatch.setattr(driver, "fits", lambda nb: seen.append(nb) or real_fits(nb))
    want = rows()
    assert want and calls == {"dedup_pairs": 0, "_gram_masks": 1}
    texts, masks = seen[-2], seen[-1]
    assert texts not in seen[:-2] and masks not in seen[:-1]

    # the texts pull passes the budget, then the dense mask alone: in
    # neither case is a mask allocated
    for gate, n in ((texts, 1), (masks, 2)):
        monkeypatch.setattr(driver, "fits", lambda nb, _g=gate: nb != _g and real_fits(nb))
        assert rows() == want and calls == {"dedup_pairs": n, "_gram_masks": 1}


# ---------------------------------------------------------------------
# exact n-gram Jaccard: every verify engine against one brute force
# ---------------------------------------------------------------------

def _parity_texts():
    """Seeded near-dup families plus the edge rows every engine must
    agree on: a pair at exactly J = 4/5, texts shorter than n, empty
    texts, non-ASCII (incl. astral) codepoints and an exact duplicate."""
    import random

    rng = random.Random(20261019)
    fixed = [
        "abcdef",                                # 4 grams ...
        "abcdefg",                               # ... 5 grams: J = 4/5
        "ab", "ab",                              # shorter than n
        "", "",                                  # empty
        "naïve café über straße, 日本語テキスト 😀 ok",
        "naïve café über straße, 日本語テキスト 😀 ok!",
        "an exact duplicate of this sentence",
        "an exact duplicate of this sentence",
    ]
    alphabet = "abcdeéü日😀 "
    texts = list(fixed)
    for _ in range(30):
        base = [rng.choice(alphabet) for _ in range(rng.randint(25, 60))]
        texts.append("".join(base))
        for _ in range(rng.randint(1, 2)):
            copy = list(base)
            for _ in range(rng.randint(0, 3)):
                copy[rng.randrange(len(copy))] = rng.choice(alphabet)
            texts.append("".join(copy))
    # the fixed rows take ids 1..10, so each of their pairs is split one
    # new (odd), one ref (even) in the incremental test; the rest shuffle
    rest = list(range(len(fixed) + 1, len(texts) + 1))
    rng.shuffle(rest)
    return dict(zip(list(range(1, len(fixed) + 1)) + rest, texts))


def _jaccard_bits(ds):
    """(a, b) -> jaccard float bits of a verified-pairs dataset, after
    checking its schema and that no pair repeats."""
    sch = ds.schema()
    assert sch.names == ["a", "b", "jaccard"]
    assert [str(t) for t in sch.types] == ["int64", "int64", "double"]
    rows = [(int(r["a"]), int(r["b"]), float(r["jaccard"])) for r in ds.take_all()]
    out = {(a, b): j.hex() for a, b, j in rows}
    assert len(out) == len(rows)
    return out


def test_jaccard_engines_match_bruteforce(ray_session, monkeypatch):
    """Every exact-Jaccard path gives the brute force's (a, b, jaccard)
    with equal float bits: ngram_jaccard_pairs dense, sparse with the
    bitmask verify (broadcast and cogroup attach) and sparse with the
    frozenset verify (vocabulary over BITSET_VOCAB_LIMIT),
    minhash_dedup_pairs (both attaches), and both verify tails of
    incremental_minhash_dedup_pairs against the restricted population."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.pipelines import text
    from analiticcl_ray.stages import driver

    texts = _parity_texts()
    tab = pa.table({"doc_id": pa.array(list(texts), pa.int64()),
                    "text": pa.array(list(texts.values()), pa.string())})
    docs = rd.from_arrow([tab.slice(0, 37), tab.slice(37)])
    df = pd.DataFrame({"doc_id": list(texts), "text": list(texts.values())})

    def bits(want):
        return {k: float(j).hex() for k, j in want.items()}

    everything = bits(_restricted_bruteforce(df, lambda i: True))
    assert everything[(1, 2)] == (4 / 5).hex()
    assert (9, 10) in everything and (3, 4) not in everything and (5, 6) not in everything
    assert (7, 8) in everything and len(everything) >= 30

    assert _jaccard_bits(text.ngram_jaccard_pairs(docs)) == everything
    assert _jaccard_bits(text.ngram_jaccard_pairs(docs, dense_vocab_limit=0)) == everything
    assert _jaccard_bits(text.minhash_dedup_pairs(docs)) == everything
    # the masks through the cogroup attach (its pandas round trip)
    sparse_cg = text.ngram_jaccard_pairs(docs, dense_vocab_limit=0, attach_method="cogroup")
    assert _jaccard_bits(sparse_cg) == everything
    assert _jaccard_bits(text.minhash_dedup_pairs(docs, attach_method="cogroup")) == everything

    new = docs.filter(lambda r: r["doc_id"] % 2 == 1)
    ref = docs.filter(lambda r: r["doc_id"] % 2 == 0)
    ref_sigs = text.minhash_signatures(ref).materialize()
    restricted = bits(_restricted_bruteforce(df, lambda i: i % 2 == 1))
    assert (1, 2) in restricted and (9, 10) in restricted
    default = driver.DRIVER_BUDGET_BYTES
    for budget in (default, 0):  # local tail, distributed tail
        monkeypatch.setattr(driver, "DRIVER_BUDGET_BYTES", budget)
        got = text.incremental_minhash_dedup_pairs(new, ref_sigs, ref)
        assert _jaccard_bits(got) == restricted
    monkeypatch.setattr(driver, "DRIVER_BUDGET_BYTES", default)

    monkeypatch.setattr(text, "BITSET_VOCAB_LIMIT", 8)
    assert _jaccard_bits(text.ngram_jaccard_pairs(docs, dense_vocab_limit=0)) == everything
