"""The one driver byte budget (stages/driver.py): with
``DRIVER_BUDGET_BYTES = 0`` every gated op takes its distributed path
and gives the output it gives at the default budget."""

import numpy as np
import pyarrow as pa
import pytest


def _docs():
    base = [
        "the quick brown fox jumps over the lazy dog again and again",
        "completely unrelated content with nothing shared at all here",
        "shared boilerplate sentence repeated across the corpus today",
    ]
    rows = []
    for i in range(12):
        text = base[i % 3]
        if i >= 3:
            text = text.replace(" ", "  ", i % 4)  # near-dup variants
        rows.append({"doc_id": i, "text": text})
    return rows


def _attach(id_filter):
    import ray.data as rd

    from analiticcl_ray.sources.corpus import generate_corpus
    from analiticcl_ray.stages import verify

    corpus = rd.from_arrow(generate_corpus(200, 5))
    pairs = rd.from_arrow(
        pa.table(
            {
                "src_id": ["img00000000", "img00000002", "img00000005"],
                "dst_id": ["img00000001", "img00000003", "img00000007"],
                "capped": [False, True, False],
            }
        )
    )

    def run():
        out = verify.attach_pair_sides(
            pairs, corpus, ["caption"], method="auto", id_filter=id_filter
        )
        return sorted((r["src_id"], r["dst_id"], r["src_caption"], r["dst_caption"])
                      for r in out.take_all())

    return run, verify, "_attach_cogroup", lambda calls: bool(calls)


def _cc():
    import ray.data as rd

    from analiticcl_ray.stages import cc

    edges = rd.from_items(
        [{"src_id": s, "dst_id": d} for s, d in
         (("a", "b"), ("b", "c"), ("d", "e"), ("f", "g"), ("g", "e"))]
    )

    def run():
        labels, _ = cc.cc_auto(edges)
        return sorted((r["image_id"], r["cluster_id"]) for r in labels.take_all())

    return run, cc, "cc_label_propagation", lambda calls: bool(calls)


def _incremental_text():
    import ray.data as rd

    from analiticcl_ray.pipelines.text import incremental_minhash_dedup_pairs, minhash_signatures

    rows = _docs()
    new = rd.from_items([r for r in rows if r["doc_id"] % 2])
    ref = rd.from_items([r for r in rows if not r["doc_id"] % 2])
    ref_sigs = minhash_signatures(ref).materialize()

    def run():
        out = incremental_minhash_dedup_pairs(new, ref_sigs, ref).to_pandas()
        return sorted(map(tuple, out[["a", "b", "jaccard"]].values.tolist()))

    return run


def _probe_text():
    from analiticcl_ray.stages import lsh

    # the distributed explode slices the un-exploded shard (no band column)
    return _incremental_text(), lsh, "_from_slices", lambda calls: any(
        "band" not in a[0].column_names for a, _ in calls
    )


def _text_tail():
    from analiticcl_ray.stages import lsh

    # the distributed verify tail is the op's only dedup_pairs shuffle
    return _incremental_text(), lsh, "dedup_pairs", lambda calls: bool(calls)


def _probe_multimodal():
    import ray.data as rd

    from analiticcl_ray.stages import lsh
    from analiticcl_ray.stages.multimodal import incremental_banded_dup_pairs

    rng = np.random.default_rng(7)
    n = 60
    ids = np.array([f"h{i:03d}" for i in range(n)], dtype=object)
    hashes = rng.integers(-(1 << 62), 1 << 62, size=n).astype(np.int64)
    hashes[10] = hashes[5]
    hashes[21] = hashes[20] ^ (1 << 7)
    is_new = np.arange(n) % 2 == 1

    def tab(m):
        return rd.from_arrow(pa.table({"hid": pa.array(ids[m], pa.string()),
                                       "h": pa.array(hashes[m], pa.int64())}))

    def run():
        out = incremental_banded_dup_pairs(tab(is_new), tab(~is_new), "hid", "h", max_hamming=3)
        return sorted(map(tuple, out.to_pandas().values.tolist()))

    return run, lsh, "_from_slices", lambda calls: any(
        "band" not in a[0].column_names for a, _ in calls
    )


GATED = {
    "attach_auto": lambda: _attach(False),
    "attach_id_filter": lambda: _attach(True),
    "cc_auto": _cc,
    "probe_join_text": _probe_text,
    "probe_join_multimodal": _probe_multimodal,
    "incremental_text_tail": _text_tail,
}


@pytest.mark.parametrize("op", sorted(GATED))
def test_zero_budget_takes_the_distributed_path(ray_session, monkeypatch, op):
    from analiticcl_ray.stages import driver

    run, mod, name, distributed = GATED[op]()
    calls = []
    real = getattr(mod, name)
    monkeypatch.setattr(mod, name, lambda *a, **k: calls.append((a, k)) or real(*a, **k))
    want = run()
    assert want, "fixture must give rows"
    assert not distributed(calls)
    calls.clear()
    monkeypatch.setattr(driver, "DRIVER_BUDGET_BYTES", 0)
    assert run() == want
    assert distributed(calls)


def test_broadcast_lookup_raises_past_the_budget(ray_session, monkeypatch):
    import ray.data as rd

    from analiticcl_ray.stages import driver
    from analiticcl_ray.stages.verify import broadcast_lookup

    corpus = rd.from_items([{"image_id": "a", "caption": "x"}])
    broadcast_lookup(corpus, ["caption"])
    monkeypatch.setattr(driver, "DRIVER_BUDGET_BYTES", 0)
    with pytest.raises(MemoryError, match="driver budget"):
        broadcast_lookup(corpus, ["caption"])
