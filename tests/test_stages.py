"""Unit tests for signature / LSH / substring stage internals (no Ray)."""

import numpy as np
import pyarrow as pa

from analiticcl_ray.config import DedupConfig
from analiticcl_ray.functions.alphabet import Normalizer, simple_alphabet
from analiticcl_ray.stages.lsh import emit_bucket_pairs
from analiticcl_ray.stages.signatures import (
    CaptionSignatures,
    hash_u64,
    phash_band_table,
    splitmix64,
)
from analiticcl_ray.stages.substring import winnow_fingerprints


def _batch(rows):
    return pa.table(
        {
            "image_id": pa.array([r[0] for r in rows], pa.string()),
            "caption": pa.array([r[1] for r in rows], pa.string()),
            "bytes": pa.array([r[2] for r in rows], pa.binary()),
            "phash": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def test_splitmix64_deterministic():
    x = np.arange(5, dtype=np.uint64)
    assert np.array_equal(splitmix64(x), splitmix64(x.copy()))
    assert len(np.unique(splitmix64(x))) == 5


def test_hash_u64():
    assert hash_u64(b"abc") == hash_u64(b"abc")
    assert hash_u64(b"abc") != hash_u64(b"abd")
    assert hash_u64(b"") == hash_u64(b"")


def test_hash_segments_pair_matches_hash_u64():
    """Vectorized column hashing: h1 is bit-identical to the scalar
    hash_u64 across the empty / single-chunk / multi-chunk regimes and
    across sliced + chunked Arrow columns; h2 is deterministic and
    independent (differs across rows where h1 differs)."""
    import numpy as np
    import pyarrow as pa

    from analiticcl_ray.stages.signatures import (
        _column_segments,
        hash_segments_pair,
    )

    rng = np.random.default_rng(3)
    sizes = list(rng.integers(0, 300, 20)) + [0, 1, 65535, 65536, 131071, 131072, 200001]
    vals = [rng.integers(0, 256, size=int(n), dtype=np.uint8).tobytes() for n in sizes]
    col = pa.array(vals, pa.binary())
    h1, h2 = hash_segments_pair(*_column_segments(col), seed=1)
    ref = np.array([hash_u64(v, seed=1) for v in vals], dtype=np.uint64)
    assert (h1 == ref).all()
    r1, r2 = hash_segments_pair(*_column_segments(col), seed=1)
    assert (r1 == h1).all() and (r2 == h2).all()
    # (h1, h2) pairs distinct for distinct inputs at this sample size
    assert len(set(zip(h1.tolist(), h2.tolist()))) == len(set(vals))
    # chunked + sliced columns resolve to the same hashes
    ch = pa.chunked_array([col.slice(0, 5), col.slice(5)])
    c1, _ = hash_segments_pair(*_column_segments(ch), seed=1)
    assert (c1 == ref).all()
    # string columns hash their UTF-8 bytes (== hash_u64 of .encode())
    scol = pa.array(["abc", "", "héllo"], pa.string())
    s1, _ = hash_segments_pair(*_column_segments(scol), seed=0)
    assert s1[0] == np.uint64(hash_u64(b"abc"))
    assert s1[1] == np.uint64(hash_u64(b""))
    assert s1[2] == np.uint64(hash_u64("héllo".encode()))


def test_caption_signatures_identical_rows_share_all_bands():
    sig = CaptionSignatures(DedupConfig())
    b = _batch(
        [
            ("a", "the quick brown fox jumps over the dog", b"x", 1),
            ("b", "the quick brown fox jumps over the dog", b"y", 2),
            ("c", "a completely different caption wording here", b"z", 3),
        ]
    )
    out = sig(b)
    bands = out["bands"].to_pylist()
    assert bands[0] == bands[1]
    shared = len(set(bands[0]) & set(bands[2]))
    assert shared <= 2  # unrelated captions share (almost) no bands


def test_caption_signatures_near_dup_shares_bands():
    sig = CaptionSignatures(DedupConfig())
    cap = "the ancient lantern gleams near the quiet meadow in holland tonight"
    b = _batch([("a", cap, b"x", 1), ("b", cap.replace("gleams", "gleems"), b"y", 2)])
    out = sig(b)
    bands = out["bands"].to_pylist()
    assert len(set(bands[0]) & set(bands[1])) >= 1


def test_content_key_exact_dup():
    sig = CaptionSignatures(DedupConfig())
    b = _batch([("a", "same cap", b"blob", 1), ("b", "same cap", b"blob", 2),
                ("c", "same cap", b"other", 3)])
    out = sig(b)["content_key"].to_pylist()
    assert out[0] == out[1] != out[2]


def test_phash_band_table_pigeonhole():
    # hamming distance 3 with 4 bands -> at least one shared band key
    a = 0b1111000011110000
    bflip = a ^ 0b1  # 1 bit differs
    t = phash_band_table(
        pa.table({"phash": pa.array([a, bflip, ~a], pa.int64())}), 4
    )
    pb = t["phash_bands"].to_pylist()
    assert len(set(pb[0]) & set(pb[1])) >= 3
    assert len(set(pb[0]) & set(pb[2])) == 0


def test_emit_bucket_pairs_small():
    src, dst, capped = emit_bucket_pairs(["b", "a", "c"], cap=10)
    assert not capped
    assert set(zip(src, dst)) == {("a", "b"), ("a", "c"), ("b", "c")}
    assert all(s < d for s, d in zip(src, dst))


def test_emit_bucket_pairs_capped_keeps_connectivity():
    ids = [f"id{i:03d}" for i in range(25)]
    src, dst, capped = emit_bucket_pairs(ids, cap=10)
    assert capped
    # bounded: 3 chunks of <=10 -> <=3*45 + 2 chain links
    assert len(src) <= 3 * 45 + 2
    # connectivity: union-find over emitted pairs joins everything
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in zip(src, dst):
        parent[find(a)] = find(b)
    assert len({find(i) for i in ids}) == 1


def test_emit_bucket_pairs_dedups_input():
    src, dst, _ = emit_bucket_pairs(["a", "a", "b"], cap=10)
    assert list(zip(src, dst)) == [("a", "b")]


def test_winnowing_guarantee():
    """Strings sharing a span >= kgram+window-1 chars share a fingerprint."""
    nm = Normalizer(simple_alphabet())
    span = "thisisaverylongsharedspanofcharacters"  # 37 chars > 16+8-1
    a = nm.normalize("prefixone" + span + "tailone")
    b = nm.normalize("completelyothr" + span + "xyz")
    fa = winnow_fingerprints(a, 16, 8)
    fb = winnow_fingerprints(b, 16, 8)
    assert len(set(fa) & set(fb)) >= 1


def test_winnowing_no_shared_span():
    nm = Normalizer(simple_alphabet())
    fa = winnow_fingerprints(nm.normalize("aaaabbbbccccddddeeeeffff"), 16, 8)
    fb = winnow_fingerprints(nm.normalize("zzzzyyyyxxxxwwwwvvvvuuuu"), 16, 8)
    assert len(set(fa) & set(fb)) == 0


def test_winnowing_short_string():
    nm = Normalizer(simple_alphabet())
    assert len(winnow_fingerprints(nm.normalize("short"), 16, 8)) == 0


def test_popcount_u64_matches_python():
    from analiticcl_ray.stages.lsh import _popcount_u64

    rng = np.random.default_rng(7)
    xs = rng.integers(0, 2**63, size=256, dtype=np.uint64)
    xs = np.concatenate([xs, np.array([0, 1, 2**64 - 1], dtype=np.uint64)])
    got = _popcount_u64(xs)
    want = np.array([bin(int(x)).count("1") for x in xs], dtype=np.uint64)
    assert np.array_equal(got, want)


def test_emit_bucket_pairs_attr_maxham_prunes_far_fingerprints():
    from analiticcl_ray.stages.lsh import emit_bucket_pairs_attr

    ids = np.array([1, 2, 3, 4], dtype=np.int64)
    # 1 and 2 differ by 2 bits; 3 is ~32 bits from both; 4 == 1 exactly
    base = np.int64(0x0F0F0F0F0F0F0F0F)
    attrs = np.array(
        [base, base ^ np.int64(0b11), np.int64(-1) ^ base, base], dtype=np.int64
    )
    src, dst, capped = emit_bucket_pairs_attr(ids, attrs, cap=64, maxham=8)
    assert not capped
    assert set(zip(src.tolist(), dst.tolist())) == {(1, 2), (1, 4), (2, 4)}


def test_emit_bucket_pairs_attr_maxham_keeps_chain_links():
    from analiticcl_ray.stages.lsh import emit_bucket_pairs_attr

    # two cap-chunks whose fingerprints are all mutually far apart:
    # every in-chunk pair is pruned but the salting chain link survives,
    # keeping the bucket connected for CC consumers
    ids = np.arange(8, dtype=np.int64)
    attrs = (np.int64(1) << np.arange(8, dtype=np.int64) * 8) - np.int64(1)
    src, dst, capped = emit_bucket_pairs_attr(ids, attrs, cap=4, maxham=2)
    assert capped
    pairs = set(zip(src.tolist(), dst.tolist()))
    assert (0, 4) in pairs  # the chain link between chunk 0 and chunk 1


def test_block_pair_key_roundtrip():
    """block_pair_key_lut / decode_block_pair_key are inverse and cover
    the triangular key space exactly once (shared by the exact
    all-pairs operators in ann and text)."""
    import numpy as np

    from analiticcl_ray.stages.lsh import (
        block_pair_key_lut,
        decode_block_pair_key,
    )

    for n_parts in (1, 2, 3, 8, 13):
        lut = block_pair_key_lut(n_parts)
        n_keys = n_parts * (n_parts + 1) // 2
        assert lut.min() == 0 and lut.max() == n_keys - 1
        # symmetric: unordered pairs share a key
        assert np.array_equal(lut, lut.T)
        seen = set()
        for a in range(n_parts):
            for b in range(a, n_parts):
                k = int(lut[a, b])
                assert decode_block_pair_key(k, n_parts) == (a, b)
                seen.add(k)
        assert seen == set(range(n_keys))


def test_emit_pairs_grouped_matches_per_bucket_reference():
    """emit_pairs_grouped (size-class vectorized) is bucket-for-bucket
    equivalent to the per-bucket emit_bucket_pairs[_attr] loop it
    replaced in the candidate stage, across dtypes, caps, thresholds,
    and both prefilter modes."""
    import numpy as np

    from analiticcl_ray.stages.lsh import (
        emit_bucket_pairs,
        emit_bucket_pairs_attr,
        emit_pairs_grouped,
    )

    rng = np.random.default_rng(7)
    for trial in range(30):
        n_rows = int(rng.integers(0, 400))
        n_keys = max(1, int(rng.integers(1, 40)))
        cap = int(rng.integers(2, 12))
        drop_threshold = int(rng.integers(3, 30))
        str_ids = bool(rng.integers(0, 2))
        mode = ["none", "ratio", "maxham"][int(rng.integers(0, 3))]
        keys = rng.integers(0, n_keys, size=n_rows).astype(np.int64)
        raw_ids = rng.integers(0, 60, size=n_rows)
        ids = (
            np.array([f"id{int(v):03d}" for v in raw_ids], dtype=object)
            if str_ids else raw_ids.astype(np.int64)
        )
        attrs = rng.integers(1, 1 << 20, size=n_rows).astype(np.int64)
        ratio = 0.5 if mode == "ratio" else None
        maxham = 6 if mode == "maxham" else None
        use_attr = mode != "none"

        # reference: per-bucket loop (the pre-vectorization semantics)
        ref_pairs = set()
        ref_capped = {}
        ref_dropped = []
        order = np.argsort(keys, kind="stable")
        for k in np.unique(keys):
            m = keys == k
            if m.sum() < 2:
                continue
            if m.sum() > drop_threshold:
                ref_dropped.append(int(m.sum()))
                continue
            if use_attr:
                uids, first = np.unique(ids[m], return_index=True)
                s, d, capped = emit_bucket_pairs_attr(
                    uids, attrs[m][first], cap, ratio, maxham
                )
                s, d = list(s), list(d)
            else:
                s, d, capped = emit_bucket_pairs(list(ids[m]), cap)
            for a, b in zip(s, d):
                ref_pairs.add((a, b))
                ref_capped[(a, b)] = ref_capped.get((a, b), False) or capped
        src, dst, capflags, dropped = emit_pairs_grouped(
            keys, ids, attrs if use_attr else None, cap, drop_threshold,
            ratio, maxham,
        )
        got_pairs = set(zip(src.tolist(), dst.tolist()))
        assert got_pairs == ref_pairs, (trial, mode, str_ids)
        assert sorted(dropped) == sorted(ref_dropped), (trial, mode)
        # canonical ordering: src < dst for every non-chain pair set
        got_cap = {}
        for a, b, c in zip(src.tolist(), dst.tolist(), capflags.tolist()):
            got_cap[(a, b)] = got_cap.get((a, b), False) or c
        assert got_cap == ref_capped, (trial, mode, str_ids)


def test_emit_pairs_grouped_return_attrs_parity():
    """return_attrs=True (round 4: hamming rides out of the bucket)
    emits the SAME (src, dst, capped) stream as return_attrs=False and
    every attr value equals the emitter's id -> attr mapping — so
    computing hamming from the returned attrs is identical to the old
    attach + re-verify."""
    import numpy as np

    from analiticcl_ray.stages.lsh import emit_pairs_grouped

    rng = np.random.default_rng(13)
    for trial in range(30):
        n_rows = int(rng.integers(0, 400))
        n_keys = max(1, int(rng.integers(1, 30)))
        cap = int(rng.integers(2, 12))
        drop_threshold = int(rng.integers(3, 30))
        keys = rng.integers(0, n_keys, size=n_rows).astype(np.int64)
        raw_ids = rng.integers(0, 60, size=n_rows)
        ids = np.array([f"id{int(v):03d}" for v in raw_ids], dtype=object)
        # one attr per ID (the emitter dedups (key, id) rows, so the
        # same id must carry one value — exactly the hash-table setup)
        id_attr = {f"id{v:03d}": int(v) * 7 + 1 for v in range(60)}
        attrs = np.array([id_attr[i] for i in ids], dtype=np.int64)
        maxham = 64  # keep-everything prefilter: pure pairing parity

        s0, d0, c0, drop0 = emit_pairs_grouped(
            keys, ids, attrs, cap, drop_threshold, None, maxham
        )
        s1, d1, a_s, a_d, c1, drop1 = emit_pairs_grouped(
            keys, ids, attrs, cap, drop_threshold, None, maxham,
            return_attrs=True,
        )
        assert list(s0) == list(s1) and list(d0) == list(d1)
        assert list(c0) == list(c1) and drop0 == drop1
        assert [id_attr[i] for i in s1] == list(a_s)
        assert [id_attr[i] for i in d1] == list(a_d)


def test_cooccurrence_pairs_multi_equals_separate_passes(ray_session):
    """The single-shuffle multi-source candidate stage (round 4,
    flagship pipeline) is byte-equivalent — pairs, capped flags AND
    sentinel rows — to the two separate cooccurrence_pairs calls it
    replaced, across caps/thresholds/prefilter modes."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.stages.lsh import (
        cooccurrence_pairs,
        cooccurrence_pairs_multi,
    )

    rng = np.random.default_rng(21)
    n = 600
    # source A: caption-band-shaped keys (some hot, some degenerate —
    # the first 60 rows share one boilerplate key, well over source A's
    # drop_threshold of 20, so the sentinel path is exercised)
    keys_a = rng.integers(0, 80, size=n).astype(np.int64)
    keys_a[:60] = 7777
    ids_a = np.array([f"img{int(v):04d}" for v in rng.integers(0, 200, n)])
    # source B: phash-shaped keys with an attr for the maxham prefilter
    keys_b = rng.integers(0, 40, size=n).astype(np.int64)
    ids_b = np.array([f"img{int(v):04d}" for v in rng.integers(0, 200, n)])
    attr_b = rng.integers(-(1 << 62), 1 << 62, size=n).astype(np.int64)

    rows_a = rd.from_arrow(
        pa.table({"band": keys_a, "image_id": pa.array(ids_a, pa.string())})
    )
    rows_b = rd.from_arrow(
        pa.table(
            {
                "band": keys_b,
                "image_id": pa.array(ids_b, pa.string()),
                "phash": attr_b,
            }
        )
    )

    def collect(ds):
        df = ds.to_pandas()
        return sorted(map(tuple, df[["src_id", "dst_id", "capped"]].values.tolist()))

    sep = collect(
        cooccurrence_pairs(
            rows_a, "band", "image_id", cap=6, keep_sentinels=True,
            sentinel_salt=0, drop_threshold=20,
        ).union(
            cooccurrence_pairs(
                rows_b, "band", "image_id", cap=4, keep_sentinels=True,
                sentinel_salt=1, drop_threshold=30,
                attr_col="phash", attr_maxham=20,
            )
        )
    )
    merged = collect(
        cooccurrence_pairs_multi(
            [
                {
                    "rows": rows_a, "key_col": "band", "cap": 6,
                    "sentinel_salt": 0, "drop_threshold": 20,
                },
                {
                    "rows": rows_b, "key_col": "band", "cap": 4,
                    "sentinel_salt": 1, "drop_threshold": 30,
                    "attr_col": "phash", "attr_maxham": 20,
                },
            ],
            "image_id",
            keep_sentinels=True,
        )
    )
    assert merged == sep
    # sentinels present (the fixture's hot keys exceed the thresholds)
    assert any(s.startswith("__DROPPED_BUCKET__") for s, _, _ in merged)


def test_banded_hamming_pairs_capped_bucket_connectivity(ray_session):
    """cooccurrence_hamming_pairs under a tiny cap (round 4: hamming
    emitted from the bucket, chain links filtered in-task): output is
    a SUBSET of brute force at the threshold, and an identical-hash
    clique bigger than the cap stays CONNECTED through its salted
    chain links (hamming-0 links survive the filter)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.stages.multimodal import banded_hash_dup_pairs
    from analiticcl_ray.image.codec import hamming64

    rng = np.random.default_rng(5)
    ids = [f"h{i:04d}" for i in range(80)]
    hashes = np.empty(80, dtype=np.int64)
    hashes[:40] = 0x0123456789ABCDE7  # one 40-id identical-hash clique
    hashes[40:] = rng.integers(-(1 << 62), 1 << 62, size=40)
    tab = pa.table(
        {"hid": pa.array(ids, pa.string()), "h": pa.array(hashes, pa.int64())}
    )
    stats: dict = {}
    got = banded_hash_dup_pairs(
        rd.from_arrow(tab), "hid", "h", max_hamming=3, cap=8, stats=stats
    ).to_pandas()
    hmap = dict(zip(ids, hashes))
    # every emitted pair is hamming-verified and correctly valued
    for s, d, hm in got[["src_id", "dst_id", "hamming"]].values.tolist():
        assert hm <= 3
        assert hm == int(
            hamming64(np.array([hmap[s]]), np.array([hmap[d]]))[0]
        )
    # subset of brute force
    iu, ju = np.triu_indices(80, 1)
    bf = {
        (ids[a], ids[b])
        for a, b in zip(iu, ju)
        if int(hamming64(hashes[a : a + 1], hashes[b : b + 1])[0]) <= 3
    }
    assert set(map(tuple, got[["src_id", "dst_id"]].values.tolist())) <= bf
    # the capped identical-hash clique stays one connected component
    parent = {i: i for i in ids[:40]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, d in got[["src_id", "dst_id"]].values.tolist():
        if s in parent and d in parent:
            parent[find(s)] = find(d)
    assert len({find(i) for i in ids[:40]}) == 1


def test_sentinel_codec_round_trip(ray_session):
    """sentinel_rows -> tally_sentinels gives back exactly the dropped
    bucket count and row total, strip_sentinels removes every sentinel
    row and nothing else, and the encoding is the pinned wire format
    (str: ``__DROPPED_BUCKET__:{salt}:{cg}:{seq}`` -> ``1:{rows}``; int:
    negative ids carrying the salt's parity)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.stages.lsh import (
        sentinel_rows,
        strip_sentinels,
        tally_sentinels,
    )

    s, d = sentinel_rows([40, 7], 5, 1, "str", n_cogroups=64)
    assert list(s) == ["__DROPPED_BUCKET__:1:5:0", "__DROPPED_BUCKET__:1:5:1"]
    assert list(d) == ["1:40", "1:7"]
    s, d = sentinel_rows([40, 7], 5, "inc", "str", n_cogroups=64)
    assert list(s) == ["__DROPPED_BUCKET__:inc:5:0", "__DROPPED_BUCKET__:inc:5:1"]
    s, d = sentinel_rows([40, 7], 5, 1, "int", n_cogroups=64)
    assert s.tolist() == [-(1 + 2 * 5 + 1), -(1 + 2 * (5 + 64) + 1)]
    assert d.tolist() == [40, 7]
    assert sentinel_rows([40], 5, "inc", "int", n_cogroups=64)[0].tolist() == [-(1 + 2 * 5)]
    # a count above the former fixed 1024: cogroup 1024's first
    # sentinel must not collide with cogroup 0's second
    hi = sentinel_rows([3], 1024, 0, "int", n_cogroups=2048)[0].tolist()
    lo = sentinel_rows([3, 4], 0, 0, "int", n_cogroups=2048)[0].tolist()
    assert hi == [-(1 + 2 * 1024)] and lo == [-1, -(1 + 2 * 2048)]
    assert not set(hi) & set(lo)

    rng = np.random.default_rng(11)
    dropped_by_cg = {cg: rng.integers(2, 500, size=int(rng.integers(0, 4))).tolist()
                     for cg in range(12)}
    n_buckets = sum(len(v) for v in dropped_by_cg.values())
    n_rows = sum(sum(v) for v in dropped_by_cg.values())
    assert n_buckets > 0
    for id_dtype, salts in (("str", (0, 1, "inc")), ("int", (0, 1, "inc"))):
        for salt in salts:
            pair_src = np.arange(30) if id_dtype == "int" else np.array(
                [f"a{i:03d}" for i in range(30)], dtype=object)
            pair_dst = pair_src + 100 if id_dtype == "int" else np.array(
                [f"b{i:03d}" for i in range(30)], dtype=object)
            srcs, dsts = [pair_src], [pair_dst]
            for cg, dropped in dropped_by_cg.items():
                s, d = sentinel_rows(dropped, cg, salt, id_dtype, n_cogroups=16)
                srcs.append(s)
                dsts.append(d)
            id_type = pa.string() if id_dtype == "str" else pa.int64()
            src_all = np.concatenate(srcs)
            # globally unique within one salt
            assert len(set(src_all.tolist())) == len(src_all)
            tab = pa.table({
                "src_id": pa.array(src_all, id_type),
                "dst_id": pa.array(np.concatenate(dsts), id_type),
                "capped": pa.array(
                    [False] * 30 + [True] * (len(src_all) - 30), pa.bool_()),
            })
            ds = rd.from_arrow(tab).repartition(3)
            stats: dict = {}
            tally_sentinels(ds, stats, id_dtype)
            assert stats == {"dropped_buckets": n_buckets, "dropped_rows": n_rows}
            kept = strip_sentinels(ds, id_dtype).to_pandas()
            assert sorted(kept["src_id"].tolist()) == sorted(pair_src.tolist())
            assert sorted(kept["dst_id"].tolist()) == sorted(pair_dst.tolist())
            assert not kept["capped"].any()


def test_simhash_pairs_capped_bucket_connectivity(ray_session):
    """Int-id counterpart of the banded-hamming cap test, on the
    simhash path: under a tiny bucket cap every emitted pair is a
    subset of brute-force hamming <= k and carries its exact hamming,
    and a same-hash clique bigger than the cap stays CONNECTED through
    its salted chain links."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.image.codec import hamming64
    from analiticcl_ray.pipelines.text import (
        simhash_dup_pairs,
        simhash_fingerprints,
    )

    n_clique = 40
    texts = ["the same boilerplate notice repeated across many pages"] * n_clique
    texts += [
        f"unrelated document {i} about topic {i * 7919 % 1000} with words {i ** 2}"
        for i in range(40)
    ]
    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    )
    got = simhash_dup_pairs(docs, max_hamming=3, bucket_cap=8).to_pandas()
    fp = simhash_fingerprints(docs).to_pandas()
    hmap = dict(zip(fp["doc_id"].tolist(), fp["simhash"].tolist()))
    ids = sorted(hmap)
    hv = np.array([hmap[i] for i in ids], dtype=np.int64)
    for a, b, hm in got[["a", "b", "hamming"]].values.tolist():
        assert hm <= 3
        assert hm == int(hamming64(np.array([hmap[a]]), np.array([hmap[b]]))[0])
    iu, ju = np.triu_indices(len(ids), 1)
    ham = hamming64(hv[iu], hv[ju])
    bf = {(ids[a], ids[b]) for a, b, h in zip(iu, ju, ham) if int(h) <= 3}
    pairs = set(map(tuple, got[["a", "b"]].values.tolist()))
    assert pairs <= bf
    # the clique is bigger than the cap, so salting fired
    assert len(pairs) < n_clique * (n_clique - 1) // 2
    parent = {i: i for i in range(n_clique)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    assert len({find(i) for i in range(n_clique)}) == 1


def test_pair_summary_counts_pairs_capped_and_sentinels(ray_session):
    """pair_summary's one pass gives the sentinel tally plus the pair
    and capped-pair counts over the non-sentinel rows — the figures
    pairs_stage reports as dropped_buckets/dropped_rows, rows and
    capped_pairs."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.stages.lsh import pair_summary, sentinel_rows

    for id_dtype in ("str", "int"):
        sent_s, sent_d = sentinel_rows([9, 30], 3, 1, id_dtype, n_cogroups=16)
        if id_dtype == "str":
            src = np.array([f"a{i}" for i in range(20)], dtype=object)
            dst = np.array([f"b{i}" for i in range(20)], dtype=object)
        else:
            src, dst = np.arange(20), np.arange(20) + 50
        capped = np.arange(20) % 4 == 0  # 5 capped pairs
        id_type = pa.string() if id_dtype == "str" else pa.int64()
        tab = pa.table({
            "src_id": pa.array(np.concatenate([src, sent_s]), id_type),
            "dst_id": pa.array(np.concatenate([dst, sent_d]), id_type),
            "capped": pa.array(np.concatenate([capped, [True, True]]), pa.bool_()),
        })
        got = pair_summary(rd.from_arrow(tab).repartition(4), id_dtype)
        assert got == {
            "dropped_buckets": 2, "dropped_rows": 39, "pairs": 20, "capped_pairs": 5,
        }


def _probe_index_bruteforce(new: dict, ref: dict, cap: int, keep) -> tuple[dict, list]:
    """The probe-vs-index pair population by definition: resolve ids (a
    new row supersedes a ref row of the same id), then per band key with
    >= 1 new row every new x new (src < dst) and new x ref pair passing
    ``keep``; a band over ``cap`` rows keeps its new rows and the
    id-ordered ref prefix, and reports the ref rows it drops."""
    from collections import defaultdict

    ref = {i: v for i, v in ref.items() if i not in new}
    by_band: dict = defaultdict(lambda: ([], []))
    for side, rows in ((0, new), (1, ref)):
        for i, (bands, _) in rows.items():
            for b in bands:
                by_band[b][side].append(i)
    attr = {i: a for rows in (new, ref) for i, (_, a) in rows.items()}
    pairs, dropped = {}, []
    for ns, rs in by_band.values():
        ns, rs = sorted(ns), sorted(rs)
        if len(ns) + len(rs) > cap:
            assert len(ns) <= cap  # the all-new salted path is not modelled
            dropped.append(len(rs) - (cap - len(ns)))
            rs = rs[: cap - len(ns)]
        cands = [(x, y) for x in ns for y in ns if x < y] + [(x, y) for x in ns for y in rs]
        for x, y in cands:
            if keep(attr[x], attr[y]):
                pairs[(x, y)] = (attr[x], attr[y])
    return pairs, [d for d in dropped if d]


def test_probe_index_pairs_matches_bruteforce(ray_session, monkeypatch):
    """Seeded property of the one probe-vs-index join
    (lsh.probe_index_pairs), for both in-bucket pair tests — the gram-size
    ratio on int ids and the exact 64-bit hamming on str ids — at the
    default driver budget and at 0 (distributed explode): its deduped,
    sentinel-stripped pairs equal the brute-force population, a
    re-ingested id never self-pairs and pairs on its new attr, and the
    over-cap band's dropped ref rows come back through the sentinel
    tally."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.stages import driver
    from analiticcl_ray.stages.lsh import (
        _popcount_u64,
        probe_index_pairs,
        strip_sentinels,
        tally_sentinels,
    )

    def ham(a, b):
        return int(_popcount_u64(np.array([a ^ b], np.int64).view(np.uint64))[0])

    cap, hot, n_bands = 6, 10_000, 3
    default = driver.DRIVER_BUDGET_BYTES
    for seed, id_dtype in ((1, "int"), (2, "str"), (3, "int"), (4, "str")):
        rng = np.random.default_rng(seed)
        key = (lambda i: i) if id_dtype == "int" else (lambda i: f"d{i:03d}")
        bases = rng.integers(-(1 << 62), 1 << 62, size=3)

        def row(hot_band: bool):
            bands = rng.choice(120, size=n_bands, replace=False).tolist()
            if hot_band:
                bands[0] = hot
            if id_dtype == "int":
                return bands, int(rng.integers(10, 20))
            flips = rng.choice(64, size=int(rng.integers(0, 4)), replace=False)
            mask = int(np.sum(np.uint64(1) << flips.astype(np.uint64)).astype(np.int64))
            return bands, int(bases[rng.integers(0, 3)]) ^ mask

        # ids 0..29 new, 30..69 ref, id 5 re-ingested; the hot band
        # holds 2 new + 8 ref rows against cap 6
        new = {key(i): row(i < 2) for i in range(30)}
        ref = {key(i): row(30 <= i < 38) for i in range(30, 70)}
        ref[key(5)] = (new[key(5)][0], row(False)[1])  # same bands, stale attr
        keep = (
            (lambda a, b: min(a, b) >= 0.8 * max(a, b))
            if id_dtype == "int"
            else (lambda a, b: ham(a, b) <= 3)
        )
        want, want_dropped = _probe_index_bruteforce(new, ref, cap, keep)
        assert want_dropped and want, "fixture must hold pairs and an over-cap band"

        def tab(rows):
            ids = list(rows)
            return rd.from_arrow(pa.table({
                "id": pa.array(ids, pa.int64() if id_dtype == "int" else pa.string()),
                "attr": pa.array([rows[i][1] for i in ids], pa.int64()),
                "bands": pa.FixedSizeListArray.from_arrays(
                    pa.array([b for i in ids for b in rows[i][0]], pa.int64()), n_bands),
            }))

        test = {"ratio": 0.8} if id_dtype == "int" else {"maxham": 3}
        for budget in (default, 0):
            monkeypatch.setattr(driver, "DRIVER_BUDGET_BYTES", budget)
            raw, _ = probe_index_pairs(
                tab(new), tab(ref), "id", "attr", n_bands, id_dtype=id_dtype,
                cap=cap, **test,
            )
            raw = raw.materialize()
            stats: dict = {}
            tally_sentinels(raw, stats, id_dtype)
            assert stats == {"dropped_buckets": len(want_dropped),
                             "dropped_rows": sum(want_dropped)}
            got = strip_sentinels(raw, id_dtype).to_pandas().drop_duplicates(["src_id", "dst_id"])
            pairs = list(zip(got["src_id"].tolist(), got["dst_id"].tolist()))
            assert len(pairs) == len(got) and set(pairs) == set(want), (seed, budget)
            assert all(s != d for s, d in pairs)
            if id_dtype == "str":
                assert got["hamming"].tolist() == [ham(*want[p]) for p in pairs]
