"""Multimodal actor-pool stages (stages/multimodal.py): real PNG
resize/feature paths, deterministic fake video container, honest codec
stubs."""

import numpy as np
import pytest


def _mk_image(seed: int, h: int = 24, w: int = 32) -> bytes:
    from analiticcl_ray.image.codec import png_encode

    rng = np.random.default_rng(seed)
    return png_encode(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))


def test_resize_images_roundtrip(ray_session):
    import ray.data as rd

    from analiticcl_ray.image.codec import png_decode
    from analiticcl_ray.stages.multimodal import resize_images

    rows = [
        {"image_id": f"img{i}", "bytes": _mk_image(i), "w": 32, "h": 24,
         "fmt": "png"}
        for i in range(6)
    ]
    out = resize_images(rd.from_items(rows), size=16).take_all()
    assert len(out) == 6
    for r in out:
        px = png_decode(r["bytes"])
        assert px.shape == (16, 16, 3)
        assert r["w"] == 16 and r["h"] == 16 and r["fmt"] == "png"


def test_image_features_deterministic(ray_session):
    import ray.data as rd

    from analiticcl_ray.stages.multimodal import image_features

    rows = [
        {"image_id": f"img{i}", "bytes": _mk_image(i), "w": 32, "h": 24,
         "fmt": "png"}
        for i in range(4)
    ]
    a = sorted(
        (r["image_id"], r["phash"], round(r["mean"], 9))
        for r in image_features(rd.from_items(rows)).take_all()
    )
    b = sorted(
        (r["image_id"], r["phash"], round(r["mean"], 9))
        for r in image_features(rd.from_items(rows)).take_all()
    )
    assert a == b
    assert len({p for _, p, _ in a}) == 4  # distinct images -> distinct hashes


def test_frame_sampler_rawv_and_stub(ray_session):
    import ray.data as rd

    from analiticcl_ray.image.codec import png_decode
    from analiticcl_ray.stages.multimodal import (
        rawv_decode, rawv_encode, sample_frames,
    )

    rng = np.random.default_rng(3)
    frames = rng.integers(0, 256, (5, 8, 10, 3), dtype=np.uint8)
    blob = rawv_encode(frames)
    assert np.array_equal(rawv_decode(blob), frames)

    vids = rd.from_items(
        [{"video_id": "v0", "bytes": blob, "fmt": "rawv1"}]
    )
    out = sorted(sample_frames(vids, stride=2).take_all(), key=lambda r: r["frame_idx"])
    assert [r["frame_idx"] for r in out] == [0, 2, 4]
    assert np.array_equal(png_decode(out[1]["bytes"]), frames[2])

    # real codecs: honest, clearly-marked stub
    bad = rd.from_items([{"video_id": "v1", "bytes": b"x", "fmt": "mp4"}])
    with pytest.raises(Exception) as ei:
        sample_frames(bad).take_all()
    assert "NotImplementedError" in str(ei.value) or isinstance(
        ei.value, NotImplementedError
    )


def test_dhash_ahash_kernels():
    from analiticcl_ray.image.codec import ahash64, dhash64, hamming64

    rng = np.random.default_rng(7)
    px = rng.integers(0, 256, (48, 64, 3), dtype=np.uint8)
    # deterministic
    assert dhash64(px) == dhash64(px.copy())
    assert ahash64(px) == ahash64(px.copy())
    # int64 range (Arrow-safe)
    for h in (dhash64(px), ahash64(px)):
        assert -(1 << 63) <= h < (1 << 63)
    # dhash is gradient-based: a NON-CLIPPING global brightness shift
    # preserves it exactly (clipping would flatten saturated regions
    # and legitimately flip those gradients)
    dark = rng.integers(0, 200, (48, 64, 3), dtype=np.uint8)
    brighter = (dark.astype(np.int32) + 40).astype(np.uint8)
    assert dhash64(brighter) == dhash64(dark)
    # an unrelated image lands far away in hamming space
    other = rng.integers(0, 256, (48, 64, 3), dtype=np.uint8)
    assert hamming64(
        np.array([dhash64(px)]), np.array([dhash64(other)])
    )[0] > 10


def test_image_hashes_and_dup_pairs_bruteforce(ray_session):
    """image_hash_dup_pairs == brute-force all-pairs hamming over the
    directly-computed hashes (banding is pigeonhole-complete for
    max_hamming < bands; the attach-side verify removes chain links)."""
    import ray.data as rd

    from analiticcl_ray.image.codec import decode, dhash64, hamming64
    from analiticcl_ray.sources.corpus import generate_corpus
    from analiticcl_ray.stages.multimodal import image_hash_dup_pairs, image_hashes

    tab = generate_corpus(300, 42)
    # driver-side truth: decode + dhash every image
    ids = tab["image_id"].to_pylist()
    hs = np.array(
        [
            dhash64(decode(b.as_py(), f.as_py()))
            for b, f in zip(tab["bytes"], tab["fmt"])
        ],
        dtype=np.int64,
    )
    iu, ju = np.triu_indices(len(ids), 1)
    ham = hamming64(hs[iu], hs[ju])
    keep = ham <= 3
    expected = {
        tuple(sorted((ids[a], ids[b]))): int(h)
        for a, b, h in zip(iu[keep], ju[keep], ham[keep])
    }
    assert expected, "corpus must contain dhash near-dups for this test"

    ds = rd.from_arrow(tab)
    # pipeline hashes agree with the driver-side kernels
    got_h = {
        r["image_id"]: r["dhash"] for r in image_hashes(ds).take_all()
    }
    assert got_h == dict(zip(ids, (int(h) for h in hs)))

    got = {
        tuple(sorted((r["src_id"], r["dst_id"]))): r["hamming"]
        for r in image_hash_dup_pairs(ds, "dhash", max_hamming=3).take_all()
    }
    assert got == expected


def test_image_quality_kernel_and_stage(ray_session):
    """image_quality_one flags planted defects; the Ray stage matches
    the driver-side kernel exactly and the filter keeps the clean set."""
    import ray.data as rd

    from analiticcl_ray.image.codec import image_quality_one, png_encode

    from analiticcl_ray.stages.multimodal import (
        image_quality_filter,
        image_quality_signals,
    )

    rng = np.random.default_rng(5)
    textured = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    flat = np.full((32, 32, 3), 255, np.uint8)  # saturated + zero entropy
    blurry = np.full((32, 32, 3), 128, np.uint8)  # flat mid-gray
    q_tex = image_quality_one(textured)
    q_flat = image_quality_one(flat)
    assert q_tex["sharpness"] > q_flat["sharpness"] == 0.0
    assert q_tex["entropy"] > 5.0 and q_flat["entropy"] == 0.0
    assert q_flat["saturated_frac"] == 1.0
    assert image_quality_one(np.zeros((0, 0), np.uint8))["entropy"] == 0.0

    rows = [
        {"image_id": "tex", "bytes": png_encode(textured), "fmt": "png"},
        {"image_id": "flat", "bytes": png_encode(flat), "fmt": "png"},
        {"image_id": "blur", "bytes": png_encode(blurry), "fmt": "png"},
    ]
    ds = rd.from_items(rows)
    got = {r["image_id"]: r for r in image_quality_signals(ds).take_all()}
    exp = {"tex": q_tex, "flat": q_flat, "blur": image_quality_one(blurry)}
    for iid, e in exp.items():
        for k, v in e.items():
            assert got[iid][k] == v
    kept = {r["image_id"] for r in image_quality_filter(ds).take_all()}
    assert kept == {"tex"}


def test_incremental_dup_pairs_bruteforce(ray_session):
    """incremental_image_dup_pairs == brute force restricted to pairs
    touching the new shard: new x new (src < dst) plus new x ref
    (src = new), NEVER ref x ref; matches the full-corpus op when
    restricted to the same pair population."""
    import ray.data as rd

    from analiticcl_ray.image.codec import decode, dhash64, hamming64
    from analiticcl_ray.sources.corpus import generate_corpus
    from analiticcl_ray.stages.multimodal import (
        image_hashes,
        incremental_image_dup_pairs,
    )

    tab = generate_corpus(300, 42)
    ids = tab["image_id"].to_pylist()
    hs = np.array(
        [
            dhash64(decode(b.as_py(), f.as_py()))
            for b, f in zip(tab["bytes"], tab["fmt"])
        ],
        dtype=np.int64,
    )
    # interleave: even rows = reference, odd rows = new. Dup groups are
    # ADJACENT in the generated corpus, so this guarantees both cross
    # (new x ref) and intra-new pairs exist.
    ref_idx = list(range(0, len(ids), 2))
    new_idx = list(range(1, len(ids), 2))
    ref_ids = {ids[i] for i in ref_idx}
    iu, ju = np.triu_indices(len(ids), 1)
    ham = hamming64(hs[iu], hs[ju])
    expected = {}
    for a, b, h in zip(iu, ju, ham):
        if h > 3:
            continue
        ia, ib = ids[a], ids[b]
        a_ref, b_ref = ia in ref_ids, ib in ref_ids
        if a_ref and b_ref:
            continue  # ref x ref must never be emitted
        if not a_ref and not b_ref:
            key = tuple(sorted((ia, ib)))  # new x new: src < dst
        else:  # new x ref: src is the new side
            key = (ib, ia) if a_ref else (ia, ib)
        expected[key] = int(h)
    assert expected, "split must leave cross and intra-new dups"
    assert any(k[1] in ref_ids for k in expected)  # cross pairs exist
    assert any(k[1] not in ref_ids for k in expected)  # new-new too

    ref_tab = tab.take(ref_idx)
    new_tab = tab.take(new_idx)
    ref_hashes = image_hashes(rd.from_arrow(ref_tab)).materialize()
    stats = {}
    got = {
        (r["src_id"], r["dst_id"]): r["hamming"]
        for r in incremental_image_dup_pairs(
            rd.from_arrow(new_tab), ref_hashes, "dhash", max_hamming=3,
            stats=stats,
        ).take_all()
    }
    assert got == expected
    assert stats.get("dropped_rows", 0) == 0  # no capping at this size


def test_incremental_cap_sentinels(ray_session):
    """Under a tiny cap the incremental op keeps all NEW rows, fills
    with the id-ordered ref prefix, reports dropped ref rows through
    the sentinel tally, and still never emits a false positive."""
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.stages.multimodal import incremental_banded_dup_pairs

    hot = 0x0123456789ABCDEF
    new_tab = pa.table(
        {
            "hid": pa.array([f"n{i:03d}" for i in range(5)], pa.string()),
            "h": pa.array([hot] * 5, pa.int64()),
        }
    )
    ref_tab = pa.table(
        {
            "hid": pa.array([f"r{i:03d}" for i in range(60)], pa.string()),
            "h": pa.array([hot] * 60, pa.int64()),
        }
    )
    stats = {}
    got = {
        (r["src_id"], r["dst_id"])
        for r in incremental_banded_dup_pairs(
            rd.from_arrow(new_tab).materialize(),
            rd.from_arrow(ref_tab).materialize(),
            "hid", "h", max_hamming=3, cap=16, stats=stats,
        ).take_all()
    }
    assert stats["dropped_rows"] > 0  # sentinel tally reached the driver
    # all new x new pairs survive (new rows are never sacrificed)
    assert {(a, b) for a in ("n000", "n001", "n002", "n003", "n004")
            for b in ("n000", "n001", "n002", "n003", "n004") if a < b} <= got
    # every emitted pair has a NEW src and is never ref x ref
    assert all(s.startswith("n") for s, _ in got)
    # capped: only the id-ordered ref prefix got paired
    ref_dsts = sorted({d for _, d in got if d.startswith("r")})
    assert ref_dsts and ref_dsts == [f"r{i:03d}" for i in range(len(ref_dsts))]


def test_incremental_reingest_overlap(ray_session):
    """An id present in BOTH the new shard and the reference table (a
    retried/overlapping ingest) never emits a self-pair, and the verify
    resolves the overlapped id to its NEW hash."""
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.stages.multimodal import incremental_banded_dup_pairs

    hot = 0x0123456789ABCDEF
    # 'x' is re-ingested: present in new AND ref (same hash); n1 is a
    # genuine near-dup of x; r1 is a ref-side near-dup.
    new_tab = pa.table(
        {
            "hid": pa.array(["x", "n1"], pa.string()),
            "h": pa.array([hot, hot ^ 1], pa.int64()),
        }
    )
    ref_tab = pa.table(
        {
            "hid": pa.array(["x", "r1"], pa.string()),
            "h": pa.array([hot, hot ^ 2], pa.int64()),
        }
    )
    got = {
        (r["src_id"], r["dst_id"]): r["hamming"]
        for r in incremental_banded_dup_pairs(
            rd.from_arrow(new_tab).materialize(),
            rd.from_arrow(ref_tab).materialize(),
            "hid", "h", max_hamming=3,
        ).take_all()
    }
    assert all(s != d for s, d in got)  # no self-edges
    assert got == {
        ("n1", "x"): 1,   # new x new triangle
        ("x", "r1"): 1,   # new x ref cross (hot vs hot^2: one bit)
        ("n1", "r1"): 2,  # hot^1 vs hot^2: two bits
    }


def test_incremental_degenerate_new_bucket(ray_session):
    """A band bucket saturated by NEW rows alone takes the salted-chunk
    path: bounded emission (subset of brute force, like the symmetric
    op under a tiny cap), every ref row dropped and counted, and no
    zero-drop sentinel inflation for all-new over-cap buckets."""
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.stages.multimodal import incremental_banded_dup_pairs

    hot = 0x0123456789ABCDEF
    n, cap = 40, 8
    new_tab = pa.table(
        {
            "hid": pa.array([f"n{i:03d}" for i in range(n)], pa.string()),
            "h": pa.array([hot] * n, pa.int64()),
        }
    )
    # all-new corpus: over-cap buckets but nothing to drop
    stats = {}
    got = {
        (r["src_id"], r["dst_id"])
        for r in incremental_banded_dup_pairs(
            rd.from_arrow(new_tab).materialize(),
            rd.from_arrow(new_tab.slice(0, 0)).materialize(),
            "hid", "h", max_hamming=3, cap=cap, stats=stats,
        ).take_all()
    }
    brute = {(f"n{i:03d}", f"n{j:03d}") for i in range(n) for j in range(i + 1, n)}
    assert got <= brute and got  # bounded subset, chunk triangles present
    # chunked emission is far below the full triangle
    assert len(got) < len(brute)
    assert stats.get("dropped_buckets", 0) == 0  # nothing was dropped
    # chain links keep the bucket connected: every row appears
    seen = {i for p in got for i in p}
    assert seen == {f"n{i:03d}" for i in range(n)}

    # with ref rows present they are displaced and counted
    ref_tab = pa.table(
        {
            "hid": pa.array(["r000"], pa.string()),
            "h": pa.array([hot], pa.int64()),
        }
    )
    stats2 = {}
    got2 = {
        (r["src_id"], r["dst_id"])
        for r in incremental_banded_dup_pairs(
            rd.from_arrow(new_tab).materialize(),
            rd.from_arrow(ref_tab).materialize(),
            "hid", "h", max_hamming=3, cap=cap, stats=stats2,
        ).take_all()
    }
    assert stats2.get("dropped_rows", 0) > 0
    assert all(not d.startswith("r") for _, d in got2)  # ref displaced


from hypothesis import given, settings, strategies as st


@st.composite
def _inc_tables(draw):
    """Random new/ref hash tables with planted collisions, overlap ids
    (re-ingest), and near-dup perturbations."""
    bases = [0x0123456789ABCDEF, -0x7EDCBA9876543211]
    n_new = draw(st.integers(1, 6))
    n_ref = draw(st.integers(0, 8))
    n_overlap = draw(st.integers(0, min(2, n_new)))

    def _hash():
        base = draw(st.sampled_from(bases))
        nbits = draw(st.integers(0, 6))
        mask = 0
        for _ in range(nbits):
            mask |= 1 << draw(st.integers(0, 63))
        h = (base ^ mask) & 0xFFFFFFFFFFFFFFFF
        return h - (1 << 64) if h >= (1 << 63) else h  # signed int64

    new = {f"n{i}": _hash() for i in range(n_new)}
    ref = {f"r{i}": _hash() for i in range(n_ref)}
    for k in list(new)[:n_overlap]:  # re-ingested ids (ref hash may differ)
        ref[k] = _hash()
    return new, ref


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_inc_tables())
def test_incremental_property_vs_bruteforce(ray_session, tables):
    """Property: at full cap, incremental_banded_dup_pairs equals the
    brute force over the resolved entity set (new wins an overlapped
    id) restricted to pairs touching the new shard — for ANY hash
    layout, overlap pattern, and side sizes."""
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.image.codec import hamming64
    from analiticcl_ray.stages.multimodal import incremental_banded_dup_pairs

    new, ref = tables
    max_h = 3
    # resolved entities: new hash supersedes an overlapped id's ref hash
    resolved = dict(ref) | dict(new)
    ids = sorted(resolved)
    hs = np.array([resolved[i] for i in ids], dtype=np.int64)
    new_ids = set(new)
    iu, ju = np.triu_indices(len(ids), 1)
    ham = hamming64(hs[iu], hs[ju]) if len(ids) >= 2 else np.array([], int)
    expected = {}
    for a, b, h in zip(iu, ju, ham):
        if h > max_h:
            continue
        ia, ib = ids[a], ids[b]
        a_new, b_new = ia in new_ids, ib in new_ids
        if not a_new and not b_new:
            continue  # ref x ref never emitted
        if a_new and b_new:
            key = (ia, ib)  # sorted already
        else:  # src is the new side
            key = (ia, ib) if a_new else (ib, ia)
        expected[key] = int(h)

    def _tab(d):
        ks = sorted(d)
        return pa.table(
            {
                "hid": pa.array(ks, pa.string()),
                "h": pa.array([d[k] for k in ks], pa.int64()),
            }
        )

    got = {
        (r["src_id"], r["dst_id"]): r["hamming"]
        for r in incremental_banded_dup_pairs(
            rd.from_arrow(_tab(new)).materialize(),
            rd.from_arrow(_tab(ref)).materialize(),
            "hid", "h", max_hamming=max_h, cap=10_000,
        ).take_all()
    }
    assert got == expected


def test_incremental_local_probe_limit_fallback(ray_session, monkeypatch):
    """The enforced local-explode boundary: forcing the distributed
    fallback (driver budget 0) yields EXACTLY the same pair set as
    the local-explode fast path — only the barrier count differs."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from analiticcl_ray.stages.multimodal import incremental_banded_dup_pairs

    rng = np.random.default_rng(31)
    n = 400
    ids = np.array([f"h{i:04d}" for i in range(n)], dtype=object)
    hashes = rng.integers(-(1 << 62), 1 << 62, size=n).astype(np.int64)
    hashes[10] = hashes[5]  # planted cross-side dup (even=ref, odd=new?)
    hashes[21] = hashes[20] ^ (1 << 7)  # near dup, hamming 1
    new_m = np.arange(n) % 2 == 1
    mk = lambda m: rd.from_arrow(
        pa.table(
            {
                "hid": pa.array(ids[m], pa.string()),
                "h": pa.array(hashes[m], pa.int64()),
            }
        )
    )

    def run(**kw):
        out = incremental_banded_dup_pairs(
            mk(new_m), mk(~new_m), "hid", "h", max_hamming=3, **kw
        ).to_pandas()
        return sorted(map(tuple, out.values.tolist()))

    from analiticcl_ray.stages import driver

    fast = run()
    monkeypatch.setattr(driver, "DRIVER_BUDGET_BYTES", 0)
    dist = run()
    assert fast == dist
    assert fast, "fixture must produce pairs"
