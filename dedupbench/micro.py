"""Kernel micro-benchmarks: the pipelines' stage callables called in
the driver, without Ray, on the workload's own rows and candidate pairs.

Times are CPU seconds (``time.process_time``) of this process, taken
while no Ray session runs, so co-tenant load does not move them. The
candidate pairs are the ones the checkpointed runner wrote to its
``pairs/`` checkpoint for the same corpus; at most ``MAX_PAIRS`` of them,
drawn with the run's seed, are verified.
"""

from __future__ import annotations

import random
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from analiticcl_ray.config import DedupConfig
from analiticcl_ray.stages.signatures import CaptionSignatures
from analiticcl_ray.stages.substring import SubstringFingerprints
from analiticcl_ray.stages.verify import CaptionVerifier, ImageVerifier

# the batch sizes dedup_pipeline hands these stages by default
_ROW_BATCH = 1024
_PAIR_BATCH = 1024
_PIXEL_BATCH = 256
MAX_PAIRS = 2000


def _cpu_per_item(fn, table: pa.Table, batch: int) -> tuple[float, list[pa.Table]]:
    """CPU microseconds per input row of ``fn`` over ``table`` in batches."""
    outs = []
    c0 = time.process_time()
    for start in range(0, table.num_rows, batch):
        outs.append(fn(table.slice(start, batch)))
    cpu = time.process_time() - c0
    return 1e6 * cpu / max(1, table.num_rows), outs


def kernel_cpu(corpus_dir: str, pairs_dir: str, seed: int) -> dict[str, float]:
    cfg = DedupConfig()
    corpus = pq.read_table(
        corpus_dir, columns=["image_id", "caption", "phash", "bytes", "fmt"]
    )
    out = {}
    out["signatures.cpu_us_per_row"], _ = _cpu_per_item(
        CaptionSignatures(cfg),
        corpus.select(["image_id", "caption", "phash", "bytes"]), _ROW_BATCH,
    )
    out["substring.cpu_us_per_row"], _ = _cpu_per_item(
        SubstringFingerprints(cfg), corpus.select(["image_id", "caption"]), _ROW_BATCH,
    )

    cand = pq.read_table(pairs_dir, columns=["src_id", "dst_id"])
    pairs = list(zip(cand["src_id"].to_pylist(), cand["dst_id"].to_pylist()))
    pairs = random.Random(seed).sample(pairs, min(MAX_PAIRS, len(pairs)))
    at = {i: k for k, i in enumerate(corpus["image_id"].to_pylist())}
    src = pa.array([at[a] for a, _ in pairs], pa.int64())
    dst = pa.array([at[b] for _, b in pairs], pa.int64())

    def sides(cols: list[str]) -> pa.Table:
        t = {"src_id": pa.array([a for a, _ in pairs]),
             "dst_id": pa.array([b for _, b in pairs])}
        for c in cols:
            t[f"src_{c}"] = corpus[c].take(src)
            t[f"dst_{c}"] = corpus[c].take(dst)
        return pa.table(t)

    out["verify.caption_cpu_us_per_pair"], verdicts = _cpu_per_item(
        CaptionVerifier(cfg), sides(["caption"]), _PAIR_BATCH,
    )
    # pixel verification runs on caption survivors whose bytes differ
    # (byte-equal pairs never reach the decoder in the pipelines)
    passed = pa.concat_tables(verdicts)["caption_dup"].to_pylist() if verdicts else []
    pixel = sides(["bytes", "fmt"]).filter(pa.array(passed, pa.bool_()))
    pixel = pixel.filter(pc.not_equal(pixel["src_bytes"], pixel["dst_bytes"]))
    out["verify.image_cpu_us_per_pair"], _ = _cpu_per_item(
        ImageVerifier(cfg), pixel, _PIXEL_BATCH,
    )
    return out
