"""Input preparation: seeded corpora and brute-force oracle tables.

Every input of a workload is made here, before anything is timed, and
cached under ``.dbwork/inputs/<workload>-s<seed>-<fingerprint>``
at the repository root. The fingerprint hashes every source file the
inputs depend on (corpus generator, image codec, verify kernels, oracle,
config and this file), so an edit to any of them makes new inputs.

Entry layout (written to a temporary directory, then renamed, so a
crashed preparation never leaves a partial entry behind):

    corpus_n<rows>_s<seed>/part-*.parquet   the corpus the program reads
    oracle_pairs.parquet                    (src_id, dst_id), canonical
    oracle_clusters.parquet                 (image_id, cluster_id), rows
                                            in a pair only
    meta.json                               rows, seed, oracle window

The oracle covers the whole corpus, or for ``dedup_20k`` the contiguous
window of its last ``WINDOW_ROWS`` rows (which holds the boilerplate skew
block). Dup-ness is a pairwise predicate, so the pipeline's pairs with
both ends in the window must equal the oracle over the window.

Rebuild one entry from scratch:

    python3 dedupbench/prep.py --workload dedup_floor --seed 1 --rebuild
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the benchmark's working tree (inputs, runner output, Ray session,
# spans); short, because Ray's socket paths live below it
WORK = os.path.join(ROOT, ".dbwork")

# rows per workload; the oracle window applies where it is smaller
ROWS = {"dedup_20k": 20_000, "dedup_floor": 400, "checkpointed_resume": 1_000}
WINDOW_ROWS = 2_000

_SOURCES = (
    "analiticcl_ray/config.py",
    "analiticcl_ray/sources/corpus.py",
    "analiticcl_ray/pipelines/oracle.py",
    "analiticcl_ray/functions/*.py",
    "analiticcl_ray/image/*.py",
    "dedupbench/prep.py",
)


def source_fingerprint() -> str:
    h = hashlib.sha1()
    for pattern in _SOURCES:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:12]


def entry_dir(workload: str, seed: int) -> str:
    return os.path.join(
        WORK, "inputs", f"{workload}-s{seed}-{source_fingerprint()}"
    )


def corpus_dir(entry: str, workload: str, seed: int) -> str:
    return os.path.join(entry, f"corpus_n{ROWS[workload]}_s{seed}")


def window(workload: str) -> tuple[int, int]:
    """[lo, hi) row range the oracle covers."""
    n = ROWS[workload]
    return (max(0, n - WINDOW_ROWS), n)


def _build(workload: str, seed: int, dest: str) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from analiticcl_ray.pipelines.oracle import oracle_clusters, oracle_pairs
    from analiticcl_ray.sources.corpus import generate_corpus, write_corpus_dir

    n = ROWS[workload]
    t0 = time.perf_counter()
    table = generate_corpus(n, seed)
    # the multi-file layout sources.corpus.corpus_path gives every caller
    write_corpus_dir(
        corpus_dir(dest, workload, seed), lambda: table, n, n_files=32,
        rows_per_file_hint=256, min_row_group=512,
    )
    lo, hi = window(workload)
    block = table.slice(lo, hi - lo)
    pairs = sorted(oracle_pairs(block))
    clusters = oracle_clusters(block, set(pairs))
    in_pair = {i for p in pairs for i in p}
    pq.write_table(
        pa.table({
            "src_id": pa.array([a for a, _ in pairs], pa.string()),
            "dst_id": pa.array([b for _, b in pairs], pa.string()),
        }),
        os.path.join(dest, "oracle_pairs.parquet"),
    )
    members = sorted(in_pair)
    pq.write_table(
        pa.table({
            "image_id": pa.array(members, pa.string()),
            "cluster_id": pa.array([clusters[i] for i in members], pa.string()),
        }),
        os.path.join(dest, "oracle_clusters.parquet"),
    )
    meta = {
        "workload": workload, "rows": n, "seed": seed,
        "window": [lo, hi], "oracle_pairs": len(pairs),
        "oracle_clustered_rows": len(members),
        "fingerprint": source_fingerprint(),
        "build_s": time.perf_counter() - t0,
    }
    with open(os.path.join(dest, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2)


def prepare(workload: str, seed: int, rebuild: bool = False) -> str:
    """Return the entry directory, building it on a cache miss."""
    if workload not in ROWS:
        raise ValueError(f"unknown workload {workload!r}")
    entry = entry_dir(workload, seed)
    if rebuild:
        shutil.rmtree(entry, ignore_errors=True)
    if os.path.exists(os.path.join(entry, "meta.json")):
        return entry
    tmp = f"{entry}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        _build(workload, seed, tmp)
        os.rename(tmp, entry)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROWS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rebuild", action="store_true",
                    help="delete the cached entry and build it again")
    args = ap.parse_args(argv)
    print(prepare(args.workload, args.seed, args.rebuild))
    return 0


if __name__ == "__main__":
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    sys.exit(main())
