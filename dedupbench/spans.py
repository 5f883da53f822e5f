"""Worker spans for the traced run.

The traced run swaps the four stage classes the pipelines hand to
``map_batches`` for subclasses that time each call: wall start and end,
thread CPU time, rows in and rows out. Each worker appends one JSON
line per call to its own file in the directory named by
``$DEDUPBENCH_SPANS``; the driver reads them after the job. Nothing
inside the program is changed: the subclasses live here, and
``installed()`` rebinds the module attributes the pipelines look the
classes up by.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import time

from analiticcl_ray.stages.signatures import CaptionSignatures
from analiticcl_ray.stages.substring import SubstringFingerprints
from analiticcl_ray.stages.verify import CaptionVerifier, ImageVerifier

SPAN_DIR_ENV = "DEDUPBENCH_SPANS"
STAGES = ("CaptionSignatures", "SubstringFingerprints", "CaptionVerifier", "ImageVerifier")


class _Traced:
    stage = ""

    def __call__(self, batch):
        t_enter = time.time()
        path = os.path.join(os.environ[SPAN_DIR_ENV], f"{os.getpid()}.jsonl")
        t0, c0 = time.time(), time.thread_time()
        out = super().__call__(batch)
        c1, t1 = time.thread_time(), time.time()
        with open(path, "a") as f:
            f.write(json.dumps({
                "stage": self.stage, "start": t0, "end": t1, "cpu": c1 - c0,
                "rows_in": batch.num_rows, "rows_out": out.num_rows,
                # time spent here outside the wrapped call, this write included
                "overhead": (t0 - t_enter) + (time.time() - t1),
            }) + "\n")
        return out


class TracedCaptionSignatures(_Traced, CaptionSignatures):
    stage = "CaptionSignatures"


class TracedSubstringFingerprints(_Traced, SubstringFingerprints):
    stage = "SubstringFingerprints"


class TracedCaptionVerifier(_Traced, CaptionVerifier):
    stage = "CaptionVerifier"


class TracedImageVerifier(_Traced, ImageVerifier):
    stage = "ImageVerifier"


_BINDINGS = (
    ("analiticcl_ray.stages.signatures", "CaptionSignatures", TracedCaptionSignatures),
    ("analiticcl_ray.stages.substring", "SubstringFingerprints", TracedSubstringFingerprints),
    ("analiticcl_ray.stages.verify", "CaptionVerifier", TracedCaptionVerifier),
    ("analiticcl_ray.stages.verify", "ImageVerifier", TracedImageVerifier),
    # dedup_pipeline binds the classes at import; the runner imports
    # them from the stage modules on every call
    ("analiticcl_ray.pipelines.dedup", "CaptionSignatures", TracedCaptionSignatures),
    ("analiticcl_ray.pipelines.dedup", "SubstringFingerprints", TracedSubstringFingerprints),
    ("analiticcl_ray.pipelines.dedup", "CaptionVerifier", TracedCaptionVerifier),
    ("analiticcl_ray.pipelines.dedup", "ImageVerifier", TracedImageVerifier),
)


@contextlib.contextmanager
def installed(span_dir: str):
    """Route the pipelines' stage classes through the traced subclasses,
    writing spans under ``span_dir``, for the duration of the block.
    Set it up before the Ray session starts: workers inherit the
    environment variable from the node processes."""
    import importlib

    os.makedirs(span_dir, exist_ok=True)
    os.environ[SPAN_DIR_ENV] = span_dir
    saved = []
    for mod_name, attr, traced in _BINDINGS:
        mod = importlib.import_module(mod_name)
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, traced)
    try:
        yield
    finally:
        for mod, attr, orig in saved:
            setattr(mod, attr, orig)
        os.environ.pop(SPAN_DIR_ENV, None)


def read_spans(span_dir: str) -> dict[str, dict]:
    """Per-stage totals over every span file in ``span_dir``."""
    out = {
        s: {"busy_s": 0.0, "cpu_s": 0.0, "calls": 0, "rows_in": 0, "overhead_s": 0.0}
        for s in STAGES
    }
    for path in glob.glob(os.path.join(span_dir, "*.jsonl")):
        with open(path) as f:
            for line in f:
                if not line.endswith("\n"):
                    continue  # a worker killed mid-write
                rec = json.loads(line)
                agg = out[rec["stage"]]
                agg["busy_s"] += rec["end"] - rec["start"]
                agg["cpu_s"] += rec["cpu"]
                agg["calls"] += 1
                agg["rows_in"] += rec["rows_in"]
                agg["overhead_s"] += rec["overhead"]
    return out
