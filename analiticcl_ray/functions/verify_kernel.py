"""The per-pair verify kernel — single source of truth for "is this pair
a duplicate".

Used identically by (a) the distributed verify actor stage
(stages/verify.py) and (b) the brute-force O(n^2) oracle
(pipelines/oracle.py), so pipeline recall is measured against the exact
same semantics.

Duplicate definition (north rule + input_hint):
- caption side: analiticcl distance score (src/lib.rs:1430-1452) between
  alphabet-normalized captions >= ``caption_score_threshold``, with the
  Damerau-Levenshtein cutoff resolved per src/lib.rs:982-1012. The
  reference score is asymmetric (normalized by the *input* length); for
  an unordered pair we score relative to the LONGER caption — the harsher
  of the two directions — making the pair score symmetric and
  deterministic.
- image side: exact bytes equality, OR decoded-pixel PSNR >= ``psnr_db``
  (40 dB default, the input_hint lossy criterion).
- dup <=> caption-dup AND image-dup.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import DedupConfig
from ..functions.kernels import pair_distance_score_np, resolve_max_distance
from ..image.codec import decode, psnr


def caption_pair_score(
    norm_a: np.ndarray,
    norm_b: np.ndarray,
    text_a: str,
    text_b: str,
    cfg: DedupConfig,
) -> Optional[float]:
    """Symmetric caption similarity; None if above the DL cutoff or the
    'input' (longer) caption normalizes to length 0."""
    # input side = longer normstring (tie: lexicographically smaller text)
    if len(norm_a) > len(norm_b) or (len(norm_a) == len(norm_b) and text_a <= text_b):
        inp_n, oth_n, inp_t, oth_t = norm_a, norm_b, text_a, text_b
    else:
        inp_n, oth_n, inp_t, oth_t = norm_b, norm_a, text_b, text_a
    if len(inp_n) == 0:
        return None
    max_ed = resolve_max_distance(len(inp_n), cfg.max_edit_distance)
    # row-vectorized DL (bit-identical to the scalar DP; parity
    # fuzz-tested) — the hot path of the caption verify actors
    return pair_distance_score_np(inp_n, oth_n, inp_t, oth_t, max_ed, cfg.weights)


def image_pair_dup(
    bytes_a: bytes,
    fmt_a: str,
    bytes_b: bytes,
    fmt_b: str,
    cfg: DedupConfig,
    pixel_cache: Optional[dict] = None,
    key_a: Optional[str] = None,
    key_b: Optional[str] = None,
) -> tuple[bool, float]:
    """(is_dup, psnr_db). Exact bytes short-circuits decode."""
    if bytes_a == bytes_b:
        return True, float("inf")

    def _px(blob: bytes, fmt: str, key: Optional[str]) -> np.ndarray:
        if pixel_cache is not None and key is not None and key in pixel_cache:
            return pixel_cache[key]
        px = decode(blob, fmt)
        if pixel_cache is not None and key is not None:
            if len(pixel_cache) > 4096:
                pixel_cache.clear()
            pixel_cache[key] = px
        return px

    pa_ = _px(bytes_a, fmt_a, key_a)
    pb_ = _px(bytes_b, fmt_b, key_b)
    val = psnr(pa_, pb_)
    return val >= cfg.psnr_db, val
