"""Engine configuration.

``DedupConfig`` parameterizes the whole dedup pipeline; the defaults are
the *fixed* shingle/signature config the recall target (>=0.99 vs the
brute-force oracle, BASELINE.json) is validated at.

``SearchConfig`` mirrors analiticcl's ``SearchParameters``
(src/types.rs:110-198; defaults src/types.rs:173-196) for the
query-mode parity API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .functions.kernels import Weights

# Distance threshold forms, src/types.rs:76-108:
#   int            -> Absolute(x)        (capped at floor(len/2))
#   float          -> Ratio(r)           (capped at MAX_*_DISTANCE = 12)
#   (float, int)   -> RatioWithLimit
DistanceThreshold = Union[int, float, tuple[float, int]]


@dataclass(frozen=True)
class DedupConfig:
    # --- shingling / signatures (fixed config for the recall target) ---
    shingle_n: int = 4                    # char n-grams, anagram-valued keys
    num_perm: int = 128                   # MinHash permutations
    bands: int = 16                       # LSH bands (rows = num_perm // bands):
                                          # r=8 keeps P[candidate] high for real
                                          # dups (J>=0.85 -> 0.994+) while the
                                          # winnowing substring stage and exact
                                          # content keys back up the band miss
                                          # probability; measured recall 1.0 vs
                                          # the oracle across seeds (tests)
    phash_bands: int = 4                  # 16-bit bands over the 64-bit phash
    use_phash_bands: bool = True          # image-side candidates (needed for
                                          # caption-drifted chains whose
                                          # images stay near-identical)
    phash_bucket_cap: int = 32            # phash slice buckets get a much
    phash_drop_threshold: int = 32        # tighter degeneracy threshold than
                                          # caption bands: true image-dup
                                          # groups are small, while DCT sign
                                          # slices cluster heavily across
                                          # natural images (measured ~90% of
                                          # false candidates without this);
                                          # dropped buckets are still counted
                                          # in metrics — no silent caps.
    phash_max_hamming: Union[int, None] = 8  # exact 64-bit hamming prefilter on
                                          # phash-banded pairs at emission
                                          # (inside the cogroup — no extra
                                          # shuffle): a PSNR>=40dB dup has
                                          # near-identical phash (measured
                                          # max 4 bits across seeds) while
                                          # random natural-image pairs sit at
                                          # ~32 bits (min observed 12). 8 is
                                          # a measured margin, not a proven
                                          # bound: a PSNR dup further apart
                                          # is dropped uncounted; None
                                          # disables.
    winnow_kgram: int = 20                # substring-stage k-gram length
    winnow_window: int = 8                # winnowing window (guarantee: spans
                                          # >= kgram+window-1 chars share a key)
    # --- candidate generation safety valves -----------------------------
    bucket_cap: int = 256                 # max ids per LSH bucket before salting
    # --- verification ---------------------------------------------------
    max_edit_distance: DistanceThreshold = (0.2, 12)   # RatioWithLimit
    caption_score_threshold: float = 0.7  # analiticcl score on captions
    psnr_db: float = 40.0                 # lossy-image dup cutoff (input_hint)
    weights: Weights = field(default_factory=Weights)
    # --- seeds ----------------------------------------------------------
    seed: int = 0x5EED

    @property
    def band_rows(self) -> int:
        assert self.num_perm % self.bands == 0
        return self.num_perm // self.bands


@dataclass(frozen=True)
class SearchConfig:
    """Query-mode knobs, defaults per src/types.rs:173-196."""

    max_anagram_distance: DistanceThreshold = 3
    max_edit_distance: DistanceThreshold = 3
    max_matches: int = 20
    score_threshold: float = 0.25
    cutoff_threshold: float = 2.0
    freq_weight: float = 0.0
    stop_at_exact_match: bool = False     # StopCriterion::StopAtExactMatch
    weights: Weights = field(default_factory=Weights)
