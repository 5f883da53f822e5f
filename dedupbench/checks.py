"""Correctness checks on the program's outputs, computed apart from it.

Every check returns a list of problems (empty = pass). Pairs are lists
of ``(src_id, dst_id)`` tuples as the program emitted them (duplicates
and order kept); clusters are lists of ``(image_id, cluster_id)``.

- ``check_structure``: every pair canonical (src < dst), no self-pair,
  no pair twice.
- ``check_clusters_are_components``: the clusters are exactly the
  connected components of the pairs, by this module's own union-find.
- ``check_oracle``: pair set and cluster partition equal the brute-force
  oracle over the whole corpus.
- ``check_window``: the pairs with both ends inside a contiguous block
  of rows equal the oracle over that block.
- ``check_pair_sample``: on a seeded sample of pairs, a plain
  Damerau-Levenshtein written here stays within the configured cutoff,
  and the two images are byte-equal or at least the PSNR cutoff apart.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Iterable

import numpy as np

Pair = tuple[str, str]


def check_structure(pairs: list[Pair]) -> list[str]:
    problems = []
    self_pairs = [p for p in pairs if p[0] == p[1]]
    if self_pairs:
        problems.append(f"{len(self_pairs)} self-pairs, e.g. {self_pairs[0]}")
    flipped = [p for p in pairs if p[0] > p[1]]
    if flipped:
        problems.append(f"{len(flipped)} non-canonical pairs, e.g. {flipped[0]}")
    repeats = [p for p, c in Counter(pairs).items() if c > 1]
    if repeats:
        problems.append(f"{len(repeats)} pairs emitted twice, e.g. {repeats[0]}")
    return problems


def components(pairs: Iterable[Pair]) -> dict[str, str]:
    """image_id -> smallest id of its connected component."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def _partition(labels: dict[str, str]) -> set[frozenset[str]]:
    groups: dict[str, set[str]] = {}
    for node, label in labels.items():
        groups.setdefault(label, set()).add(node)
    return {frozenset(g) for g in groups.values()}


def _cluster_labels(clusters: list[tuple[str, str]]) -> tuple[dict[str, str], list[str]]:
    labels: dict[str, str] = {}
    problems = []
    repeats = [i for i, c in Counter(i for i, _ in clusters).items() if c > 1]
    if repeats:
        problems.append(f"{len(repeats)} rows in two clusters, e.g. {repeats[0]}")
    for image_id, cluster_id in clusters:
        labels[image_id] = cluster_id
    return labels, problems


def check_clusters_are_components(
    pairs: list[Pair], clusters: list[tuple[str, str]]
) -> list[str]:
    labels, problems = _cluster_labels(clusters)
    want = _partition(components(pairs))
    got = _partition(labels)
    if got != want:
        problems.append(
            f"clusters are not the components of the pairs: {len(got - want)} "
            f"clusters differ ({len(got)} clusters vs {len(want)} components)"
        )
    return problems


def _diff(name: str, got: set, want: set) -> list[str]:
    problems = []
    if want - got:
        problems.append(f"{len(want - got)} {name} missing, e.g. {sorted(want - got)[0]}")
    if got - want:
        problems.append(f"{len(got - want)} {name} extra, e.g. {sorted(got - want)[0]}")
    return problems


def check_oracle(
    pairs: list[Pair], clusters: list[tuple[str, str]],
    oracle_pairs: list[Pair], oracle_clusters: list[tuple[str, str]],
) -> list[str]:
    problems = check_structure(pairs)
    problems += _diff("pairs", set(pairs), set(oracle_pairs))
    labels, dup_rows = _cluster_labels(clusters)
    problems += dup_rows
    got, want = _partition(labels), _partition(dict(oracle_clusters))
    if got != want:
        problems.append(
            f"cluster partition differs from the oracle: {len(got - want)} "
            f"clusters not in the oracle, {len(want - got)} oracle clusters missing"
        )
    return problems


def check_window(
    pairs: list[Pair], window_ids: set[str], oracle_pairs: list[Pair]
) -> list[str]:
    inside = {p for p in pairs if p[0] in window_ids and p[1] in window_ids}
    return [f"window: {p}" for p in _diff("pairs", inside, set(oracle_pairs))]


# --- sample re-verification -------------------------------------------

def _normalize(text: str) -> str:
    """The verify alphabet (DedupConfig default): a-z case-folded, '.'
    and ',' one class, every other character one unknown class."""
    out = []
    for ch in text.lower():
        if "a" <= ch <= "z" or ch == ".":
            out.append(ch)
        elif ch == ",":
            out.append(".")
        else:
            out.append("\0")
    return "".join(out)


def damerau_levenshtein(a: str, b: str) -> int:
    """Unrestricted Damerau-Levenshtein distance (Lowrance-Wagner)."""
    inf = len(a) + len(b)
    last_row: dict[str, int] = {}
    d = [[inf] * (len(b) + 2)]
    d += [[inf] + list(range(len(b) + 1))]
    d += [[inf, i] + [0] * len(b) for i in range(1, len(a) + 1)]
    for i in range(1, len(a) + 1):
        last_col = 0
        for j in range(1, len(b) + 1):
            k = last_row.get(b[j - 1], 0)
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,
                d[i + 1][j] + 1,
                d[i][j + 1] + 1,
                d[k][last_col] + (i - k - 1) + 1 + (j - last_col - 1),
            )
            if cost == 0:
                last_col = j
        last_row[a[i - 1]] = i
    return d[len(a) + 1][len(b) + 1]


def edit_cutoff(length: int, threshold) -> int:
    """DL cutoff for a caption of ``length`` normalized characters under
    DedupConfig.max_edit_distance, a (ratio, limit) pair."""
    if not isinstance(threshold, tuple):
        raise ValueError(f"expected a (ratio, limit) cutoff, got {threshold!r}")
    ratio, limit = threshold
    return min(math.floor(length * ratio), limit)


def psnr_db(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return 0.0
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    return math.inf if mse == 0 else 10 * math.log10(255.0 ** 2 / mse)


SAMPLE_PAIRS = 200


def check_pair_sample(pairs: list[Pair], load_rows, cfg, seed: int) -> list[str]:
    """``load_rows(ids)`` -> {image_id: (caption, bytes, fmt)}. Decoding
    uses the program's codec; distance, cutoff and PSNR are computed
    here."""
    from analiticcl_ray.image.codec import decode

    problems = []
    distinct = sorted(set(pairs))
    sample = random.Random(seed).sample(distinct, min(SAMPLE_PAIRS, len(distinct)))
    rows = load_rows({i for p in sample for i in p})
    for a, b in sample:
        (cap_a, img_a, fmt_a), (cap_b, img_b, fmt_b) = rows[a], rows[b]
        na, nb = _normalize(cap_a), _normalize(cap_b)
        dist = damerau_levenshtein(na, nb)
        cut = edit_cutoff(max(len(na), len(nb)), cfg.max_edit_distance)
        if dist > cut:
            problems.append(f"pair {(a, b)}: caption distance {dist} > cutoff {cut}")
        if img_a != img_b:
            p = psnr_db(decode(img_a, fmt_a), decode(img_b, fmt_b))
            if p < cfg.psnr_db:
                problems.append(f"pair {(a, b)}: PSNR {p:.1f} dB < {cfg.psnr_db} dB")
    return problems
