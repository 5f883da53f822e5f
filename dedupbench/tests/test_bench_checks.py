"""The benchmark's correctness checks must reject wrong outputs.

Each check runs on a correct output (the brute-force oracle over a small
seeded corpus, which it must accept) and on five corruptions of it: a
dropped pair, an extra pair, a self-pair, a duplicated pair and two
merged clusters. No Ray.

    python3 -m pytest dedupbench/tests -q
"""

from __future__ import annotations

import pytest

from dedupbench import checks

N_ROWS = 300


@pytest.fixture(scope="module")
def truth():
    from analiticcl_ray.pipelines.oracle import oracle_clusters, oracle_pairs
    from analiticcl_ray.sources.corpus import generate_corpus

    table = generate_corpus(N_ROWS, 5)
    pairs = sorted(oracle_pairs(table))
    labels = oracle_clusters(table, set(pairs))
    in_pair = sorted({i for p in pairs for i in p})
    clusters = [(i, labels[i]) for i in in_pair]
    rows = {
        i: (c, b, f) for i, c, b, f in zip(
            table["image_id"].to_pylist(), table["caption"].to_pylist(),
            table["bytes"].to_pylist(), table["fmt"].to_pylist(),
        )
    }
    ids = table["image_id"].to_pylist()
    return pairs, clusters, rows, ids


def _two_clusters(clusters):
    by_label = {}
    for i, c in clusters:
        by_label.setdefault(c, []).append(i)
    a, b = sorted(by_label)[:2]
    return a, b


def corrupt(kind, pairs, clusters, ids):
    """Return (pairs, clusters) with one defect of ``kind``."""
    pairs, clusters = list(pairs), list(clusters)
    if kind == "dropped_pair":
        # a pair whose loss splits its cluster: its ends share no other edge
        degree = {}
        for a, b in pairs:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        victim = next(p for p in pairs if degree[p[0]] == 1 or degree[p[1]] == 1)
        pairs.remove(victim)
    elif kind == "extra_pair":
        in_pair = {i for p in pairs for i in p}
        a, b = [i for i in ids if i not in in_pair][:2]
        pairs.append((a, b))
    elif kind == "self_pair":
        a = pairs[0][0]
        pairs.append((a, a))
    elif kind == "duplicated_pair":
        pairs.append(pairs[len(pairs) // 2])
    elif kind == "merged_clusters":
        a, b = _two_clusters(clusters)
        clusters = [(i, a if c == b else c) for i, c in clusters]
    else:
        raise ValueError(kind)
    return pairs, clusters


KINDS = ["dropped_pair", "extra_pair", "self_pair", "duplicated_pair", "merged_clusters"]


def whole_corpus_check(pairs, clusters, truth):
    """What dedup_floor and checkpointed_resume run on every output."""
    t_pairs, t_clusters, rows, _ = truth
    from analiticcl_ray.config import DedupConfig

    return (
        checks.check_oracle(pairs, clusters, t_pairs, t_clusters)
        + checks.check_clusters_are_components(pairs, clusters)
        + checks.check_pair_sample(pairs, lambda ids: rows, DedupConfig(), seed=1)
    )


def window_check(pairs, clusters, truth):
    """What dedup_20k runs: window oracle + whole-output checks. The
    window here is the whole small corpus, so every corruption lands in
    it."""
    t_pairs, _, rows, ids = truth
    from analiticcl_ray.config import DedupConfig

    return (
        checks.check_window(pairs, set(ids), t_pairs)
        + checks.check_structure(pairs)
        + checks.check_clusters_are_components(pairs, clusters)
        + checks.check_pair_sample(pairs, lambda ids: rows, DedupConfig(), seed=1)
    )


@pytest.mark.parametrize("check", [whole_corpus_check, window_check])
def test_accepts_the_oracle(check, truth):
    pairs, clusters, _, _ = truth
    assert len(pairs) > 20
    assert check(pairs, clusters, truth) == []


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("check", [whole_corpus_check, window_check])
def test_rejects_corruption(check, kind, truth):
    pairs, clusters, _, ids = truth
    bad_pairs, bad_clusters = corrupt(kind, pairs, clusters, ids)
    assert check(bad_pairs, bad_clusters, truth), f"{check.__name__} accepted a {kind}"


@pytest.mark.parametrize("kind", ["self_pair", "duplicated_pair", "merged_clusters"])
def test_structure_checks_alone_reject(kind, truth):
    """Outside the window only the whole-output checks see a defect."""
    pairs, clusters, _, ids = truth
    bad_pairs, bad_clusters = corrupt(kind, pairs, clusters, ids)
    problems = checks.check_structure(bad_pairs) + checks.check_clusters_are_components(
        bad_pairs, bad_clusters)
    assert problems


def test_extra_pair_between_strangers_fails_the_sample_check(truth):
    """A non-duplicate pair fails the re-verification when sampled."""
    pairs, _, rows, ids = truth
    from analiticcl_ray.config import DedupConfig

    in_pair = {i for p in pairs for i in p}
    a, b = [i for i in ids if i not in in_pair][:2]
    assert checks.check_pair_sample([(a, b)], lambda ids: rows, DedupConfig(), seed=1)


def test_damerau_levenshtein_counts_a_transposition_as_one():
    assert checks.damerau_levenshtein("right", "rihgt") == 1
    assert checks.damerau_levenshtein("ca", "abc") == 2  # not 3 as in OSA
    assert checks.damerau_levenshtein("think", "tink") == 1
    assert checks.damerau_levenshtein("", "abc") == 3
