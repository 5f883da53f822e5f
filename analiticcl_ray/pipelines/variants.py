"""Query-mode variant matching — the reference's primary API surface
(``analiticcl query`` / ``find_variants``), as a Ray Data pipeline.

Semantics replicated exactly (citations into /root/reference):

- candidate generation: the deletion/insertion anagram neighborhood of
  ``find_nearest_anahashes`` (src/lib.rs:1143-1308). The BFS over
  deletion hashes + containment scan over the secondary index is, in
  aggregate, "every index anagram within bag-of-characters distance
  max_anagram_distance of the query" (deletions remove from the bag,
  insertions add; the iterator reaches every shared sub-bag). We compute
  it directly as an L1 distance over character-count vectors —
  vectorized over the whole lexicon in one numpy op instead of a
  hash-map walk. StopAtExactMatch short-circuits to the exact bucket
  (src/lib.rs:1158-1173).
- candidate ordering: the reference iterates a BTreeSet<&AnaValue>
  (ascending anagram value) and, within a bucket, vocab insertion order
  (src/lib.rs:1311-1402) — replicated so tied results rank identically
  (tests/main.rs:871-911 requires "huis" before "huls").
- scoring/ranking/truncation/cutoff: score_and_rank
  (src/lib.rs:1405-1653) via functions/kernels.py, including freq
  normalization by the per-query max, transparent-variant expansion
  (src/lib.rs:1677-1727), confusable reweighting (src/lib.rs:1733-1756,
  applied late + re-rank), tie-aware truncation and the cutoff
  threshold.

Architecture (NOT the reference's): the lexicon is a *small side input*
(exactly what SURVEY.md §2.4 T1 allows to be resident): compiled once
into numpy arrays, shipped to each actor via ``ray.put`` once, and the
query dataset streams through ``map_batches(VariantFinder)`` — the
distributed analog of the reference's rayon ``par_iter`` over query
batches (src/bin/analiticcl.rs:418-482) with the model shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..config import SearchConfig
from ..functions.alphabet import PRIMES, Alphabet, Normalizer, simple_alphabet
from ..functions.confusables import Confusable, compute_confusable_weight
from ..functions.kernels import (
    MAX_ANAGRAM_DISTANCE,
    apply_cutoff,
    common_prefix_length,
    common_suffix_length,
    damerau_levenshtein,
    distance_score,
    longest_common_substring_length,
    rank_results,
    resolve_max_distance,
    same_case,
    truncate_results,
)
from ..stages.pools import actor_map

# vocab type bitflags, src/vocab.rs:31-49
INDEXED = 1
TRANSPARENT = 2


@dataclass
class Lexicon:
    """Compiled lexicon state (VocabDecoder analog, src/vocab.rs:93-96).

    ``variants[i]`` holds (target_index, score) links (VariantReference
    src/types.rs:315-323); ``lexindex`` is the source-lexicon bitmask
    (src/vocab.rs:77-89)."""

    texts: list[str] = field(default_factory=list)
    freqs: list[int] = field(default_factory=list)
    vocab_types: list[int] = field(default_factory=list)
    lexindex: list[int] = field(default_factory=list)
    variants: dict[int, list[tuple[int, float]]] = field(default_factory=dict)
    have_freq: bool = False
    #: source-lexicon display names by lexindex slot (reference
    #: model.lexicons, used by --output-lexmatch); optional
    lexicon_names: list[str] = field(default_factory=list)
    _encoder: dict[str, int] = field(default_factory=dict)

    def add(
        self,
        text: str,
        freq: Optional[int] = None,
        vocab_type: int = INDEXED,
        lexindex: int = 0,
    ) -> int:
        """Upsert (src/lib.rs:899-967): duplicate text merges frequency
        (Sum, the default FrequencyHandling) and ORs provenance bits."""
        if text in self._encoder:
            i = self._encoder[text]
            if freq is not None:
                self.freqs[i] += freq
                self.have_freq = True
            self.vocab_types[i] |= vocab_type
            self.lexindex[i] |= 1 << lexindex
            return i
        i = len(self.texts)
        self.texts.append(text)
        self.freqs.append(freq if freq is not None else 1)
        self.vocab_types.append(vocab_type)
        self.lexindex.append(1 << lexindex)
        if freq is not None:
            self.have_freq = True
        self._encoder[text] = i
        return i

    def add_variant(self, variant_idx: int, ref_idx: int, score: float) -> None:
        """Bidirectional link, variant -> reference (src/lib.rs:478-514)."""
        self.variants.setdefault(variant_idx, []).append((ref_idx, score))

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], lexindex: int = 0) -> "Lexicon":
        """rows of (text,) or (text, freq)."""
        lex = cls()
        for r in rows:
            if isinstance(r, str):
                lex.add(r, None, INDEXED, lexindex)
            elif len(r) > 1 and r[1] is not None:
                lex.add(r[0], int(r[1]), INDEXED, lexindex)
            else:
                lex.add(r[0], None, INDEXED, lexindex)
        return lex

    def read_tsv(self, text: str, text_column: int = 0, freq_column: Optional[int] = 1,
                 lexindex: int = 0) -> None:
        """Lexicon TSV (src/lib.rs:519-568): positional columns."""
        for line in text.splitlines():
            if not line.strip():
                continue
            fields = line.split("\t")
            t = fields[text_column]
            freq = None
            if freq_column is not None and len(fields) > freq_column:
                try:
                    freq = int(fields[freq_column])
                except ValueError:
                    freq = None
            self.add(t, freq, INDEXED, lexindex)

    def read_variants_tsv(self, text: str, transparent: bool = False,
                          lexindex: int = 0) -> None:
        """Weighted variant list (src/lib.rs:766-897): reference, then
        (variant, score) pairs — or with frequency columns autodetected
        ((n-2) % 3 == 0 and field 2 parses as int)."""
        has_freq: Optional[bool] = None
        vtype = INDEXED | (TRANSPARENT if transparent else 0)
        for line in text.splitlines():
            if not line.strip():
                continue
            fields = line.split("\t")
            reference = fields[0]
            if has_freq is None:
                if (len(fields) - 2) % 3 == 0 and len(fields) >= 2:
                    try:
                        int(fields[1])
                        has_freq = True
                    except ValueError:
                        has_freq = False
                else:
                    has_freq = False
            if has_freq:
                ref_freq = int(fields[1])
                ref_id = self.add(reference, ref_freq, INDEXED, lexindex)
                rest = fields[2:]
                step = 3
            else:
                ref_id = self.add(reference, None, INDEXED, lexindex)
                rest = fields[1:]
                step = 2
            for k in range(0, len(rest) - step + 1, step):
                variant = rest[k]
                score = float(rest[k + 1])
                vfreq = int(rest[k + 2]) if step == 3 else None
                var_id = self.add(variant, vfreq, vtype, lexindex)
                self.add_variant(var_id, ref_id, score)


class VariantFinder:
    """Actor: compiled lexicon + alphabet resident, queries stream through.

    Use directly (callable over a pyarrow batch with an ``input`` column)
    or via ``find_variants_ds``."""

    def __init__(
        self,
        lexicon_or_ref,
        cfg: SearchConfig | None = None,
        alphabet: Alphabet | None = None,
        confusables: list[Confusable] | None = None,
    ):
        lex = (
            ray.get(lexicon_or_ref)
            if isinstance(lexicon_or_ref, ray.ObjectRef)
            else lexicon_or_ref
        )
        self.lex = lex
        self.cfg = cfg or SearchConfig()
        self.norm = Normalizer(alphabet or simple_alphabet())
        self.confusables = confusables or []
        n = len(lex.texts)
        width = self.norm.size + 2
        self.norms = [self.norm.normalize(t) for t in lex.texts]
        self.bags = np.zeros((n, width), dtype=np.int32)
        anavals: list[int] = []
        for i, nm in enumerate(self.norms):
            if len(nm):
                np.add.at(self.bags[i], np.minimum(nm, width - 1), 1)
            # anagram value for candidate ordering (UNK folds to the
            # anahash UNK index, src/anahash.rs:40-44)
            v = 1
            for c in nm:
                idx = self.norm.unk_hash_index if c == self.norm.unk_norm else int(c)
                v *= int(PRIMES[idx])
            anavals.append(v)
        self.anavals = anavals
        self.lens = np.array([len(x) for x in self.norms], dtype=np.int64)
        # candidate iteration order: (anagram value asc, insertion order)
        self.order = sorted(range(n), key=lambda i: (anavals[i], i))
        self.order_pos = np.empty(n, dtype=np.int64)
        for pos, i in enumerate(self.order):
            self.order_pos[i] = pos
        self.freqs = np.array(lex.freqs, dtype=np.float64)

    # ------------------------------------------------------------------
    def find_variants(self, input_text: str) -> list[dict]:
        cfg = self.cfg
        lex = self.lex
        nm = self.norm.normalize(input_text)
        if len(nm) == 0:
            return []
        width = self.bags.shape[1]
        qbag = np.zeros(width, dtype=np.int32)
        np.add.at(qbag, np.minimum(nm, width - 1), 1)

        max_ana = resolve_max_distance(
            len(nm), cfg.max_anagram_distance, MAX_ANAGRAM_DISTANCE
        )
        max_edit = resolve_max_distance(len(nm), cfg.max_edit_distance)

        # neighborhood = bag distance <= max_ana (see module docstring)
        l1 = np.abs(self.bags - qbag[None, :]).sum(axis=1)
        cand = np.where(l1 <= max_ana)[0]
        if cfg.stop_at_exact_match:
            exact = cand[l1[cand] == 0]
            # exact *anagram* bucket with at least one entry stops the search
            if len(exact):
                cand = exact
        # reference iteration order for determinism of ties
        cand = cand[np.argsort(self.order_pos[cand], kind="stable")]

        nm_list = nm.tolist()
        results: list[dict] = []
        max_freq = 0.0
        has_expandable = False
        for i in cand:
            i = int(i)
            ld = damerau_levenshtein(nm_list, self.norms[i].tolist(), max_edit)
            if ld is None:
                continue
            w = cfg.weights
            score = distance_score(
                ld=ld,
                lcs=longest_common_substring_length(nm, self.norms[i]) if w.lcs > 0 else 0,
                prefixlen=common_prefix_length(nm_list, self.norms[i].tolist()) if w.prefix > 0 else 0,
                suffixlen=common_suffix_length(nm_list, self.norms[i].tolist()) if w.suffix > 0 else 0,
                samecase=same_case(lex.texts[i], input_text) if w.case > 0 else True,
                input_length=len(nm),
                weights=w,
            )
            freq_score = float(self.freqs[i]) if lex.have_freq else 1.0
            max_freq = max(max_freq, freq_score)
            if i in lex.variants:
                has_expandable = True
            if score >= cfg.score_threshold:
                results.append(
                    {
                        "vocab_id": i,
                        "dist_score": score,
                        "freq_score": freq_score,
                        "via": None,
                    }
                )

        if has_expandable:
            results = self._expand_variants(results)
            for r in results:
                max_freq = max(max_freq, r["freq_score"])
        if max_freq > 0.0:
            for r in results:
                r["freq_score"] = r["freq_score"] / max_freq

        results = rank_results(results, cfg.freq_weight)
        if has_expandable:  # dedup by vocab_id keeping first (src/lib.rs:1530-1533)
            seen = set()
            results = [
                r for r in results if not (r["vocab_id"] in seen or seen.add(r["vocab_id"]))
            ]
        results = truncate_results(results, cfg.max_matches, cfg.freq_weight)
        if self.confusables:  # LATE rescoring + re-rank (src/lib.rs:1591-1596)
            for r in results:
                r["dist_score"] *= compute_confusable_weight(
                    input_text, lex.texts[r["vocab_id"]], self.confusables
                )
            results = rank_results(results, cfg.freq_weight)
        results = apply_cutoff(results, cfg.cutoff_threshold, cfg.freq_weight)
        return results

    def _expand_variants(self, results: list[dict]) -> list[dict]:
        """src/lib.rs:1677-1727: follow variant links; transparent items
        are replaced by their references."""
        lex = self.lex
        out: list[dict] = []
        for r in results:
            i = r["vocab_id"]
            for target, var_score in lex.variants.get(i, ()):  # expand
                out.append(
                    {
                        "vocab_id": target,
                        "dist_score": r["dist_score"] * var_score,
                        "freq_score": min(float(lex.freqs[target]), r["freq_score"]),
                        "via": i,
                    }
                )
            if not (lex.vocab_types[i] & TRANSPARENT):
                out.append(r)
        return out

    # ------------------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        inputs = batch["input"].to_pylist()
        rows: dict[str, list] = {
            "input": [],
            "rank": [],
            "text": [],
            "dist_score": [],
            "freq_score": [],
            "via": [],
        }
        for q in inputs:
            for rank, r in enumerate(self.find_variants(q)):
                rows["input"].append(q)
                rows["rank"].append(rank)
                rows["text"].append(self.lex.texts[r["vocab_id"]])
                rows["dist_score"].append(r["dist_score"])
                rows["freq_score"].append(r["freq_score"])
                rows["via"].append(
                    self.lex.texts[r["via"]] if r["via"] is not None else None
                )
        return pa.table(
            {
                "input": pa.array(rows["input"], pa.string()),
                "rank": pa.array(rows["rank"], pa.int32()),
                "text": pa.array(rows["text"], pa.string()),
                "dist_score": pa.array(rows["dist_score"], pa.float64()),
                "freq_score": pa.array(rows["freq_score"], pa.float64()),
                "via": pa.array(rows["via"], pa.string()),
            }
        )


def find_variants_ds(
    queries: "ray.data.Dataset",
    lexicon: Lexicon,
    cfg: SearchConfig | None = None,
    alphabet: Alphabet | None = None,
    confusables: list[Confusable] | None = None,
) -> "ray.data.Dataset":
    """Distributed find_variants: query Dataset (column ``input``) ->
    result Dataset (input, rank, text, dist_score, freq_score, via)."""
    lex_ref = ray.put(lexicon)
    return actor_map(queries, VariantFinder, lex_ref, cfg, alphabet, confusables, batch_size=1024)
