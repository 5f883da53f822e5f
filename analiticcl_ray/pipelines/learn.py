"""Learn mode — iterative variant acquisition (``analiticcl learn``).

Replicates learn_variants (src/lib.rs:1062-1139) + the CLI driver loop
(src/bin/analiticcl.rs:484-557):

per iteration
  1. find variants for every input string (strict mode = whole-string
     ``find_variants``, src/lib.rs:1041-1049);
  2. every result meeting the thresholds adds the *input* string to the
     vocabulary as a TRANSPARENT entry linked to the matched reference
     (``add_variant``, src/lib.rs:478-514) — so later iterations can
     reach references *through* previously learned variants;
  3. inputs that produced a new variant are counted; iteration stops
     early when an iteration learns nothing new
     (src/bin/analiticcl.rs:512-516);
  4. the model is rebuilt (our VariantFinder is reconstructed — the
     distributed analog of auto_build, src/lib.rs:1132-1137) and
     re-broadcast to the actor pool.

Distributed shape: the per-iteration variant search streams the input
Dataset through ``find_variants_ds`` (actor pool, broadcast lexicon);
only the (small) learned-link set returns to the driver between
iterations — the reference's single-threaded mutation step
(src/lib.rs:1098-1126) stays driver-side by design since it mutates the
shared model.

Output mirrors the reference's reverse index (src/index.rs:14-23): one
row per (reference, variant, score, frequency).
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa

import ray.data

from ..config import SearchConfig
from .variants import INDEXED, TRANSPARENT, Lexicon, find_variants_ds


def apply_learned_links(
    lexicon: Lexicon,
    triples,
    agg: dict,
) -> int:
    """ONE iteration's mutation step (src/lib.rs:1098-1126 analog),
    shared verbatim by the distributed loop below and the local
    handoff-oracle recompute (sources/oracle_text.py) so the two can
    never drift: for each (input, matched_text, score) result triple,
    add the input as a TRANSPARENT vocab entry linked to the reference
    (skipping exact matches, duplicate links within the iteration, and
    links learned by a previous iteration). Returns the number of new
    links learned."""
    learned = 0
    seen_links: set[tuple[str, str]] = set()
    for inp, text, score in triples:
        if inp == text:
            continue  # exact match: nothing to learn
        if (inp, text) in seen_links:
            continue
        seen_links.add((inp, text))
        ref_idx = lexicon._encoder[text]
        var_idx = lexicon._encoder.get(inp)
        if var_idx is not None and any(
            t == ref_idx for t, _ in lexicon.variants.get(var_idx, [])
        ):
            continue  # link already learned in a previous iteration
        if var_idx is None:
            var_idx = lexicon.add(inp, agg.get(inp, 1), INDEXED | TRANSPARENT)
        else:
            lexicon.vocab_types[var_idx] |= TRANSPARENT
        lexicon.add_variant(var_idx, ref_idx, score)
        learned += 1
    return learned


def reverse_index_table(lexicon: Lexicon) -> pa.Table:
    """Reverse variant index (src/index.rs:14-23 analog) as one Arrow
    table: (reference, variant, score, frequency) — shared by the
    distributed loop and the handoff-oracle recompute."""
    rows = {"reference": [], "variant": [], "score": [], "frequency": []}
    for var_idx, links in lexicon.variants.items():
        for ref_idx, score in links:
            rows["reference"].append(lexicon.texts[ref_idx])
            rows["variant"].append(lexicon.texts[var_idx])
            rows["score"].append(float(score))
            rows["frequency"].append(int(lexicon.freqs[var_idx]))
    return pa.table(
        {
            "reference": pa.array(rows["reference"], pa.string()),
            "variant": pa.array(rows["variant"], pa.string()),
            "score": pa.array(rows["score"], pa.float64()),
            "frequency": pa.array(rows["frequency"], pa.int64()),
        }
    )


def learn_variants_ds(
    inputs: "ray.data.Dataset",
    lexicon: Lexicon,
    cfg: Optional[SearchConfig] = None,
    iterations: int = 2,
) -> tuple[Lexicon, "ray.data.Dataset", list[dict]]:
    """Returns (updated lexicon, reverse-variants Dataset, per-iteration
    stats). ``inputs`` needs an ``input`` string column (+ optional
    ``freq`` int column: occurrence count per distinct input)."""
    cfg = cfg or SearchConfig()
    stats: list[dict] = []
    # Driver-state bound: learn mode is inherently iterative against a
    # MUTABLE lexicon (the model, vocab-sized — the blessed broadcast
    # case), and the distinct-input aggregate below is bounded by the
    # query vocabulary, not the corpus. Matching the reference's
    # multi-pass learn semantics (src/bin/analiticcl.rs:929-934).
    # occurrence counts per distinct input (learn counts every occurrence,
    # src/lib.rs:1098-1126) — aggregate once up front
    agg = {}
    for b in inputs.iter_batches(batch_size=65536, batch_format="pyarrow"):
        freqs = (
            b["freq"].to_pylist()
            if "freq" in b.column_names
            else [1] * len(b)
        )
        for s, f in zip(b["input"].to_pylist(), freqs):
            agg[s] = agg.get(s, 0) + int(f)
    distinct = ray.data.from_arrow(
        pa.table({"input": pa.array(sorted(agg), pa.string())})
    )

    for it in range(iterations):
        results = find_variants_ds(distinct, lexicon, cfg)

        def _triples():
            for b in results.iter_batches(
                batch_size=65536, batch_format="pyarrow"
            ):
                yield from zip(
                    b["input"].to_pylist(),
                    b["text"].to_pylist(),
                    b["dist_score"].to_pylist(),
                )

        learned = apply_learned_links(lexicon, _triples(), agg)
        stats.append({"iteration": it + 1, "learned": learned})
        if learned == 0:
            break  # src/bin/analiticcl.rs:512-516

    # reverse index: reference -> variants
    reverse = ray.data.from_arrow(reverse_index_table(lexicon))
    return lexicon, reverse, stats
