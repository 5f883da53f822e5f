"""Training-data text operations over the ``documents`` table.

The large-scale-pipeline operator set the graft requires beyond the
reference's own API (task brief): exact dedup, n-gram-Jaccard near-dup,
MinHash-LSH near-dup, SimHash fingerprints, language-ID, quality
scoring, token counting, document fingerprinting, anagram grouping
(the analiticcl-flavored op: group words by bag-of-characters key,
src/anahash.rs:16-47 applied to whole words).

Every function takes/returns ``ray.data.Dataset``; the SQL-expressible
ones have a DuckDB oracle in __ray_entry__.py computing the same result
(column names and value derivations chosen to be bit-identical: derived
floats appear only as single divisions of exact integers).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import DedupConfig
from ..functions.alphabet import Normalizer, simple_alphabet, shingle_keys_from_norm
from ..stages import driver
from ..stages.exchange import exchange
from ..stages.pools import actor_map
from ..stages.signatures import splitmix64

_WS = re.compile(r"\s+")
_U64 = np.uint64

#: RE2's ``\s`` (as DuckDB uses it) is the ASCII class [\t\n\f\r ] — it
#: does NOT match Unicode whitespace (NBSP, U+2028, NEL, vertical tab),
#: unlike Python's str.split()/pandas default. Probed empirically
#: against DuckDB 1.x: regexp_split_to_array('a\xa0b','\s+') -> 1 field.
_DUCK_WS = r"[\t\n\f\r ]+"

#: what DuckDB's default ``trim()`` strips: exactly the Unicode Zs
#: (space-separator) category — probed exhaustively over the BMP
#: against a live DuckDB (test_oracle_parity.py); no Zs codepoints
#: exist outside the BMP.
_DUCK_TRIM = "\x20\xa0\u1680" + "".join(
    map(chr, range(0x2000, 0x200B))
) + "\u202f\u205f\u3000"


def oracle_tokens(s: pd.Series) -> pd.Series:
    """Tokenize a text Series EXACTLY as the DuckDB oracle expression
    ``CASE WHEN trim(text)='' THEN [] ELSE
    regexp_split_to_array(trim(text),'\\s+') END`` does: DuckDB's
    default ``trim`` strips EXACTLY the Unicode Zs (space-separator)
    category — space, NBSP, U+1680, U+2000-200A, U+202F, U+205F,
    U+3000, but NOT tab/newline/NEL/U+2028 (probed exhaustively over
    the BMP, test_oracle_parity.py); the split class is RE2's ASCII
    ``\\s`` (so an interior NBSP is a token char, and a leading tab
    yields an empty leading field, as DuckDB's does), and
    empty-after-trim means zero tokens (the ADVICE-r1 empty-doc rule).
    Every operator whose oracle splits on ``\\s+`` must tokenize
    through this helper — bit-parity by construction, not by luck."""
    t = s.fillna("").str.strip(_DUCK_TRIM)
    toks = t.str.split(_DUCK_WS, regex=True)
    empty = t == ""
    if empty.any():
        toks = toks.copy()
        toks[empty] = pd.Series([[] for _ in range(int(empty.sum()))],
                                index=toks.index[empty])
    return toks


def ascii_ws_tokens(s: pd.Series) -> pd.Series:
    """Tokenize as maximal runs of non-ASCII-whitespace characters —
    bit-identical to the quality_signals oracle's ``trim(text, <all
    ASCII ws>)`` + ``regexp_split_to_array(..., '[ \\t\\n\\r\\f\\v]+')``:
    no empty fields ever, Unicode whitespace (NBSP/U+2028/NEL) stays
    inside tokens. Differs from [[oracle_tokens]] only on docs with
    leading/trailing non-space ASCII whitespace."""
    return s.fillna("").str.findall(r"[^\t\n\r\f\x0b ]+")


def _pa_clean(df: pd.DataFrame) -> pa.Table:
    """pandas -> metadata-free Arrow (the b'pandas' schema blob defeats
    Ray's reduce-side schema dedup)."""
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


# ---------------------------------------------------------------------
# exact dedup (hash-partition + per-group aggregate)
# ---------------------------------------------------------------------

def exact_dedup(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """One row per distinct text: representative = min doc_id, plus the
    duplicate count. Pre-aggregates per batch (combiner) before the
    groupby so the shuffle carries one row per distinct text per block."""

    def _partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["doc_id", "text"]).to_pandas()
        g = df.groupby("text", sort=False)["doc_id"].agg(["min", "count"]).reset_index()
        return pa.table(
            {
                "text": pa.array(g["text"], pa.string()),
                "rep_id": pa.array(g["min"], pa.int64()),
                "n_dups": pa.array(g["count"], pa.int64()),
            }
        )

    def _merge_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.groupby("text", sort=False)
            .agg(rep_id=("rep_id", "min"), n_dups=("n_dups", "sum"))
            .reset_index()
        )
        return out

    return exchange(
        docs.map_batches(_partial, batch_format="pyarrow"),
        ["text"],
        _merge_bucket,
    )


def _labels_as_doc_clusters(labels: "ray.data.Dataset") -> "ray.data.Dataset":
    """(image_id, cluster_id) -> (doc_id, cluster_id), schema-stable on
    empty input (Ray drops empty blocks through map_batches, which
    would erase the schema and fail the driver's schema check)."""
    if labels.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "cluster_id": pa.array([], pa.int64())}
            )
        )
    return labels.map_batches(
        lambda t: t.rename_columns(["doc_id", "cluster_id"]), batch_format="pyarrow"
    )


def exact_dup_clusters(docs: "ray.data.Dataset", bucket_cap: int = 1_000_000) -> "ray.data.Dataset":
    """Cluster assignments for exact-duplicate documents, end-to-end
    distributed: content-hash co-occurrence pairs (stages/lsh.py, ONE
    shuffle) -> text-equality verify (attach + vectorized Arrow
    compare; hash collisions can only ADD candidate edges, equality
    removes them) -> distributed min-label CC (stages/cc.py). Emits
    (doc_id, cluster_id=min doc_id of the text group) for every doc
    whose text occurs >= 2 times — the SQL-checkable slice of the
    clustering path (window-min oracle in __ray_entry__.py).

    ``bucket_cap`` must exceed the largest duplicate group for exact
    cluster parity (salting keeps connectivity only among equal-text
    pairs); drops are counted by the lsh stage, never silent."""
    import pyarrow.compute as pc

    from ..stages.cc import cc_auto
    from ..stages.lsh import cooccurrence_pairs, dedup_pairs
    from ..stages.verify import attach_pair_sides

    def _key(batch: pa.Table) -> pa.Table:
        h = pd.util.hash_pandas_object(
            batch["text"].to_pandas(), index=False
        ).to_numpy()
        return pa.table(
            {
                "content_key": pa.array(h.view(np.int64), pa.int64()),
                "doc_id": batch["doc_id"],
            }
        )

    rows = docs.select_columns(["doc_id", "text"]).map_batches(
        _key, batch_format="pyarrow"
    )
    cand = dedup_pairs(
        cooccurrence_pairs(
            rows, "content_key", "doc_id", cap=bucket_cap, id_dtype="int"
        ),
        id_dtype="int",
    )
    attached = attach_pair_sides(
        cand,
        docs.select_columns(["doc_id", "text"]),
        ["text"],
        method="auto",
        id_col="doc_id",
    )

    def _verify(batch: pa.Table) -> pa.Table:
        eq = pc.equal(batch["src_text"], batch["dst_text"])
        kept = batch.filter(eq)
        return pa.table({"src_id": kept["src_id"], "dst_id": kept["dst_id"]})

    labels, _ = cc_auto(attached.map_batches(_verify, batch_format="pyarrow"))
    return _labels_as_doc_clusters(labels)


def near_dup_clusters(
    docs: "ray.data.Dataset", n: int = 3, threshold: float = 0.8
) -> "ray.data.Dataset":
    """Near-duplicate document clusters: exact n-gram-Jaccard pairs
    (``ngram_jaccard_pairs``, dense or sparse by vocabulary) closed
    under transitivity by the distributed min-label CC (stages/cc.py).
    Emits (doc_id, cluster_id = min doc_id of the component) for every
    doc in >= 1 verified pair. Fully SQL-checkable: the oracle computes
    the same pairs and closes them with a recursive CTE."""
    from ..stages.cc import cc_auto

    pairs = ngram_jaccard_pairs(docs, n=n, threshold=threshold)
    edges = pairs.map_batches(
        lambda t: pa.table({"src_id": t["a"], "dst_id": t["b"]}),
        batch_format="pyarrow",
    )
    return _labels_as_doc_clusters(cc_auto(edges)[0])


# ---------------------------------------------------------------------
# token / quality stats (stateless vectorized map)
# ---------------------------------------------------------------------

def doc_stats(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-document token/quality stats. Token = maximal non-whitespace
    run of trimmed text (same as DuckDB regexp_split_to_array(trim(x),
    '\\s+'))."""

    def _stats(batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas()
        toks = oracle_tokens(s)  # oracle-exact; trim(' ') + ASCII \s
        n_tokens = toks.str.len().to_numpy(dtype=np.int64)
        n_chars = s.str.len().to_numpy(dtype=np.int64)
        ex = toks.explode().dropna()
        nd = ex.groupby(level=0).nunique()
        n_distinct = np.zeros(len(s), dtype=np.int64)
        n_distinct[nd.index.to_numpy()] = nd.to_numpy()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_distinct_tokens": pa.array(n_distinct, pa.int64()),
                "n_chars_computed": pa.array(n_chars, pa.int64()),
                # single int/int divisions -> bit-identical to SQL
                "avg_token_len": pa.array(
                    np.where(n_tokens > 0, n_chars / np.maximum(n_tokens, 1), 0.0),
                    pa.float64(),
                ),
                "distinct_ratio": pa.array(
                    np.where(n_tokens > 0, n_distinct / np.maximum(n_tokens, 1), 0.0),
                    pa.float64(),
                ),
            }
        )

    return docs.map_batches(_stats, batch_format="pyarrow")


#: fixed English stopword list for the Gopher-style quality signals
#: (Rae et al. 2021 §A1.1 uses a similar small closed-class list);
#: deterministic, matched against lowercased whitespace tokens
_STOPWORDS = (
    "the", "a", "an", "and", "of", "to", "in", "is", "on", "for",
    "with", "as", "by", "at", "that", "be", "it", "or", "are", "this",
)

#: ASCII punctuation as a regex class — identical to POSIX [[:punct:]]
#: and Python's string.punctuation: !-/ :-@ [-` {-~
_PUNCT_CLASS = r"[!-/:-@\[-`{-~]"


def quality_signals(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Gopher-style per-document quality ratios (the brief's
    "length/punct/stopword ratios"): ``stopword_ratio`` = stopword
    tokens / tokens, ``punct_ratio`` = ASCII-punctuation chars / chars,
    ``alpha_token_ratio`` = tokens containing [A-Za-z] / tokens (the
    Gopher ">=80% of words contain an alphabetic character" rule).
    Stateless vectorized map; all floats are single int/int divisions
    so the DuckDB oracle is bit-identical."""

    def _signals(batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas()
        toks = ascii_ws_tokens(s)
        n_tokens = toks.str.len().to_numpy(dtype=np.int64)
        n_chars = s.str.len().to_numpy(dtype=np.int64)
        n_punct = s.str.count(_PUNCT_CLASS).to_numpy(dtype=np.int64)
        n_stop = np.zeros(len(s), dtype=np.int64)
        n_alpha = np.zeros(len(s), dtype=np.int64)
        ex = toks.explode().dropna()
        if len(ex):
            sw = ex.str.lower().isin(_STOPWORDS).groupby(level=0).sum()
            n_stop[sw.index.to_numpy()] = sw.to_numpy()
            al = ex.str.contains("[A-Za-z]", regex=True).groupby(level=0).sum()
            n_alpha[al.index.to_numpy()] = al.to_numpy()
        tok_div = np.maximum(n_tokens, 1)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_stopwords": pa.array(n_stop, pa.int64()),
                "n_punct_chars": pa.array(n_punct, pa.int64()),
                "stopword_ratio": pa.array(
                    np.where(n_tokens > 0, n_stop / tok_div, 0.0), pa.float64()
                ),
                "punct_ratio": pa.array(
                    np.where(n_chars > 0, n_punct / np.maximum(n_chars, 1), 0.0),
                    pa.float64(),
                ),
                "alpha_token_ratio": pa.array(
                    np.where(n_tokens > 0, n_alpha / tok_div, 0.0), pa.float64()
                ),
            }
        )

    return docs.map_batches(_signals, batch_format="pyarrow")


def quality_filter(docs: "ray.data.Dataset", min_tokens: int = 20,
                   min_distinct_ratio: float = 0.3) -> "ray.data.Dataset":
    """Quality gate: docs passing token-count and repetition thresholds
    (the classic pretraining-corpus filter)."""
    stats = doc_stats(docs)
    return stats.filter(
        expr=f"n_tokens >= {min_tokens} and distinct_ratio >= {min_distinct_ratio}"
    ).select_columns(["doc_id", "n_tokens", "distinct_ratio"])


def _blockwise_topk(
    ds: "ray.data.Dataset",
    by: list,
    ascending: list,
    k: int,
    finalize=None,
) -> "ray.data.Dataset":
    """Global top-k WITHOUT a global sort (VERDICT r2 item 4: a range
    shuffle + sampling pass to keep k rows is an all-to-all for
    nothing): each block emits its local top-k, then one
    constant-sized ``repartition(1)`` merge picks the final k —
    shuffle volume is k × n_blocks rows, independent of input size.
    EXACT only when each key's full weight lives in one block (every
    doc / merged count row appears exactly once upstream), since the
    global top-k is then a subset of the per-block top-ks.
    ``finalize`` post-processes the final k-row frame (e.g. rank)."""

    def _topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(by, ascending=ascending, kind="mergesort").head(k)

    def _block(batch: pa.Table) -> pa.Table:
        return _pa_clean(_topk(batch.to_pandas()))

    def _final(batch: pa.Table) -> pa.Table:
        df = _topk(batch.to_pandas()).reset_index(drop=True)
        if finalize is not None:
            df = finalize(df)
        return _pa_clean(df)

    return (
        ds.map_batches(_block, batch_format="pyarrow")
        .repartition(1)
        .map_batches(_final, batch_format="pyarrow", batch_size=None)
    )


def top_docs(docs: "ray.data.Dataset", k: int = 50) -> "ray.data.Dataset":
    """Top-k documents by token count (n_tokens desc, doc_id asc) —
    the distributed sort+limit operator (SURVEY §2.7 O-section at
    document scale) via the [[_blockwise_topk]] per-block combiner
    (exact: every doc appears in exactly one block). Same
    deterministic order contract as the global-sort form."""
    return _blockwise_topk(
        doc_stats(docs).select_columns(["doc_id", "n_tokens"]),
        ["n_tokens", "doc_id"],
        [False, True],
        k,
    )


def inverted_index(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Token -> posting list over the corpus (search-index build): per
    token, the count of containing documents and the sorted distinct
    doc-id postings (comma-joined canonical string — engine-portable
    and hash-comparable; a list column would hash differently between
    Arrow and SQL engines).

    Shape: per-batch (token, doc_id) distinct pairs (the combiner — a
    token repeated inside a doc ships once per block), ONE token-bucket
    cogroup, and a C-speed per-bucket groupby that sorts + joins each
    posting list. Postings are per-token-sized: the hot-key concern at
    corpus scale is a stop-word token whose posting string is the
    corpus itself — cap or drop df > threshold tokens upstream
    (quality pipelines never index stop-words)."""

    def _partial(batch: pa.Table) -> pa.Table:
        toks = oracle_tokens(batch["text"].to_pandas())
        ids = batch["doc_id"].to_pandas()
        flat = toks.explode().dropna()
        df = pd.DataFrame(
            {"token": flat.to_numpy(dtype=object),
             "doc_id": ids.take(flat.index).to_numpy()}
        ).drop_duplicates()
        return _pa_clean(df)

    def _merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["token", "doc_id"]).sort_values(
            ["token", "doc_id"], kind="mergesort"
        )
        agg = g.groupby("token", sort=False)["doc_id"].agg(
            n_docs="size", postings=lambda s: ",".join(map(str, s))
        ).reset_index()
        agg["n_docs"] = agg["n_docs"].astype("int64")
        return agg

    return exchange(
        docs.map_batches(_partial, batch_format="pyarrow"),
        ["token"],
        _merge,
    )


def top_docs_per_group(
    docs: "ray.data.Dataset", k: int = 5, group_col: str = "lang"
) -> "ray.data.Dataset":
    """Group-wise top-k: the k longest documents (by n_chars desc,
    doc_id asc tie-break) per group — the windowed-rank primitive Ray
    Data lacks.

    Shape: a per-batch partial top-k per group (the combiner — at most
    k rows per (block, group) ever shuffle) feeds ONE group-bucket
    cogroup where a C-speed sort + ``groupby.head(k)`` picks the final
    winners. No global sort: the shuffle volume is k x n_groups x
    n_blocks rows, independent of corpus size."""

    def _partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["doc_id", group_col, "n_chars"]).to_pandas()
        out = (
            df.sort_values(
                ["n_chars", "doc_id"], ascending=[False, True], kind="mergesort"
            )
            .groupby(group_col, sort=False)
            .head(k)
        )
        return _pa_clean(out)

    def _final(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.sort_values(
                ["n_chars", "doc_id"], ascending=[False, True], kind="mergesort"
            )
            .groupby(group_col, sort=False)
            .head(k)[["doc_id", group_col, "n_chars"]]
        )
        return out

    return exchange(
        docs.map_batches(_partial, batch_format="pyarrow"),
        [group_col],
        _final,
    )


def doc_label_join(
    docs: "ray.data.Dataset", embeddings: "ray.data.Dataset"
) -> "ray.data.Dataset":
    """Equality join of per-doc stats with the embedding table's label
    column (vec_id == doc_id): the broadcast-hash-join shape — the
    small side ships ONCE as a zero-copy Arrow table (``ray.put``),
    each batch attaches via C-speed ``pc.index_in`` + ``take``. For an
    unbounded right side, the bucket-hash cogroup in stages/verify.py
    is the same join at shuffle scale."""
    import ray

    from ..stages.verify import broadcast_lookup

    ref = broadcast_lookup(
        embeddings.select_columns(["vec_id", "label"]), ["label"], id_col="vec_id"
    )

    class _Attach:
        def __init__(self):
            tbl = ray.get(ref)
            self.ids = tbl["vec_id"].combine_chunks()
            self.labels = tbl["label"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            idx = pc.index_in(batch["doc_id"], value_set=self.ids)
            out = batch.append_column("label", self.labels.take(idx))
            # inner-join semantics: drop rows with no embedding
            return out.filter(pc.is_valid(out["label"]))

    return actor_map(doc_stats(docs).select_columns(["doc_id", "n_tokens"]), _Attach)


def _merge_token_counts(group: pd.DataFrame) -> pa.Table:
    """Per-BUCKET merge of partial (token, cnt) rows (C-speed pandas
    groupby inside one Python call per bucket)."""
    out = (
        group.groupby("token", sort=False)
        .agg(cnt=("cnt", "sum"))
        .reset_index()
    )
    return _pa_clean(out)


def token_counts(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Corpus-wide word frequency: flat-map words, per-batch partial
    counts (combiner), then a small groupby-sum."""

    def _partial(batch: pa.Table) -> pa.Table:
        vc = (
            oracle_tokens(batch["text"].to_pandas())
            .explode().dropna().value_counts()
        )
        return pa.table(
            {
                "token": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
                "cnt": pa.array(vc.to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    return exchange(
        docs.map_batches(_partial, batch_format="pyarrow"),
        ["token"],
        _merge_token_counts,
    )


def cooccurrence_counts(
    docs: "ray.data.Dataset", window: int = 3
) -> "ray.data.Dataset":
    """Skip-gram co-occurrence counts (word-embedding training prep):
    for every unordered word pair within ``window`` positions inside a
    document, the corpus-wide count of such co-occurrence instances
    (equal-word pairs from repeats included).

    Shape: the within-window pair expansion is a per-batch numpy shift
    (positions i and i+d share a doc iff their doc indices match — no
    per-doc Python loop), counted into a partial (w1, w2, cnt) table
    per block (the combiner), then merged through the same small-
    aggregate bucket cogroup as ``token_counts``. Only pre-aggregated
    pair partials cross the wire — the per-position explosion never
    shuffles, which is what keeps this linear-bandwidth at corpus
    scale."""

    def _partial(batch: pa.Table) -> pa.Table:
        flat = oracle_tokens(batch["text"].to_pandas()).explode().dropna()
        words = flat.to_numpy(dtype=object)
        docix = flat.index.to_numpy()
        los, his = [], []
        for d in range(1, window + 1):
            if d >= len(words):
                break
            same = docix[d:] == docix[:-d]
            a, b = words[:-d][same], words[d:][same]
            swap = a > b  # object-dtype elementwise compare
            lo, hi = a.copy(), b.copy()
            lo[swap], hi[swap] = b[swap], a[swap]
            los.append(lo)
            his.append(hi)
        if not los:
            return pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "w2": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        vc = pd.DataFrame(
            {"w1": np.concatenate(los), "w2": np.concatenate(his)}
        ).value_counts(sort=False)
        idx = vc.index
        return pa.table(
            {
                "w1": pa.array(idx.get_level_values(0).to_numpy(dtype=object)),
                "w2": pa.array(idx.get_level_values(1).to_numpy(dtype=object)),
                "cnt": pa.array(vc.to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    def _merge(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.groupby(["w1", "w2"], sort=False)
            .agg(cnt=("cnt", "sum"))
            .reset_index()
        )
        return out

    return exchange(
        docs.map_batches(_partial, batch_format="pyarrow"),
        ["w1", "w2"],
        _merge,
    )


#: BPE-style pre-tokenizer classes (letters / digits / single symbol) —
#: ASCII-only and lookahead-free so Python re and DuckDB's RE2
#: (regexp_extract_all) produce identical token streams. The whitespace
#: class is spelled out explicitly: Python's \s is Unicode-aware while
#: RE2's is ASCII-only, so a literal \s would tokenize e.g. U+00A0
#: differently between engine and oracle.
BPE_PRETOKEN_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \t\n\r\f\v]"


def token_counts_re(
    docs: "ray.data.Dataset", pattern: str = BPE_PRETOKEN_RE
) -> "ray.data.Dataset":
    """Corpus-wide token frequency under a BPE-ish regex pre-tokenizer
    (the letters/digits/punct split used before byte-pair merging):
    vectorized ``str.findall`` + explode per batch (combiner), then a
    small groupby-sum. Oracle: DuckDB ``regexp_extract_all`` unnest —
    exact parity verified in tests."""
    rx = re.compile(pattern)

    def _partial(batch: pa.Table) -> pa.Table:
        vc = (
            batch["text"].to_pandas().str.findall(rx).explode().dropna().value_counts()
        )
        return pa.table(
            {
                "token": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
                "cnt": pa.array(vc.to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    return exchange(
        docs.select_columns(["text"]).map_batches(_partial, batch_format="pyarrow"),
        ["token"],
        _merge_token_counts,
    )


# ---------------------------------------------------------------------
# anagram grouping (the analiticcl-flavored operator)
# ---------------------------------------------------------------------

def anagram_groups(docs: "ray.data.Dataset", min_words: int = 1) -> "ray.data.Dataset":
    """Group corpus words by bag-of-characters (anagram) key — the
    distributed analog of the reference's AnaIndex build
    (src/lib.rs:192-297): key(word) = sorted characters (equivalent
    grouping to the prime-product anagram value, src/anahash.rs:16-47).
    Emits keys instantiated by >1 distinct word with the words listed —
    the anagram buckets of tests/main.rs:836-855 at corpus scale."""

    def _partial(batch: pa.Table) -> pa.Table:
        # per-batch distinct words (C-speed explode+unique); the sort
        # runs only once per unique word
        words = (
            oracle_tokens(batch["text"].to_pandas())
            .explode().dropna().unique()
        )
        return pa.table(
            {
                "anakey": pa.array(
                    ["".join(sorted(w)) for w in words], pa.string()
                ),
                "word": pa.array(words, pa.string()),
            }
        )

    def _merge_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = (
            group.drop_duplicates(["anakey", "word"])
            .sort_values(["anakey", "word"], kind="mergesort")
            .groupby("anakey", sort=False)["word"]
            .agg(n_words="size", words=",".join)
            .reset_index()
        )
        g = g[g["n_words"] >= min_words]
        g["n_words"] = g["n_words"].astype("int64")
        return g[["anakey", "n_words", "words"]]

    return exchange(
        docs.map_batches(_partial, batch_format="pyarrow"),
        ["anakey"],
        _merge_bucket,
    )


# ---------------------------------------------------------------------
# n-gram Jaccard near-dup (exact) — the oracle-checkable near-dup op
# ---------------------------------------------------------------------

def _gram_list(t: str, n: int) -> list[str]:
    return sorted({t[i : i + n] for i in range(len(t) - n + 1)}) if len(t) >= n else []


def _packed_windows(
    sub: list[str], n: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """All char n-gram windows of a text chunk as packed uint64 codes
    (21 bits per codepoint) plus the doc index per window; windows that
    cross a document boundary are masked out. The shared kernel under
    [[_batch_gram_df]] (distinct-per-doc DF) and [[char_ngram_counts]]
    (raw instance counts)."""
    lens = np.fromiter((len(t) for t in sub), dtype=np.int64, count=len(sub))
    total = int(lens.sum())
    if total < n:
        return None
    cp = np.frombuffer(
        "".join(sub).encode("utf-32-le"), dtype=np.uint32
    ).astype(np.uint64)
    n_win = total - n + 1
    packed = np.zeros(n_win, dtype=np.uint64)
    for k in range(n):
        packed |= cp[k : n_win + k] << np.uint64(21 * k)
    doc_idx = np.repeat(np.arange(len(sub), dtype=np.int64), lens)
    valid = doc_idx[:n_win] == doc_idx[n - 1 :]
    return packed[valid], doc_idx[:n_win][valid]


def _unpack_grams(codes, n: int) -> list[str]:
    """Packed uint64 gram codes -> strings (Python only over UNIQUES)."""
    shifts = [21 * k for k in range(n)]
    return [
        "".join(chr((int(v) >> s) & 0x1FFFFF) for s in shifts) for v in codes
    ]


def _batch_gram_df(
    texts: list[str], n: int, chunk: int = 256
) -> tuple[list[str], np.ndarray]:
    """Per-batch gram document frequencies, vectorized: codepoints of a
    CHUNK of texts concatenated, each n-gram packed into one uint64
    (21 bits per char — the full Unicode range fits), windows crossing a
    document boundary masked out, distinct (doc, gram) pairs counted
    with one lexsort. Python touches only the UNIQUE grams per chunk.

    Chunked (default 256 docs) on purpose: multi-MB numpy temporaries
    hit multi-hundred-ms hugepage-compaction stalls on this host, so
    small reused allocations are BOTH faster and far lower-variance
    than one whole-batch pass. Falls back to the per-doc set loop when
    n*21 > 64 bits."""
    if n * 21 > 64:
        counts: dict[str, int] = {}
        for t in texts:
            for g in _gram_list(t, n):
                counts[g] = counts.get(g, 0) + 1
        return list(counts.keys()), np.fromiter(
            counts.values(), dtype=np.int64, count=len(counts)
        )
    agg: dict[int, int] = {}
    for c0 in range(0, len(texts), chunk):
        sub = texts[c0 : c0 + chunk]
        pw = _packed_windows(sub, n)
        if pw is None:
            continue
        p, d = pw
        if not len(p):
            continue
        order = np.lexsort((d, p))
        p_s, d_s = p[order], d[order]
        first = np.ones(len(p_s), dtype=bool)
        first[1:] = (p_s[1:] != p_s[:-1]) | (d_s[1:] != d_s[:-1])
        uniq, df = np.unique(p_s[first], return_counts=True)
        for u, c in zip(uniq.tolist(), df.tolist()):
            agg[u] = agg.get(u, 0) + c
    grams = _unpack_grams(agg.keys(), n)
    return grams, np.fromiter(agg.values(), dtype=np.int64, count=len(agg))


def char_ngram_counts(docs: "ray.data.Dataset", n: int = 3) -> "ray.data.Dataset":
    """Corpus-wide character n-gram frequency table — the raw material
    for language-ID profiles and OCR/noise diagnostics. Same
    packed-codepoint kernel as the gram-DF pass ([[_packed_windows]]):
    windows packed to uint64, counted with one ``np.unique`` per chunk,
    Python touching only the unique grams. Per-batch partials merge
    through the shared gram-bucket cogroup; only (gram, cnt) rows cross
    the wire."""

    def _partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pandas().fillna("").tolist()
        agg: dict[int, int] = {}
        for c0 in range(0, len(texts), 256):
            pw = _packed_windows(texts[c0 : c0 + 256], n)
            if pw is None:
                continue
            p, _ = pw
            if not len(p):
                continue
            uniq, cnt = np.unique(p, return_counts=True)
            for u, c in zip(uniq.tolist(), cnt.tolist()):
                agg[u] = agg.get(u, 0) + c
        return pa.table(
            {
                "gram": pa.array(_unpack_grams(agg.keys(), n), pa.string()),
                "cnt": pa.array(
                    np.fromiter(agg.values(), dtype=np.int64, count=len(agg))
                ),
            }
        )

    def _merge_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("gram", sort=False)["cnt"].sum().reset_index()
        out["cnt"] = out["cnt"].astype("int64")
        return out

    return exchange(
        docs.select_columns(["text"]).map_batches(_partial, batch_format="pyarrow"),
        ["gram"],
        _merge_bucket,
    )


def top_terms(docs: "ray.data.Dataset", k: int = 20) -> "ray.data.Dataset":
    """Global top-k tokens by count (cnt desc, token asc tie-break) with
    a 1-based rank — the heavy-hitters list a stopword inducer or
    tokenizer audit reads. Exact: the merged count table takes a
    per-block top-k combiner (each bucket cogroup holds a token's FULL
    count, so the global top-k is a subset of the per-block top-ks),
    then one constant-sized repartition(1) final selection — the
    shared [[_blockwise_topk]] shape (each bucket cogroup upstream
    holds a token's FULL count)."""

    def _rank(df: pd.DataFrame) -> pd.DataFrame:
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df

    return _blockwise_topk(
        token_counts(docs), ["cnt", "token"], [False, True], k, finalize=_rank
    )


def lang_confusion(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Language-ID confusion matrix: counts per (true lang label,
    predicted lang) — the accuracy diagnostic for the [[lang_id]]
    heuristic over a labeled corpus. The prediction rides the same
    batch as the label (no join), the per-batch combiner emits
    ≤ |langs|² rows per block, and the final merge is constant-sized."""

    class _Confusion(LangId):
        def __call__(self, batch: pa.Table) -> pa.Table:
            pred = LangId.__call__(self, batch)
            df = pd.DataFrame(
                {
                    "true_lang": batch["lang"].to_pandas(),
                    "pred_lang": pred["pred_lang"].to_pandas(),
                }
            )
            g = (
                df.groupby(["true_lang", "pred_lang"], sort=False)
                .size()
                .reset_index(name="n")
            )
            g["n"] = g["n"].astype("int64")
            return _pa_clean(g)

    def _merge(batch: pa.Table) -> pa.Table:
        out = (
            batch.to_pandas()
            .groupby(["true_lang", "pred_lang"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        out["n"] = out["n"].astype("int64")
        return _pa_clean(out)

    return (
        actor_map(docs.select_columns(["doc_id", "text", "lang"]), _Confusion)
        .repartition(1)
        .map_batches(_merge, batch_format="pyarrow", batch_size=None)
    )


def _popcount64(x: np.ndarray) -> np.ndarray:
    """int64-typed view of the single shared SWAR popcount kernel
    (stages/lsh._popcount_u64 — one implementation, three callers)."""
    from ..stages.lsh import _popcount_u64

    return _popcount_u64(x).astype(np.int64)


#: above this vocabulary size the packed bitmask (vocab/8 bytes per
#: text) stops paying for itself; the verify falls back to the
#: text-attach frozenset engine
BITSET_VOCAB_LIMIT = 65536


def jaccard(inter, size_a, size_b) -> np.ndarray:
    """Exact set Jaccard from counts: |A∩B| / |A∪B| as ONE int/int
    division (0.0 for two empty sets), bit-identical to the DuckDB
    oracle. The only division of the exact n-gram Jaccard ops."""
    union = size_a + size_b - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 0.0)


def _jaccard_rows(a=(), b=(), jac=(), threshold: float = 0.0) -> pa.Table:
    """The (a int64, b int64, jaccard float64) output of every exact
    Jaccard path: the rows with jaccard >= threshold. No arguments give
    the empty table."""
    jac = np.asarray(jac, dtype=np.float64)
    keep = jac >= threshold
    return pa.table(
        {
            "a": pa.array(np.asarray(a, dtype=np.int64)[keep], pa.int64()),
            "b": pa.array(np.asarray(b, dtype=np.int64)[keep], pa.int64()),
            "jaccard": pa.array(jac[keep], pa.float64()),
        }
    )


def _gram_masks(texts: list[str], grams: pa.Array, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The gram-mask codec: texts against a gram table -> (masks:
    (rows, words) uint64 with bit k set where the text holds grams[k],
    sz: int64 distinct-gram count). One ``pc.index_in`` per call; a
    gram outside the table counts in ``sz`` and sets no bit."""
    per = [_gram_list(t, n) for t in texts]
    sz = np.fromiter(map(len, per), dtype=np.int64, count=len(per))
    masks = np.zeros((len(per), (len(grams) + 63) // 64), dtype=np.uint64)
    flat = [g for gs in per for g in gs]
    if flat:
        idx = pc.index_in(pa.array(flat, pa.string()), value_set=grams)
        idx = idx.fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
        rows = np.repeat(np.arange(len(per)), sz)[idx >= 0]
        idx = idx[idx >= 0]
        np.bitwise_or.at(masks, (rows, idx >> 6), np.uint64(1) << (idx & 63).astype(np.uint64))
    return masks, sz


def _mask_array(masks: np.ndarray) -> pa.FixedSizeBinaryArray:
    """(rows, words) uint64 -> one fixed-width binary value per row.
    Bytes, not a list<int64>: the cogroup attach's pandas round trip
    turns int64 lists into float64 and drops the low bits of a word."""
    rows, words = masks.shape
    data = pa.py_buffer(np.ascontiguousarray(masks).tobytes())
    return pa.FixedSizeBinaryArray.from_buffers(pa.binary(8 * words), rows, [None, data])


def _mask_columns(col, words: int) -> np.ndarray:
    """Arrow (fixed_size_)binary mask column -> (rows, words) uint64."""
    return np.frombuffer(b"".join(col.to_pylist()), dtype=np.uint64).reshape(len(col), words)


class _JaccardVerifier:
    """Actor: exact char-n-gram Jaccard on pairs with attached texts —
    the UNBOUNDED-vocabulary engine, the only one that runs past
    ``BITSET_VOCAB_LIMIT`` (memoized frozenset intersection).

    Input batch needs src_text/dst_text (attached via
    stages/verify.attach_pair_sides — broadcast or cogroup, never a
    driver-built dict); emits ``_jaccard_rows`` at ``threshold``."""

    def __init__(self, n: int, threshold: float):
        self.n = n
        self.threshold = threshold
        self._memo: dict[str, frozenset] = {}

    def _grams(self, t: str) -> frozenset:
        g = self._memo.get(t)
        if g is None:
            if len(self._memo) > 200_000:
                self._memo.clear()
            g = frozenset(t[i : i + self.n] for i in range(len(t) - self.n + 1))
            self._memo[t] = g
        return g

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not len(batch):
            return _jaccard_rows()
        counts = []
        for s, d in zip(batch["src_text"].to_pylist(), batch["dst_text"].to_pylist()):
            ga, gb = self._grams(s), self._grams(d)
            counts.append((len(ga & gb), len(ga), len(gb)))
        inter, sa, sb = np.array(counts, dtype=np.int64).T
        return _jaccard_rows(
            batch["src_id"].to_numpy(), batch["dst_id"].to_numpy(),
            jaccard(inter, sa, sb), self.threshold,
        )


def _verify_jaccard(
    pairs: "ray.data.Dataset",
    docs: "ray.data.Dataset",
    n: int,
    threshold: float,
    attach_method: str = "auto",
    gram_ref=None,
    id_filter: bool = False,
) -> "ray.data.Dataset":
    """The one exact verify of candidate pairs (src_id, dst_id), in an
    actor pool. Bounded gram vocabulary (``gram_ref``, at most
    ``BITSET_VOCAB_LIMIT`` grams): the codec's BITMASKS are attached to
    the pair sides instead of texts (~6x lighter through the attach,
    vectorized popcount verify, zero per-pair Python). Otherwise texts
    attach and the frozenset engine verifies. Either way the attach is
    ``attach_pair_sides`` (broadcast under the driver budget, else
    cogroup). ``id_filter`` restricts the attached rows to the ids
    ``pairs`` references."""
    import ray

    from ..stages.verify import attach_pair_sides

    docs = docs.select_columns(["doc_id", "text"])

    def _attach(side: "ray.data.Dataset", cols: list[str]) -> "ray.data.Dataset":
        return attach_pair_sides(
            pairs, side, cols, method=attach_method, id_filter=id_filter, id_col="doc_id"
        )

    gram_table = ray.get(gram_ref) if gram_ref is not None else None
    if gram_table is None or len(gram_table) > BITSET_VOCAB_LIMIT:
        return actor_map(_attach(docs, ["text"]), _JaccardVerifier, n, threshold)

    words = (len(gram_table) + 63) // 64
    grams_ref = ray.put(gram_table["gram"].combine_chunks())

    def _mask_rows(batch: pa.Table) -> pa.Table:
        masks, sz = _gram_masks(batch["text"].to_pylist(), ray.get(grams_ref), n)
        return pa.table(
            {"doc_id": batch["doc_id"], "sz": pa.array(sz, pa.int64()), "mask": _mask_array(masks)}
        )

    masks_ds = docs.map_batches(_mask_rows, batch_format="pyarrow")
    if attach_method != "broadcast":
        # the cogroup join reads its side's schema and then consumes
        # it, after auto's pull past the budget read it once more —
        # materialize the (slim) mask table so the mask-construction
        # pass runs once
        masks_ds = masks_ds.materialize()

    def _verify(batch: pa.Table) -> pa.Table:
        if not len(batch):
            return _jaccard_rows()
        both = _mask_columns(batch["src_mask"], words) & _mask_columns(batch["dst_mask"], words)
        jac = jaccard(
            _popcount64(both).sum(axis=1), batch["src_sz"].to_numpy(), batch["dst_sz"].to_numpy()
        )
        return _jaccard_rows(batch["src_id"].to_numpy(), batch["dst_id"].to_numpy(), jac, threshold)

    return _attach(masks_ds, ["mask", "sz"]).map_batches(_verify, batch_format="pyarrow")


def _gram_df_table(docs: "ray.data.Dataset", n: int) -> pa.Table:
    """Global gram document-frequency table (gram, df), sorted by gram.

    Per-batch partial counts (combiner) -> small groupby-sum. The gram
    vocabulary is bounded by charset^n, so this side table stays small
    at any corpus size — it doubles as the strategy probe for
    ngram_jaccard_pairs (dense vs sparse) and the bitset-verifier
    vocabulary."""

    def _gram_rows(batch: pa.Table) -> pa.Table:
        grams, dfs = _batch_gram_df(batch["text"].to_pylist(), n)
        return pa.table(
            {
                "gram": pa.array(grams, pa.string()),
                "df": pa.array(dfs, pa.int64()),
            }
        )

    def _merge_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.groupby("gram", sort=False).agg(df=("df", "sum")).reset_index()
        )
        return out

    out = pa.Table.from_pandas(
        exchange(
            docs.map_batches(_gram_rows, batch_format="pyarrow"), ["gram"], _merge_bucket
        ).to_pandas(),
        preserve_index=False,
    ).combine_chunks()
    if len(out):
        out = out.sort_by("gram")
    return out


def _dense_gram_jaccard(
    docs: "ray.data.Dataset",
    gram_table: pa.Table,
    n: int,
    threshold: float,
    n_parts: int = 8,
) -> "ray.data.Dataset":
    """EXACT all-pairs Jaccard for a BOUNDED gram vocabulary —
    distributed block-pair bitset matmul (the shape of
    ann.cosine_dup_pairs, with packed gram bitmasks instead of float
    vectors): each doc becomes (bitmask: fixed_size_list<uint64>, sz)
    replicated to its ``n_parts`` partition-pair keys; ONE groupby
    co-locates every block pair; the in-group intersection is one
    0/1-matrix matmul (BLAS float64 — exact for counts < 2^53).

    When the vocabulary is small (the df pass tells us for free), this
    beats prefix-filtered candidate generation outright: a homogeneous
    corpus makes every prefix gram hot and the candidate set quadratic
    anyway, while the matmul does the quadratic work at C speed with
    ZERO candidate shuffle. Shuffle volume = n_parts × (vocab/8 + 16)
    bytes per doc. Output identical (bit-for-bit jaccard: one int/int
    division) to the sparse path."""
    import ray

    from ..stages.lsh import block_pair_key_lut, decode_block_pair_key

    u = len(gram_table)
    words = (u + 63) // 64
    grams_ref = ray.put(gram_table["gram"].combine_chunks())
    key_lut = block_pair_key_lut(n_parts)

    def _explode(batch: pa.Table) -> pa.Table:
        masks, sz = _gram_masks(batch["text"].to_pylist(), ray.get(grams_ref), n)
        ids = np.asarray(batch["doc_id"].to_numpy(), dtype=np.int64)
        parts = ids % n_parts
        # copy q of every row carries the key of block pair (part, q)
        return pa.table(
            {
                "pkey": pa.array(key_lut[parts].T.reshape(-1), pa.int64()),
                "doc_id": pa.array(np.tile(ids, n_parts), pa.int64()),
                "part": pa.array(np.tile(parts, n_parts), pa.int64()),
                "sz": pa.array(np.tile(sz, n_parts), pa.int64()),
                "mask": _mask_array(np.tile(masks, (n_parts, 1))),
            }
        )

    def _side(group: pa.Table, part: int):
        """One block of a group (first copy of an id): ids, 0/1 grams, sizes."""
        ids = group["doc_id"].to_numpy()
        rows = np.flatnonzero(group["part"].to_numpy() == part)
        rows = rows[np.sort(np.unique(ids[rows], return_index=True)[1])]
        mask = _mask_columns(group["mask"], words)[rows]
        by = mask.view(np.uint8).reshape(len(rows), words * 8)
        bits = np.unpackbits(by, axis=1, bitorder="little")[:, :u]
        return ids[rows], bits.astype(np.float64), group["sz"].to_numpy()[rows]

    def _cross(group: pa.Table) -> pa.Table:
        if not len(group):
            return _jaccard_rows()
        a, b = decode_block_pair_key(group["pkey"][0].as_py(), n_parts)
        sides = {p: _side(group, p) for p in {a, b}}
        (ia, ba, sa), (ib, bb, sb) = sides[a], sides[b]
        jac = jaccard(ba @ bb.T, sa[:, None], sb[None, :])
        ii, jj = np.nonzero(jac >= threshold)
        if a == b:  # a block against itself: the upper triangle
            ii, jj = ii[ii < jj], jj[ii < jj]
        return _jaccard_rows(
            np.minimum(ia[ii], ib[jj]), np.maximum(ia[ii], ib[jj]), jac[ii, jj], threshold
        )

    return (
        docs.select_columns(["doc_id", "text"])
        .map_batches(_explode, batch_format="pyarrow")
        .groupby("pkey")
        .map_groups(_cross, batch_format="pyarrow")
    )


def ngram_jaccard_pairs(
    docs: "ray.data.Dataset",
    n: int = 3,
    threshold: float = 0.8,
    attach_method: str = "auto",
    bucket_cap: int = 1_000_000,
    drop_threshold: int | None = None,
    dense_vocab_limit: int = 8192,
    n_parts: int = 8,
) -> "ray.data.Dataset":
    """EXACT character-n-gram Jaccard for all pairs above ``threshold``
    — two fully distributed strategies, selected by the measured gram
    vocabulary size (the df pass yields it for free):

    DENSE (vocab <= ``dense_vocab_limit``): block-pair bitset matmul
    (``_dense_gram_jaccard``). A bounded vocabulary means a homogeneous
    corpus where every prefix gram is hot and candidate generation is
    quadratic anyway — the matmul does that quadratic work at BLAS
    speed with zero candidate shuffle (measured 20-30x faster on the
    synthetic corpus).

    SPARSE (vocab unbounded — natural text): prefix filtering (Bayardo
    et al. WWW'07 "all-pairs"; Chaudhuri et al. ICDE'06):

    1. gram document-frequency: per-batch partial counts → small
       groupby-sum, broadcast once as an Arrow table.
    2. prefix explode: each doc's distinct grams are ordered by (global
       df, gram); only the first |G| - ceil(t·|G|) + 1 grams (the
       rarest) are emitted as (gram_hash, doc_id) rows. Completeness:
       J(A,B) ≥ t ⟹ |A∩B| ≥ ⌈t·max(|A|,|B|)⌉, and two sets with
       overlap ≥ c must share an element within their (|X|-c+1)-
       prefixes under any common total order.
    3. cooccurrence_pairs on the prefix rows (ONE shuffle; stages/lsh
       machinery) → dedup → exact verify with attached texts
       (broadcast/cogroup by size; bitset or set engine by vocab).

    Both strategies produce bit-identical output (one int/int division
    per pair — the DuckDB oracle's value).

    ``bucket_cap``/``drop_threshold`` default to effectively-unbounded
    because this op's contract is exactness; a prefix gram shared by
    >cap docs means a near-dup group that large (pair listing is then
    inherently quadratic in the group). For recall-tolerant runs at
    extreme skew pass finite caps — drops are counted, never silent."""
    from ..stages.lsh import cooccurrence_pairs, dedup_pairs

    import ray

    # ---- pass 1: global gram document frequency + strategy probe ---
    df_table = _gram_df_table(docs, n)
    if len(df_table) <= dense_vocab_limit:
        return _dense_gram_jaccard(docs, df_table, n, threshold, n_parts)
    df_ref = ray.put(df_table)

    # ---- pass 2: prefix explode ------------------------------------
    def _prefix_rows(batch: pa.Table) -> pa.Table:
        tbl = ray.get(df_ref)
        ids_out: list[int] = []
        grams_out: list[str] = []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            gs = _gram_list(t, n)
            ids_out.extend([d] * len(gs))
            grams_out.extend(gs)
        if not ids_out:
            return pa.table(
                {"gram_key": pa.array([], pa.int64()),
                 "doc_id": pa.array([], pa.int64())}
            )
        df = pd.DataFrame({"doc_id": ids_out, "gram": grams_out})
        idx = pc.index_in(pa.array(df["gram"]), value_set=tbl["gram"].combine_chunks())
        df["df"] = tbl["df"].take(idx).to_numpy()
        df = df.sort_values(["doc_id", "df", "gram"], kind="mergesort")
        sizes = df.groupby("doc_id")["gram"].transform("size").to_numpy()
        prefix_len = sizes - np.ceil(threshold * sizes).astype(np.int64) + 1
        rank = df.groupby("doc_id").cumcount().to_numpy()
        keep = df[rank < prefix_len]
        # deterministic C-vectorized gram hash (fixed pandas hash key)
        h = pd.util.hash_pandas_object(keep["gram"], index=False).to_numpy()
        return pa.table(
            {
                "gram_key": pa.array(h.view(np.int64), pa.int64()),
                "doc_id": pa.array(keep["doc_id"].to_numpy(), pa.int64()),
            }
        )

    prefix_rows = docs.select_columns(["doc_id", "text"]).map_batches(
        _prefix_rows, batch_format="pyarrow"
    )

    cand = dedup_pairs(
        cooccurrence_pairs(
            prefix_rows, "gram_key", "doc_id", cap=bucket_cap,
            id_dtype="int", drop_threshold=drop_threshold,
        ),
        id_dtype="int",
    )
    return _verify_jaccard(cand, docs, n, threshold, attach_method, gram_ref=df_ref)


def decontaminate(
    train: "ray.data.Dataset",
    eval_ds: "ray.data.Dataset",
    n: int = 16,
) -> "ray.data.Dataset":
    """Test-set decontamination (the GPT-3-style n-gram overlap check):
    for every training document, count the distinct char-``n``-grams it
    shares with ANY eval document; emit (doc_id, n_shared) for docs
    with >= 1 shared gram — the rows a pretraining pipeline would drop
    or audit.

    Shape: both sides explode to (gram, side, doc_id) rows and meet in
    ONE hash-bucket shuffle (each gram lives in exactly one bucket, so
    per-bucket shared-gram counts sum globally); a vectorized in-bucket
    isin + value_counts flags train rows whose gram exists on the eval
    side; a final groupby-sum aggregates per train doc. Nothing
    corpus-sized leaves the cluster; eval can be arbitrarily large
    (it is NOT broadcast)."""

    def _rows(side: int):
        def _f(batch: pa.Table) -> pa.Table:
            ids: list[int] = []
            grams: list[str] = []
            for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
                gs = _gram_list(t, n)
                ids.extend([d] * len(gs))
                grams.extend(gs)
            return pa.table(
                {
                    "gram": pa.array(grams, pa.string()),
                    "side": pa.array(
                        np.full(len(ids), side, dtype=np.int8), pa.int8()
                    ),
                    "doc_id": pa.array(ids, pa.int64()),
                }
            )

        return _f

    both = [
        train.select_columns(["doc_id", "text"]).map_batches(_rows(0), batch_format="pyarrow"),
        eval_ds.select_columns(["doc_id", "text"]).map_batches(_rows(1), batch_format="pyarrow"),
    ]

    def _shared(group: pd.DataFrame) -> pa.Table:
        ev = group.loc[group["side"] == 1, "gram"].unique()
        tr = group[group["side"] == 0]
        hit = tr.loc[tr["gram"].isin(ev), "doc_id"].value_counts()
        return pa.table(
            {
                "doc_id": pa.array(hit.index.to_numpy(dtype=np.int64), pa.int64()),
                "n_shared": pa.array(hit.to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    def _sum_rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["doc_id", "n_shared"])

    return (
        exchange(both, ["gram"], _shared)
        .groupby("doc_id")
        .sum("n_shared")
        .map_batches(_sum_rename, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------
# MinHash-LSH near-dup over documents (the scale path)
# ---------------------------------------------------------------------

class DocMinHash:
    """Actor: text -> LSH band keys over raw char-n-gram shingles
    (hashing the n-gram bytes; the caption pipeline uses anagram-valued
    shingles — here we match the exact-Jaccard op's gram definition so
    recall is measurable against ngram_jaccard_pairs)."""

    def __init__(self, cfg: DedupConfig | None = None, n: int = 3):
        self.cfg = cfg or DedupConfig()
        self.n = n
        self.perm_seeds = splitmix64(
            np.arange(self.cfg.num_perm, dtype=np.uint64)
            + _U64((self.cfg.seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        )
        self._memo: dict[str, int] = {}  # gram -> 64-bit hash, per actor

    def _hash(self, g: str) -> int:
        h = self._memo.get(g)
        if h is None:
            if len(self._memo) > 2_000_000:
                self._memo.clear()
            h = int.from_bytes(
                hashlib.blake2b(g.encode(), digest_size=8).digest(), "little"
            )
            self._memo[g] = h
        return h

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        texts = batch["text"].to_pylist()
        shingle_sets = []
        for t in texts:
            gs = (
                {t[i : i + self.n] for i in range(len(t) - self.n + 1)}
                if len(t) >= self.n
                else {t}
            )
            arr = np.fromiter(
                (self._hash(g) for g in gs), dtype=np.uint64, count=len(gs)
            )
            shingle_sets.append(arr)
        n_rows = len(texts)
        sigs = np.full((n_rows, cfg.num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
        lens = np.array([len(s) for s in shingle_sets])
        nz = np.where(lens > 0)[0]
        if len(nz):
            concat = np.concatenate([shingle_sets[i] for i in nz])
            starts = np.zeros(len(nz), dtype=np.int64)
            starts[1:] = np.cumsum(lens[nz])[:-1]
            with np.errstate(over="ignore"):
                for p in range(cfg.num_perm):
                    hp = splitmix64(concat ^ self.perm_seeds[p])
                    sigs[nz, p] = np.minimum.reduceat(hp, starts)
        r = cfg.band_rows
        bands = np.empty((n_rows, cfg.bands), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for b_i in range(cfg.bands):
                acc = np.full(n_rows, _U64((b_i * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF))
                for rr in range(r):
                    acc = splitmix64(acc ^ sigs[:, b_i * r + rr])
                bands[:, b_i] = acc
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "bands": pa.FixedSizeListArray.from_arrays(
                    pa.array(bands.reshape(-1).view(np.int64), pa.int64()), cfg.bands
                ),
                # shingle-set size: rides the band explode so the pair
                # stage can prune size-incompatible pairs (a necessary
                # condition for J >= t) before the dedup shuffle
                "n_grams": pa.array(lens.astype(np.int64), pa.int64()),
            }
        )


def minhash_dedup_pairs(
    docs: "ray.data.Dataset", cfg: DedupConfig | None = None, n: int = 3,
    jaccard_threshold: float = 0.8, attach_method: str = "auto",
) -> "ray.data.Dataset":
    """MinHash-LSH candidates verified by EXACT n-gram Jaccard — every
    stage a shuffle or a broadcast, nothing corpus-sized on the driver:
    signatures (actor pool) -> band explode -> co-occurrence pairs
    (stages/lsh.py, ONE shuffle) -> text attach (broadcast/cogroup by
    size, stages/verify.py) -> exact Jaccard in an actor pool (shared
    with ngram_jaccard_pairs).

    Banding for the doc table is widened to 32 bands × r=4 (vs the
    caption pipeline's 16×8): P[candidate | J=0.8] = 1-(1-0.8^4)^32 ≈
    1 - 5e-8, so at the 0.8 threshold the verified output is
    (probability ≈1) IDENTICAL to ngram_jaccard_pairs — checked against
    the same DuckDB oracle. The verify actor uses the bitset engine
    when the gram vocabulary (df pass, small aggregate) is bounded."""
    import ray

    from ..stages.lsh import cooccurrence_pairs, dedup_pairs, explode_band_rows

    # widen banding only when the caller left cfg at the defaults — an
    # explicit DedupConfig(bands=...) is a deliberate recall/volume
    # trade and must not be silently overridden. ONE resolver shared
    # with minhash_signatures / the incremental op, so a persisted
    # index can never band differently from the symmetric op.
    cfg = _minhash_cfg(cfg)

    sig = actor_map(docs.select_columns(["doc_id", "text"]), DocMinHash, cfg, n)

    # size-ratio prune at pair emission: J >= t forces gram-set sizes
    # within ratio t (min >= t*max), so pairs outside it are dropped
    # BEFORE the dedup shuffle and the verify — exact-safe, and the
    # valve that keeps candidate volume sane when the corpus's
    # background similarity makes banding unselective
    cand = dedup_pairs(
        cooccurrence_pairs(
            explode_band_rows(
                sig, band_cols=("bands",), id_col="doc_id", carry_cols=("n_grams",)
            ),
            "band",
            "doc_id",
            cfg.bucket_cap,
            id_dtype="int",
            attr_col="n_grams",
            attr_ratio=jaccard_threshold,
        ),
        id_dtype="int",
    )
    # bounded-vocab bitset verify: the df aggregate is tiny and pays
    # for itself many times over in the per-pair intersection cost
    gram_ref = ray.put(_gram_df_table(docs, n))
    return _verify_jaccard(
        cand, docs, n, jaccard_threshold, attach_method, gram_ref=gram_ref
    )


def _minhash_cfg(cfg: DedupConfig | None) -> DedupConfig:
    """Shared banding default for the doc-table MinHash ops: 32 bands ×
    r=4 (see minhash_dedup_pairs) unless the caller pinned a config.
    ``minhash_signatures`` and ``incremental_minhash_dedup_pairs`` MUST
    resolve identically — a persisted index banded differently from the
    probe side would silently miss every pair."""
    import dataclasses

    if cfg is None:
        cfg = DedupConfig()
        if cfg.num_perm % 32 == 0:
            cfg = dataclasses.replace(cfg, bands=32)
    return cfg


def minhash_signatures(
    docs: "ray.data.Dataset", cfg: DedupConfig | None = None, n: int = 3
) -> "ray.data.Dataset":
    """Persisted-index builder for incremental MinHash dedup: one row
    per doc — (doc_id, bands: fixed_size_list<int64>, n_grams). A daily
    ingest writes this table once per shard and probes later shards
    against it (incremental_minhash_dedup_pairs) instead of re-signing
    the whole corpus. Same DocMinHash actor pool the symmetric op uses,
    so a persisted index and a fresh signature of the same text are
    bit-identical."""
    return actor_map(docs.select_columns(["doc_id", "text"]), DocMinHash, _minhash_cfg(cfg), n)


def incremental_minhash_dedup_pairs(
    new_docs: "ray.data.Dataset",
    ref_sigs: "ray.data.Dataset",
    ref_docs: "ray.data.Dataset",
    cfg: DedupConfig | None = None,
    n: int = 3,
    jaccard_threshold: float = 0.8,
    attach_method: str = "auto",
    cap: int | None = None,
    stats: dict | None = None,
) -> "ray.data.Dataset":
    """Incremental (daily-ingest) TEXT near-dup dedup: the probe-vs-index
    join ``stages/lsh.probe_index_pairs`` of a NEW document shard's
    MinHash bands against a persisted signature table
    (``minhash_signatures`` of the already-ingested corpus), verified by
    EXACT n-gram Jaccard — the asymmetric analog of
    ``minhash_dedup_pairs``, as ``incremental_banded_dup_pairs``
    (stages/multimodal.py) is of ``banded_hash_dup_pairs``. Only the new
    shard is signed; the in-bucket pair test is the gram-set size ratio
    (min >= t·max, necessary for J >= t, so exact-safe). Dropped ref rows
    of over-``cap`` bands reach ``stats`` through the sentinel tally.

    Returns (a, b, jaccard): ``a`` is ALWAYS from the new shard, ``b``
    is new (a < b) or ref — ref × ref pairs are never formed, so at
    steady state (ref >> new) the pair population is O(|new| × dup
    rate). A re-ingested id is superseded: its stale signature and text
    are dropped, so it never self-pairs and verifies on its fresh text.

    The verify tail is gated on the driver budget (stages/driver.py).
    While the materialized candidate stream's bytes (block metadata)
    fit, it runs on the driver: pandas drop_duplicates mirroring
    dedup_pairs, ONE task-only filtered scan pulling just the
    referenced texts through the bounded pull, and the gram-mask
    codec's bitset Jaccard, whose dense (ids × vocab/64 words) mask
    must fit too — the vocabulary is counted before any mask is
    allocated, and the pair-side AND runs in chunks of 32 MiB a side.
    Past any gate the distributed tail runs instead: dedup_pairs
    shuffle, then ``_verify_jaccard`` with texts attached only for the
    referenced ids. The probe join's explode is gated the same way
    (``probe_index_pairs``). Output is identical either way
    (pytest-forced boundary parity).

    Recall: both sides band identically (``_minhash_cfg``), so the
    per-pair candidate probability at J >= 0.8 is the symmetric op's
    1 - (1 - 0.8^4)^32 ≈ 1 - 5e-8 — the verified output equals the
    restricted exact-Jaccard brute force with probability ≈ 1 (DuckDB
    hash oracle in __ray_entry__.py; brute-force pytest in
    tests/test_text_ops.py)."""
    from ..stages.lsh import dedup_pairs, probe_index_pairs, strip_sentinels, tally_sentinels

    cfg = _minhash_cfg(cfg)
    raw, supersede = probe_index_pairs(
        minhash_signatures(new_docs, cfg, n),
        ref_sigs.select_columns(["doc_id", "bands", "n_grams"]),
        "doc_id",
        "n_grams",
        cfg.bands,
        id_dtype="int",
        cap=cfg.bucket_cap if cap is None else cap,
        ratio=jaccard_threshold,
    )
    raw = raw.materialize()  # edge-list-sized candidate stream (collisions only)
    if stats is not None:
        # sentinels are globally unique per dropped band, so the tally
        # over the raw (pre-dedup) stream is exact
        tally_sentinels(raw, stats, "int")

    # superseded ids read their fresh text from the new shard
    docs_all = new_docs.select_columns(["doc_id", "text"]).union(
        ref_docs.select_columns(["doc_id", "text"]).map_batches(supersede, batch_format="pyarrow")
    )
    if driver.fits(raw.size_bytes()):
        out = _local_jaccard_tail(raw, docs_all, n, jaccard_threshold)
        if out is not None:
            return out

    cand = strip_sentinels(dedup_pairs(raw, id_dtype="int").materialize(), "int")
    return _verify_jaccard(
        cand, docs_all, n, jaccard_threshold, attach_method, id_filter=True
    )


def _local_jaccard_tail(
    raw: "ray.data.Dataset", docs: "ray.data.Dataset", n: int, threshold: float
) -> "ray.data.Dataset | None":
    """The driver-side verify tail of ``incremental_minhash_dedup_pairs``
    over its materialized candidate stream, or None where the texts or
    the dense mask pass the driver budget (see there)."""
    df = raw.select_columns(["src_id", "dst_id", "capped"]).to_pandas()
    df = df.reindex(columns=["src_id", "dst_id", "capped"])  # no rows, no columns
    df = df[df["src_id"] >= 0]  # strip sentinels
    # mirror dedup_pairs: keep the uncapped copy of a duplicate pair
    df = df.sort_values("capped", kind="stable").drop_duplicates(
        ["src_id", "dst_id"], keep="first"
    )
    src = df["src_id"].to_numpy(dtype=np.int64)
    dst = df["dst_id"].to_numpy(dtype=np.int64)
    ids = np.unique(np.concatenate([src, dst]))
    texts: dict[int, str] = {}
    if len(ids):
        need_ref = ray.put(pa.array(ids, pa.int64()))

        def _flt(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch["doc_id"], value_set=ray.get(need_ref)))

        # ONE task-only filtered scan — no actor pools, no attach
        pulled = driver.pull(docs.map_batches(_flt, batch_format="pyarrow"))
        if pulled is None:
            return None
        if pulled.num_rows:
            texts.update(zip(pulled["doc_id"].to_pylist(), pulled["text"].to_pylist()))
        missing = set(ids.tolist()) - texts.keys()
        if missing:
            # caller contract: ref_docs must cover every id in ref_sigs —
            # fail loudly (the distributed tail would surface this as
            # null-text attach rows instead)
            raise ValueError(
                f"{len(missing)} candidate ids have no text in "
                f"new_docs/ref_docs (e.g. {sorted(missing)[:3]})"
            )
    # the gram-mask codec over a gram table of the referenced texts,
    # its (ids x words) uint64 size gated before any mask is allocated
    ref_texts = [texts[i] for i in ids.tolist()]
    grams, _ = _batch_gram_df(ref_texts, n)
    if not driver.fits(len(ids) * ((len(grams) + 63) // 64) * 8):
        return None
    masks, szs = _gram_masks(ref_texts, pa.array(grams, pa.string()), n)
    ai, bi = np.searchsorted(ids, src), np.searchsorted(ids, dst)
    inter = np.empty(len(df), dtype=np.int64)
    step = max(1, (1 << 22) // max(1, masks.shape[1]))
    for k in range(0, len(df), step):
        both = masks[ai[k : k + step]] & masks[bi[k : k + step]]
        inter[k : k + step] = _popcount64(both).sum(axis=1)
    return ray.data.from_arrow(
        _jaccard_rows(src, dst, jaccard(inter, szs[ai], szs[bi]), threshold)
    )


# ---------------------------------------------------------------------
# SimHash + fingerprinting + language ID (rows-only oracles)
# ---------------------------------------------------------------------

class _SimHasher:
    """Actor: 64-bit SimHash over char-n-gram features (Charikar 2002):
    sign-sum of per-feature hash bits. Deterministic; near-dup texts
    yield small Hamming distances.

    Vectorized (bit-identical to the per-gram reference loop): the gram
    hash runs once per *unique* gram (memoized across batches — grams
    repeat heavily), the ±1 sign matrix is built once per batch with
    numpy bit ops, and per-doc accumulation + sign packing are C-speed
    gathers.

    The per-gram 64-bit hash is the first 8 md5 bytes little-endian —
    exactly DuckDB's ``md5_number_upper(gram)`` — so the whole operator
    is SQL-expressible and oracle-checked end to end (any uniform
    64-bit hash satisfies Charikar's construction; md5 is chosen for
    the oracle, not for speed)."""

    def __init__(self, n: int = 3):
        self.n = n
        self._memo: dict[str, int] = {}
        self._sign_lut = None  # lazy (256, 8) byte->±1 LUT
        #: dense counts@signs path ceiling on docs x unique-grams cells;
        #: above it the byte-LUT reduceat path keeps memory O(windows)
        self.dense_limit = 1 << 23

    def _hash(self, g: str) -> int:
        h = self._memo.get(g)
        if h is None:
            if len(self._memo) > 2_000_000:
                self._memo.clear()
            h = int.from_bytes(hashlib.md5(g.encode()).digest()[:8], "little")
            self._memo[g] = h
        return h

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = self.n
        texts = batch["text"].to_pylist()
        nr = len(texts)
        out = np.zeros(nr, dtype=np.int64)
        # docs shorter than n contribute themselves as the single gram;
        # with one gram, sign(b) > 0 iff bit b of the hash is set, so
        # the simhash IS the gram hash
        long_rows = [i for i, t in enumerate(texts) if len(t) >= n]
        for i, t in enumerate(texts):
            if len(t) < n:
                out[i] = np.int64(np.uint64(self._hash(t)))
        if long_rows and n * 21 > 64:
            # packing doesn't fit one u64: per-doc gram loop (memoized
            # hashes keep this acceptable for the rare wide-n configs)
            for i in long_rows:
                t = texts[i]
                hs = np.fromiter(
                    (self._hash(t[j : j + n]) for j in range(len(t) - n + 1)),
                    dtype=np.uint64,
                    count=len(t) - n + 1,
                )
                bits = (
                    (hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
                    & np.uint64(1)
                ).astype(np.int32)
                acc = (2 * bits - 1).sum(axis=0)
                weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
                out[i] = np.int64(
                    ((acc > 0).astype(np.uint64) * weights).sum(dtype=np.uint64)
                )
        elif long_rows:
            sub = [texts[i] for i in long_rows]
            lens = np.fromiter((len(t) for t in sub), dtype=np.int64, count=len(sub))
            total = int(lens.sum())
            # packed-codepoint n-gram windows (21 bits/char, same kernel
            # family as _batch_gram_df), windows crossing a doc boundary
            # masked out; multiplicity preserved
            cp = np.frombuffer("".join(sub).encode("utf-32-le"), dtype=np.uint32).astype(
                np.uint64
            )
            n_win = total - n + 1
            packed = np.zeros(n_win, dtype=np.uint64)
            for k in range(n):
                packed |= cp[k : n_win + k] << np.uint64(21 * k)
            doc_idx = np.repeat(np.arange(len(sub), dtype=np.int64), lens)
            valid = doc_idx[:n_win] == doc_idx[n - 1 :]
            p = packed[valid]
            d = doc_idx[:n_win][valid]
            uniq, inverse = np.unique(p, return_inverse=True)
            shifts = [21 * k for k in range(n)]
            hashes = np.fromiter(
                (
                    self._hash("".join(chr((int(v) >> s) & 0x1FFFFF) for s in shifts))
                    for v in uniq
                ),
                dtype=np.uint64,
                count=len(uniq),
            )
            U = len(uniq)
            if len(sub) * U <= self.dense_limit:
                # per-(doc, unique-gram) multiplicities via one bincount,
                # then counts @ signs in float32 BLAS — exact: every
                # count, sign and partial sum is an integer far below
                # 2^24
                counts = (
                    np.bincount(d * U + inverse, minlength=len(sub) * U)
                    .reshape(len(sub), U)
                    .astype(np.float32)
                )
                bits = (
                    (hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
                    & np.uint64(1)
                ).astype(np.float32)
                signs = 2.0 * bits - 1.0  # (U, 64)
                accs = counts @ signs  # (n_long, 64)
            else:
                # unbounded vocab: per-position hashes + byte-LUT sign
                # expansion reduced per doc — memory stays O(windows),
                # never O(docs x vocab)
                if self._sign_lut is None:
                    lb = (
                        (np.arange(256, dtype=np.uint16)[:, None]
                         >> np.arange(8, dtype=np.uint16)[None, :])
                        & 1
                    ).astype(np.int32)
                    self._sign_lut = 2 * lb - 1  # (256, 8)
                hp = hashes[inverse]  # (T,) uint64 per-position hashes
                starts = np.searchsorted(d, np.arange(len(sub), dtype=np.int64))
                accs = np.empty((len(sub), 64), dtype=np.int32)
                for k in range(8):
                    byte = ((hp >> np.uint64(8 * k)) & np.uint64(0xFF)).astype(
                        np.int64
                    )
                    accs[:, 8 * k : 8 * k + 8] = np.add.reduceat(
                        self._sign_lut[byte], starts, axis=0
                    )
            weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
            v = ((accs > 0).astype(np.uint64) * weights[None, :]).sum(
                axis=1, dtype=np.uint64
            )
            out[np.asarray(long_rows, dtype=np.int64)] = v.view(np.int64)
        return pa.table(
            {"doc_id": batch["doc_id"], "simhash": pa.array(out, pa.int64())}
        )


def simhash_fingerprints(docs: "ray.data.Dataset", n: int = 3) -> "ray.data.Dataset":
    return actor_map(docs.select_columns(["doc_id", "text"]), _SimHasher, n)


def simhash_dup_pairs(
    docs: "ray.data.Dataset", max_hamming: int = 3, n: int = 3,
    n_bands: int = 4, bucket_cap: int = 4096,
) -> "ray.data.Dataset":
    """SimHash near-dup pairs: all (a, b) whose 64-bit SimHashes differ
    in <= ``max_hamming`` bits. COMPLETE for max_hamming < n_bands by
    pigeonhole: splitting 64 bits into ``n_bands`` equal slices, a pair
    within hamming distance k < n_bands must agree exactly on >= 1
    slice, so the band co-occurrence shuffle (stages/lsh machinery, ONE
    shuffle over (band, doc_id) rows) generates every true pair; exact
    hamming verification on candidates drops the rest. The same
    band-slice construction the image pipeline applies to phash
    (signatures.py), here over document SimHashes — the brief's
    'SimHash dedup' as a first-class operator.

    SQL oracle: md5-based gram hashes make both the fingerprints and
    the hamming-threshold pair set exactly expressible in DuckDB
    (``md5_number_upper`` + ``bit_count(xor(...))``); completeness is
    additionally pytest-verified against brute-force hamming over the
    simhash column.

    Round 4: the full simhash rides the band rows, so the EXACT
    hamming is computed and filtered inside the band bucket (the
    ``exact_hamming`` switch of lsh.cooccurrence_pairs_multi, int ids)
    and carried through the pair dedup — the slim attach + re-verify
    stage and the fingerprint materialize barrier are gone (the
    signature table now has exactly one consumer). Same shape the
    image/audio/video tiers took; output identical (hash-green vs the
    unchanged DuckDB oracle)."""
    from ..stages.lsh import cooccurrence_pairs_multi, dedup_pairs

    assert max_hamming < n_bands, "pigeonhole completeness needs k < n_bands"
    width = 64 // n_bands

    sims = simhash_fingerprints(docs, n=n)

    def _bands(batch: pa.Table) -> pa.Table:
        h = np.asarray(batch["simhash"].to_pylist(), dtype=np.int64).view(np.uint64)
        nr = len(h)
        bands = np.empty(nr * n_bands, dtype=np.int64)
        ids = np.empty(nr * n_bands, dtype=np.int64)
        sh = np.empty(nr * n_bands, dtype=np.int64)
        did = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        mask = np.uint64((1 << width) - 1)
        for b in range(n_bands):
            slice_ = (h >> np.uint64(b * width)) & mask
            # tag the band index into high bits so slices from different
            # positions never collide
            bands[b * nr : (b + 1) * nr] = (
                (np.int64(b) << np.int64(48)) | slice_.astype(np.int64)
            )
            ids[b * nr : (b + 1) * nr] = did
            sh[b * nr : (b + 1) * nr] = h.view(np.int64)
        return pa.table(
            {
                "band": pa.array(bands, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
                "simhash": pa.array(sh, pa.int64()),
            }
        )

    verified = dedup_pairs(
        cooccurrence_pairs_multi(
            [
                {
                    "rows": sims.map_batches(_bands, batch_format="pyarrow"),
                    "key_col": "band", "cap": bucket_cap, "attr_col": "simhash",
                    "attr_maxham": max_hamming, "exact_hamming": True,
                }
            ],
            "doc_id",
            id_dtype="int",
        ),
        id_dtype="int",
    )

    def _rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": batch["src_id"],
                "b": batch["dst_id"],
                "hamming": batch["hamming"],
            }
        )

    return verified.map_batches(_rename, batch_format="pyarrow")


def doc_fingerprints(docs: "ray.data.Dataset", kgram: int = 16, window: int = 8) -> "ray.data.Dataset":
    """Winnowed rolling-hash fingerprints per document (MOSS-style;
    stages/substring.py machinery applied to documents)."""
    from ..stages.substring import winnow_fingerprints

    nm = Normalizer(simple_alphabet())

    def _fp(batch: pa.Table) -> pa.Table:
        ids, fps = [], []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            f = winnow_fingerprints(nm.normalize(t), kgram, window)
            ids.append(d)
            fps.append(f)
        offsets = np.zeros(len(fps) + 1, dtype=np.int32)
        offsets[1:] = np.cumsum([len(f) for f in fps])
        flat = np.concatenate(fps) if fps else np.empty(0, dtype=np.uint64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "fingerprints": pa.ListArray.from_arrays(
                    pa.array(offsets), pa.array(flat, pa.uint64())
                ),
                "n_fingerprints": pa.array([len(f) for f in fps], pa.int64()),
            }
        )

    return docs.map_batches(_fp, batch_format="pyarrow")


class LangId:
    """Actor: character/script + stopword n-gram heuristic language ID.

    State (per-actor, built once): profile tables. Rows-only oracle (the
    driver's weaker check) — accuracy is asserted in pytest against the
    table's own ``lang`` column instead."""

    PROFILES = {
        "en": {"the", "and", "of", "to", "a", "in", "is", "value", "table", "row"},
        "fr": {"le", "la", "les", "de", "et", "un", "une", "est", "pour"},
        "es": {"el", "la", "los", "de", "y", "un", "una", "es", "para"},
        "de": {"der", "die", "das", "und", "ein", "eine", "ist", "für", "von"},
    }

    def __init__(self):
        self.profiles = {k: frozenset(v) for k, v in self.PROFILES.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas()
        n = len(s)
        # script check first: CJK codepoints dominate -> zh (vectorized
        # over the 200-char prefix via a codepoint-range regex count)
        head = s.str.slice(0, 200)
        cjk = head.str.count(r"[一-鿿]").to_numpy(dtype=np.float64)
        is_zh = cjk > head.str.len().to_numpy(dtype=np.float64) * 0.2
        # distinct lowercase tokens per doc (explode once), then one
        # C-speed isin + groupby-sum per language profile
        toks = (
            oracle_tokens(s.str.lower()).explode().dropna()
            .to_frame("tok").reset_index().drop_duplicates()
        )
        langs = sorted(self.profiles)  # ties break alphabetically (max over sorted)
        scores = np.zeros((n, len(langs)), dtype=np.int64)
        for j, lang in enumerate(langs):
            hit = toks.loc[toks["tok"].isin(self.profiles[lang])].groupby("index").size()
            scores[hit.index.to_numpy(), j] = hit.to_numpy()
        best_j = np.argmax(scores, axis=1)  # first max = alphabetically first
        best_score = scores[np.arange(n), best_j]
        preds = np.where(
            is_zh, "zh",
            np.where(best_score > 0, np.array(langs, dtype=object)[best_j], "unknown"),
        )
        return pa.table(
            {"doc_id": batch["doc_id"], "pred_lang": pa.array(preds, pa.string())}
        )


def testinput(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Input-encodability validator (M8; reference `analiticcl
    testinput`, src/bin/analiticcl.rs:1007-1023): per document, does any
    non-whitespace character fall outside the alphabet (i.e. normalize
    to UNK)? Emits (doc_id, has_unk, n_unk). With the simple a-z/./,
    alphabet this is SQL-expressible, so it carries a DuckDB oracle."""
    nm = Normalizer(simple_alphabet())

    def _check(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n_unk = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            stripped = _WS.sub("", t)
            norm = nm.normalize(stripped)
            n_unk[i] = int((norm == nm.unk_norm).sum())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "has_unk": pa.array(n_unk > 0),
                "n_unk": pa.array(n_unk, pa.int64()),
            }
        )

    return docs.select_columns(["doc_id", "text"]).map_batches(
        _check, batch_format="pyarrow"
    )


def lang_id(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    return actor_map(docs.select_columns(["doc_id", "text"]), LangId)


def lang_distribution(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """groupby on the real lang column (plain wide aggregate)."""
    return docs.groupby("lang").count()


# ---------------------------------------------------------------------
# repetition signals / deterministic sampling / tf-idf top terms
# ---------------------------------------------------------------------

def repetition_stats(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Gopher-style repetition signals per document (Rae et al. 2021,
    table A1): fraction of tokens taken by the most frequent word and
    the duplicate word-2-gram fraction — the standard pretraining-corpus
    repetition filters. Stateless vectorized map (one pandas explode +
    two C-speed groupbys per batch; the 2-grams come from a shifted
    numpy view, no per-row Python). Fractions are single int/int
    divisions so the DuckDB oracle is bit-identical."""

    def _stats(batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas()
        toks = oracle_tokens(s)
        n_tokens = toks.str.len().to_numpy(dtype=np.int64)
        ex = toks.explode().dropna()
        top_cnt = np.zeros(len(s), dtype=np.int64)
        n2 = np.zeros(len(s), dtype=np.int64)
        d2 = np.zeros(len(s), dtype=np.int64)
        if len(ex):
            d = ex.index.to_numpy()
            t = ex.to_numpy()
            vc = pd.DataFrame({"d": d, "t": t}).groupby(["d", "t"], sort=False).size()
            mx = vc.groupby(level=0).max()
            top_cnt[mx.index.to_numpy()] = mx.to_numpy()
            same = d[1:] == d[:-1]
            if same.any():
                g2d = d[:-1][same]
                g2v = (
                    pd.Series(t[:-1][same]).str.cat(pd.Series(t[1:][same]), sep=" ")
                ).to_numpy()
                cnt2 = np.bincount(g2d, minlength=len(s))
                n2 = cnt2.astype(np.int64)
                dd = (
                    pd.DataFrame({"d": g2d, "g": g2v})
                    .drop_duplicates()
                    .groupby("d", sort=False)
                    .size()
                )
                d2[dd.index.to_numpy()] = dd.to_numpy()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "top_word_frac": pa.array(
                    np.where(n_tokens > 0, top_cnt / np.maximum(n_tokens, 1), 0.0),
                    pa.float64(),
                ),
                "dup_2gram_frac": pa.array(
                    np.where(n2 > 0, (n2 - d2) / np.maximum(n2, 1), 0.0),
                    pa.float64(),
                ),
            }
        )

    return docs.select_columns(["doc_id", "text"]).map_batches(
        _stats, batch_format="pyarrow"
    )


def lexical_stats(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-document lexical-diversity signals: type/token counts,
    type-token ratio, hapax-legomenon fraction, and unigram Shannon
    entropy in bits — the standard diversity features for
    pretraining-corpus quality filtering (low TTR / low entropy flags
    templated or repetitive text). Documents with zero tokens are
    dropped (no distribution to describe).

    Pure per-row op — a document never spans batches, so this is a
    single stateless ``map_batches`` with no shuffle. Per batch: one
    explode + two C-speed groupbys; entropy terms ``p·log2(p)`` are
    quantized to int64 nano-bits BEFORE summation (the lm_perplexity
    trick) so the per-doc sum is exact and order-independent and the
    DuckDB oracle hashes bit-identically."""

    def _stats(batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        ex = oracle_tokens(s).explode().dropna()
        if not len(ex):
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "n_types": pa.array([], pa.int64()),
                    "ttr": pa.array([], pa.float64()),
                    "n_hapax": pa.array([], pa.int64()),
                    "hapax_frac": pa.array([], pa.float64()),
                    "entropy": pa.array([], pa.float64()),
                }
            )
        cnt = (
            pd.DataFrame({"d": ex.index.to_numpy(), "t": ex.to_numpy()})
            .groupby(["d", "t"], sort=False)
            .size()
        )
        c = cnt.to_numpy(dtype=np.int64)
        d = cnt.index.get_level_values(0).to_numpy()
        n_tok = np.bincount(d, weights=c, minlength=len(s)).astype(np.int64)
        n_typ = np.bincount(d, minlength=len(s)).astype(np.int64)
        n_hap = np.bincount(d[c == 1], minlength=len(s)).astype(np.int64)
        # entropy term per (doc, type), quantized to nano-bits so the
        # sum matches DuckDB's regardless of summation order
        p = c * 1.0 / n_tok[d]
        nano = np.round(p * np.log2(p) * 1e9).astype(np.int64)
        ent_nano = np.zeros(len(s), dtype=np.int64)
        np.add.at(ent_nano, d, nano)
        keep = n_tok > 0
        nt = n_tok[keep]
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "n_tokens": pa.array(nt, pa.int64()),
                "n_types": pa.array(n_typ[keep], pa.int64()),
                "ttr": pa.array(n_typ[keep] * 1.0 / nt, pa.float64()),
                "n_hapax": pa.array(n_hap[keep], pa.int64()),
                "hapax_frac": pa.array(n_hap[keep] * 1.0 / nt, pa.float64()),
                "entropy": pa.array(-(ent_nano[keep] / 1e9), pa.float64()),
            }
        )

    return docs.select_columns(["doc_id", "text"]).map_batches(
        _stats, batch_format="pyarrow"
    )


def sample_docs(docs: "ray.data.Dataset", pct: int = 10) -> "ray.data.Dataset":
    """Deterministic content-independent sampling: keep a document iff
    ``splitmix64(doc_id) % 100 < pct``. The canonical reproducible
    subsample for ablations — stable across runs, cluster sizes and
    row order, no RNG state to ship. Pure vectorized uint64 math per
    batch; the oracle rebuilds splitmix64 in SQL."""

    def _keep(batch: pa.Table) -> pa.Table:
        h = splitmix64(
            np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False), dtype=np.uint64)
        )
        mask = (h % _U64(100)) < _U64(pct)
        return batch.select(["doc_id", "lang"]).filter(pa.array(mask))

    return docs.map_batches(_keep, batch_format="pyarrow")


def balanced_sample(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Class-balanced deterministic downsample: per language, keep each
    doc iff ``splitmix64(doc_id) % cnt_lang < min_cnt`` — expected kept
    per language = the rarest language's count (the training-data
    class-balancing op). The per-class counts are a SMALL aggregate
    (cardinality = #languages), computed as per-batch combiner partials
    merged on the driver — ≤ #langs rows per block, no shuffle — and
    closed over by the filter stage; the corpus itself streams."""

    def _partial_counts(batch: pa.Table) -> pa.Table:
        vc = batch["lang"].to_pandas().value_counts()
        return pa.table(
            {
                "lang": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
                "c": pa.array(vc.to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    cnts: dict[str, int] = {}
    for r in docs.select_columns(["lang"]).map_batches(
        _partial_counts, batch_format="pyarrow"
    ).take_all():
        cnts[r["lang"]] = cnts.get(r["lang"], 0) + r["c"]
    mn = min(cnts.values()) if cnts else 0

    def _keep(batch: pa.Table) -> pa.Table:
        h = splitmix64(
            np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False), dtype=np.uint64)
        )
        cnt = (
            batch["lang"].to_pandas().map(cnts).to_numpy(dtype=np.uint64)
        )
        mask = (h % np.maximum(cnt, _U64(1))) < _U64(mn)
        return batch.select(["doc_id", "lang"]).filter(pa.array(mask))

    return docs.map_batches(_keep, batch_format="pyarrow")


def split_assign(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Deterministic train/val/test split summary: assign each doc via
    ``splitmix64(doc_id) % 1000`` (<900 train, <950 val, else test) and
    report per-split doc and token mass — the reproducible-holdout op
    every pretraining run needs (content-independent, stable across
    runs / cluster sizes / row order). Per-batch combiner partials →
    a 3-key groupby; shuffle volume is 3 rows per block."""

    def _partial(batch: pa.Table) -> pa.Table:
        ids = np.asarray(
            batch["doc_id"].to_numpy(zero_copy_only=False), dtype=np.uint64
        )
        h = splitmix64(ids) % _U64(1000)
        split = np.where(h < 900, "train", np.where(h < 950, "val", "test"))
        ntok = oracle_tokens(batch["text"].to_pandas()).str.len().to_numpy(
            dtype=np.int64
        )
        g = (
            pd.DataFrame({"split": split, "n": ntok})
            .groupby("split", sort=False)
            .agg(n_docs=("n", "size"), n_tokens=("n", "sum"))
            .reset_index()
        )
        return _pa_clean(g)

    agg = (
        docs.map_batches(_partial, batch_format="pyarrow")
        .groupby("split")
        .sum(["n_docs", "n_tokens"])
        .to_pandas()  # ≤3 rows
        .rename(columns={"sum(n_docs)": "n_docs", "sum(n_tokens)": "n_tokens"})
    )
    return ray.data.from_arrow(_pa_clean(agg))


def chunk_docs(docs: "ray.data.Dataset", window: int = 64) -> "ray.data.Dataset":
    """Context-length chunking: split every document into consecutive
    ``window``-token chunks — the standard prep step that turns
    variable-length documents into model-sized training rows. Output
    one row per (doc, chunk): ``(doc_id, chunk_id, chunk_text,
    n_tokens)``; the final chunk may be short, empty docs emit no
    chunks. Map-only (no shuffle): tokenization + position arithmetic
    are vectorized (explode + run-start subtraction), the per-chunk
    join is output-sized."""

    def _chunks(batch: pa.Table) -> pa.Table:
        ex = oracle_tokens(batch["text"].to_pandas()).explode().dropna()
        if not len(ex):
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "chunk_id": pa.array([], pa.int64()),
                    "chunk_text": pa.array([], pa.string()),
                    "n_tokens": pa.array([], pa.int64()),
                }
            )
        ids = np.asarray(
            batch["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64
        )
        rowpos = ex.index.to_numpy(dtype=np.int64)
        idx = np.arange(len(rowpos), dtype=np.int64)
        newdoc = np.empty(len(rowpos), dtype=bool)
        newdoc[0] = True
        newdoc[1:] = rowpos[1:] != rowpos[:-1]
        start_idx = np.maximum.accumulate(np.where(newdoc, idx, 0))
        chunk = (idx - start_idx) // np.int64(window)
        df = pd.DataFrame(
            {
                "doc_id": ids[rowpos],
                "chunk_id": chunk,
                "tok": ex.to_numpy(dtype=object),
            }
        )
        g = (
            df.groupby(["doc_id", "chunk_id"], sort=False)
            .agg(chunk_text=("tok", " ".join), n_tokens=("tok", "size"))
            .reset_index()
        )
        g["n_tokens"] = g["n_tokens"].astype(np.int64)
        return _pa_clean(g)

    return docs.map_batches(_chunks, batch_format="pyarrow")


def chunk_dedup(docs: "ray.data.Dataset", window: int = 16) -> "ray.data.Dataset":
    """Sub-document exact dedup (the ExactSubstr idea of Lee et al.,
    "Deduplicating Training Data Makes Language Models Better", at
    fixed ``window``-token chunk granularity): an occurrence of a chunk
    survives iff it is the GLOBAL first occurrence of that exact chunk
    text (lexicographic min ``(doc_id, chunk_id)``) — catching both
    cross-document boilerplate and within-document repetition that
    whole-doc dedup misses. Output, one row per non-empty doc:
    ``(doc_id, n_chunks, n_kept, n_tokens_kept, text_kept)`` with
    ``text_kept`` the surviving chunks rejoined in order (NULL when
    every chunk was dropped).

    Distribution shape: [[chunk_docs]] explode (map-only) → ONE
    chunk_text-bucket shuffle where the first-occurrence decision is a
    C-speed sort + ``duplicated`` per bucket → one doc_id-bucket
    cogroup to reassemble. Chunk text crosses the wire twice (identity
    decision + reassembly) — unavoidable for global-first semantics
    with reconstruction; counts-only consumers can drop ``text_kept``
    upstream."""
    chunks = chunk_docs(docs, window=window)

    def _flag(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["chunk_text", "doc_id", "chunk_id"], kind="mergesort"
        )
        keep = ~g["chunk_text"].duplicated().to_numpy()
        out = g.assign(keep=keep)[
            ["doc_id", "chunk_id", "chunk_text", "n_tokens", "keep"]
        ]
        return out

    flagged = exchange(chunks, ["chunk_text"], _flag)

    def _assemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "chunk_id"], kind="mergesort")
        kept = g[g["keep"]]
        agg = g.groupby("doc_id", sort=False).size().rename("n_chunks").to_frame()
        kg = kept.groupby("doc_id", sort=False)
        agg["n_kept"] = kg.size().reindex(agg.index, fill_value=0)
        agg["n_tokens_kept"] = kg["n_tokens"].sum().reindex(
            agg.index, fill_value=0
        )
        agg["text_kept"] = kg["chunk_text"].agg(" ".join).reindex(agg.index)
        out = agg.reset_index()
        for c in ("n_chunks", "n_kept", "n_tokens_kept"):
            out[c] = out[c].astype(np.int64)
        return out

    return exchange(flagged, ["doc_id"], _assemble)


def pack_sequences(
    docs: "ray.data.Dataset", seq_len: int = 128, bucket_shift: int = 12
) -> "ray.data.Dataset":
    """Concat-and-split sequence packing (GPT-style): conceptually
    concatenate all documents in ``doc_id`` order and cut the stream
    into ``seq_len``-token training sequences; report, per document,
    its global token offset and the first/last sequence it lands in.
    Empty docs are excluded (they occupy no tokens).

    Scale shape — a distributed prefix sum, never a global sort:
    stage 1 reduces each doc to two ints (map-only); stage 2 folds
    per-RANGE-bucket token sums (``doc_id >> bucket_shift``, so bucket
    order == doc order) into a driver-side exclusive prefix — bucket
    count = n_docs/4096, raise ``bucket_shift`` at trillion-doc scale;
    stage 3 cumsums within each bucket cogroup and adds its bucket
    base. Shuffle volume: 16 bytes per doc."""

    def _counts(batch: pa.Table) -> pa.Table:
        ids = np.asarray(
            batch["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64
        )
        n = oracle_tokens(batch["text"].to_pandas()).str.len().to_numpy(
            dtype=np.int64
        )
        keep = n > 0
        ids, n = ids[keep], n[keep]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
                "range_key": pa.array(ids >> np.int64(bucket_shift), pa.int64()),
            }
        )

    counts = docs.map_batches(_counts, batch_format="pyarrow").materialize()

    bs = (
        counts.groupby("range_key").sum("n_tokens").to_pandas()
        .rename(columns={"sum(n_tokens)": "s"})
        .sort_values("range_key")
    )
    base = bs["s"].cumsum().shift(1, fill_value=0).astype(np.int64)
    offsets_ref = ray.put(
        dict(zip(bs["range_key"].to_numpy(dtype=np.int64), base.to_numpy()))
    )
    L = np.int64(seq_len)

    def _assign(group: pd.DataFrame) -> pd.DataFrame:
        offsets = ray.get(offsets_ref)
        g = group.sort_values("doc_id", kind="mergesort")
        n = g["n_tokens"].to_numpy(dtype=np.int64)
        off = (
            np.int64(offsets[int(g["range_key"].iloc[0])])
            + np.cumsum(n)
            - n
        )
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(dtype=np.int64),
                "n_tokens": n,
                "tok_offset": off,
                "first_seq": off // L,
                "last_seq": (off + n - 1) // L,
            }
        )

    return counts.groupby("range_key").map_groups(_assign)


def prep_corpus(
    docs: "ray.data.Dataset",
    min_tokens: int = 20,
    min_distinct_ratio: float = 0.3,
    n: int = 3,
    threshold: float = 0.8,
) -> "ray.data.Dataset":
    """The end-to-end training-data prep pipeline as ONE composition —
    what an actual pretraining run executes, chained from this module's
    operators: quality gate → exact dedup → near dedup →
    deterministic split, reported as the final per-(split, source)
    doc/token mass (the corpus card of the data that would ship).

    Stages and their scale shapes:
    1. quality gate — map-only (token count + distinct ratio, the
       [[quality_filter]] thresholds), text never shuffles here;
    2. exact dedup — survivors bucket-hash ONCE on text; in-group
       keep = min doc_id per identical text (this is the single time
       the text column crosses the wire, and it also positions stage 3);
    3. near dedup — [[near_dup_keep]] over the exact-dedup survivors
       (n-gram Jaccard pairs → distributed CC → keep flags), joined
       back through a doc_id-bucket cogroup against the SLIM
       (doc_id, source, n_tokens) projection — text is already gone;
    4. split + rollup — splitmix64 split assignment ([[split_assign]]
       semantics), per-batch combiner → ≤ 3·|sources|-row merge."""

    def _quality(batch: pa.Table) -> pa.Table:
        df = batch.select(["doc_id", "text", "source"]).to_pandas()
        toks = oracle_tokens(df["text"])
        nt = toks.str.len().to_numpy(dtype=np.int64)
        ex = toks.explode().dropna()
        nd_g = ex.groupby(level=0).nunique()
        nd = np.zeros(len(df), dtype=np.int64)
        nd[nd_g.index.to_numpy()] = nd_g.to_numpy()
        ratio = np.where(nt > 0, nd / np.maximum(nt, 1), 0.0)
        keep = (nt >= min_tokens) & (ratio >= min_distinct_ratio)
        out = df.loc[keep, ["doc_id", "text", "source"]].assign(
            n_tokens=nt[keep]
        )
        return _pa_clean(out)

    kept1 = docs.map_batches(_quality, batch_format="pyarrow")

    def _dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keep = (
            g.groupby("text", sort=False)["doc_id"].transform("min")
            == g["doc_id"]
        )
        return g.loc[keep, ["doc_id", "text", "source", "n_tokens"]]

    # materialized: consumed twice, by the near-dup pairs and the slim join
    kept2 = exchange(kept1, ["text"], _dedup_bucket).materialize()

    keep3 = near_dup_keep(kept2, n=n, threshold=threshold)

    def _slim_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "source": t["source"],
                "n_tokens": t["n_tokens"],
                "keep": pa.array([None] * len(t), pa.bool_()),
            }
        )

    def _keep_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "source": pa.array([None] * len(t), pa.string()),
                "n_tokens": pa.array([None] * len(t), pa.int64()),
                "keep": t["keep"],
            }
        )

    def _rollup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g.loc[g["source"].notna(), ["doc_id", "source", "n_tokens"]]
        flags = g.loc[g["source"].isna(), ["doc_id", "keep"]]
        m = left.merge(flags, on="doc_id", how="left")
        m = m[m["keep"].astype("boolean").fillna(True).to_numpy(dtype=bool)]
        ids = np.asarray(m["doc_id"].to_numpy(), dtype=np.uint64)
        h = splitmix64(ids) % _U64(1000)
        m = m.assign(
            split=np.where(h < 900, "train", np.where(h < 950, "val", "test"))
        )
        part = (
            m.groupby(["split", "source"], sort=False)
            .agg(n_docs=("doc_id", "size"), n_tokens=("n_tokens", "sum"))
            .reset_index()
        )
        part["n_docs"] = part["n_docs"].astype(np.int64)
        part["n_tokens"] = part["n_tokens"].astype(np.int64)
        return part

    def _final_merge(df: pd.DataFrame) -> pa.Table:
        g = (
            df.groupby(["split", "source"], sort=False)[["n_docs", "n_tokens"]]
            .sum()
            .reset_index()
        )
        g["n_docs"] = g["n_docs"].astype(np.int64)
        g["n_tokens"] = g["n_tokens"].astype(np.int64)
        return _pa_clean(g)

    # the rollup is ≤ 3·|sources| rows per bucket — merge the partials
    # on one task (repartition(1)) instead of a groupby shuffle
    return (
        exchange(
            [
                kept2.map_batches(_slim_side, batch_format="pyarrow"),
                keep3.map_batches(_keep_side, batch_format="pyarrow"),
            ],
            ["doc_id"],
            _rollup_bucket,
        )
        .repartition(1)
        .map_batches(_final_merge, batch_format="pandas", batch_size=None)
    )


def length_histogram(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Power-of-two token-length histogram — the data-card /
    batch-shape-planning summary (how much mass sits in each length
    doubling). Bucket = bit_length(n_tokens) (0 for empty docs), with
    the integer [lo, hi] range materialized per bucket. Exact integer
    math only: bit_length via ``np.frexp`` exponents (int64 < 2^53 is
    exact in float64). Per-batch combiner → ≤64-key groupby; shuffle
    volume ≤ 64 rows per block."""

    def _partial(batch: pa.Table) -> pa.Table:
        n = oracle_tokens(batch["text"].to_pandas()).str.len().to_numpy(
            dtype=np.int64
        )
        bl = np.zeros(len(n), dtype=np.int64)
        nz = n > 0
        _, e = np.frexp(n[nz].astype(np.float64))
        bl[nz] = e.astype(np.int64)
        g = (
            pd.DataFrame({"bucket_bits": bl, "n": n})
            .groupby("bucket_bits", sort=False)
            .agg(n_docs=("n", "size"), n_tokens=("n", "sum"))
            .reset_index()
        )
        return _pa_clean(g)

    agg = (
        docs.map_batches(_partial, batch_format="pyarrow")
        .groupby("bucket_bits")
        .sum(["n_docs", "n_tokens"])
        .to_pandas()  # ≤64 rows
        .rename(columns={"sum(n_docs)": "n_docs", "sum(n_tokens)": "n_tokens"})
    )
    b = agg["bucket_bits"].to_numpy(dtype=np.int64)
    agg["lo"] = np.where(b == 0, 0, np.int64(1) << np.maximum(b - 1, 0))
    agg["hi"] = (np.int64(1) << b) - 1
    return ray.data.from_arrow(_pa_clean(agg))


def dup_rate_by_source(
    docs: "ray.data.Dataset", n: int = 3, threshold: float = 0.8
) -> "ray.data.Dataset":
    """Dedup analytics rollup: how much of each source survives
    near-dup dedup — per source, total docs, docs the keep-list drops,
    and the drop rate (the one float = a single division of exact
    ints). The report a pipeline owner reads after a dedup run to spot
    a boilerplate-heavy source. Composition: [[near_dup_keep]] (every
    doc gets a keep flag) joined back to ``source`` through ONE
    doc_id-bucket cogroup (no broadcast of either side), then a
    source-keyed combiner merge."""
    keep = near_dup_keep(docs, n=n, threshold=threshold)

    def _keep_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "dropped": pc.cast(pc.invert(t["keep"]), pa.int64()),
                "source": pa.array([None] * len(t), pa.string()),
            }
        )

    def _src_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "dropped": pa.array([None] * len(t), pa.int64()),
                "source": t["source"],
            }
        )

    def _join(g: pd.DataFrame) -> pd.DataFrame:
        left = g.loc[g["source"].isna(), ["doc_id", "dropped"]]
        right = g.loc[g["source"].notna(), ["doc_id", "source"]]
        m = right.merge(left, on="doc_id", how="left")
        part = (
            m.groupby("source", sort=False)
            .agg(
                n_docs=("doc_id", "size"),
                n_dropped=("dropped", "sum"),
            )
            .reset_index()
        )
        part["n_dropped"] = part["n_dropped"].astype(np.int64)
        return part

    both = [
        keep.map_batches(_keep_side, batch_format="pyarrow"),
        docs.select_columns(["doc_id", "source"]).map_batches(
            _src_side, batch_format="pyarrow"
        ),
    ]
    agg = (
        exchange(both, ["doc_id"], _join)
        .groupby("source")
        .sum(["n_docs", "n_dropped"])
        .to_pandas()  # |distinct sources| rows
        .rename(
            columns={"sum(n_docs)": "n_docs", "sum(n_dropped)": "n_dropped"}
        )
    )
    agg["drop_rate"] = agg["n_dropped"].astype(np.float64) / agg[
        "n_docs"
    ].astype(np.float64)
    return ray.data.from_arrow(_pa_clean(agg))


def doc_freq(docs: "ray.data.Dataset", min_df: int = 1) -> "ray.data.Dataset":
    """Global document-frequency vocabulary: one row per distinct token
    with its DF and IDF (``ln(N/df)``) — the standing side table a
    tf-idf scorer, stopword inducer, or tokenizer-vocab builder reads.
    Per-batch combiner (distinct (doc, token) inside the batch is exact
    — a document never spans batches), so the shuffle carries one row
    per distinct token per block; merged through the shared token-bucket
    cogroup. N is the one driver-side scalar (``docs.count()``)."""
    n_docs = docs.count()

    def _partial(batch: pa.Table) -> pa.Table:
        ex = oracle_tokens(batch["text"].to_pandas()).explode().dropna()
        g = (
            pd.DataFrame({"d": ex.index.to_numpy(), "token": ex.to_numpy()})
            .drop_duplicates()
            .groupby("token", sort=False)
            .size()
            .reset_index(name="df")
        )
        return pa.table(
            {
                "token": pa.array(g["token"], pa.string()),
                "df": pa.array(g["df"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    def _merge_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("token", sort=False)["df"].sum().reset_index()
        out = out[out["df"] >= min_df]
        out["df"] = out["df"].astype("int64")
        out["idf"] = np.log(n_docs / out["df"].to_numpy())
        return out

    return exchange(
        docs.select_columns(["doc_id", "text"]).map_batches(_partial, batch_format="pyarrow"),
        ["token"],
        _merge_bucket,
    )


def tfidf_top_terms(docs: "ray.data.Dataset", k: int = 5) -> "ray.data.Dataset":
    """Per-document top-k distinctive terms by tf-idf
    (``tf * ln(N/df)``), ties broken by token — corpus keyword
    extraction at pipeline scale. Fully distributed: per-batch (doc,
    token, tf) rows (exact — a document never spans batches) and
    per-batch df partials (combiner), df merged through the shared
    token-bucket cogroup, tf⋈df joined in the SAME bucket shuffle (one
    pandas merge per bucket, never a driver-side vocabulary), then a
    doc-bucket cogroup takes each document's top k. N is the one small
    driver-side scalar (``docs.count()``)."""
    n_docs = docs.count()

    def _tf(batch: pa.Table) -> pa.Table:
        ex = oracle_tokens(batch["text"].to_pandas()).explode().dropna()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"doc_id": ids[ex.index.to_numpy()], "token": ex.to_numpy()})
        tf = g.groupby(["doc_id", "token"], sort=False).size().reset_index(name="tf")
        return _pa_clean(tf)

    tf_rows = docs.select_columns(["doc_id", "text"]).map_batches(
        _tf, batch_format="pyarrow"
    )

    # df partials ride the same rows: distinct (doc, token) per batch is
    # exactly one tf row, so df = count of tf rows per token.
    def _join_bucket(group: pd.DataFrame) -> pd.DataFrame:
        df = group.groupby("token", sort=False).size().reset_index(name="df")
        out = group.merge(df, on="token", copy=False)
        out["tfidf"] = out["tf"].to_numpy() * np.log(
            n_docs / out["df"].to_numpy()
        )
        return out[["doc_id", "token", "tf", "df", "tfidf"]]

    scored = exchange(tf_rows, ["token"], _join_bucket)

    def _topk_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.sort_values(
                ["doc_id", "tfidf", "token"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .groupby("doc_id", sort=False)
            .head(k)
        )
        return out[["doc_id", "token", "tf", "df", "tfidf"]]

    return exchange(scored, ["doc_id"], _topk_bucket)


# ---------------------------------------------------------------------
# bigram-LM perplexity scoring (the T9 LM as a distributed data op)
# ---------------------------------------------------------------------

#: sequence sentinels (never produced by whitespace tokenization of
#: sane text; the oracle uses chr(2)/chr(3) so parity holds regardless)
_LM_BOS = "\x02"
_LM_EOS = "\x03"
#: the reference's constant transition smoothing logprob
#: (src/search.rs:4, ln(1e-6) = -13.815510557964274) in nano units —
#: per-transition logprobs are summed as exact int64 nanolog units so
#: the result is order-independent and bit-identical to the SQL oracle.
_LM_SMOOTH_NANO = np.int64(-13815510558)


def _lm_seq_arrays(batch: pa.Table):
    """Vectorized [BOS]+tokens+[EOS] flattening for a batch of docs.

    Returns (doc_ids, m, flat) where m[i] = len(seq_i) and flat is the
    concatenated object array of all sequences — no per-row Python in
    the construction (one chain.from_iterable over the token lists).
    """
    from itertools import chain

    s = batch["text"].to_pandas()
    toks = oracle_tokens(s)  # oracle-exact split (matches doc_stats)
    n = toks.str.len().to_numpy(dtype=np.int64)
    m = n + 2
    total = int(m.sum())
    starts = np.zeros(len(m), dtype=np.int64)
    if len(m) > 1:
        starts[1:] = np.cumsum(m)[:-1]
    flat = np.empty(total, dtype=object)
    flat[starts] = _LM_BOS
    flat[starts + m - 1] = _LM_EOS
    mid = np.ones(total, dtype=bool)
    mid[starts] = False
    mid[starts + m - 1] = False
    flat[mid] = np.fromiter(
        chain.from_iterable(toks.to_numpy()), dtype=object, count=int(n.sum())
    )
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    return ids, m, starts, flat


def lm_counts(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Corpus-wide bigram-LM counts (the distributed form of the
    reference's LM build, src/lib.rs:2676-2685 / add_ngram): one row per
    n-gram key with its count. Keys are unambiguous strings — a unigram
    is the token itself, a bigram is ``a + ' ' + b`` (whitespace tokens
    cannot contain a space). Per-batch combiner partials (value_counts)
    then ONE small bucket-cogroup merge — the token_counts shape; the
    output is model-sized (vocabulary + observed transitions), never
    corpus-sized."""

    def _partial(batch: pa.Table) -> pa.Table:
        ids, m, starts, flat = _lm_seq_arrays(batch)
        trans_mask = np.ones(len(flat), dtype=bool)
        trans_mask[starts + m - 1] = False
        p = np.nonzero(trans_mask)[0]
        a = pd.Series(flat[p])
        b = pd.Series(flat[p + 1])
        bi = a.str.cat(b, sep=" ")
        vc = pd.concat([pd.Series(flat), bi]).value_counts()
        return pa.table(
            {
                "key": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
                "cnt": pa.array(vc.to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    def _merge(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("key", sort=False).agg(cnt=("cnt", "sum")).reset_index()
        return out

    return exchange(
        docs.select_columns(["doc_id", "text"]).map_batches(_partial, batch_format="pyarrow"),
        ["key"],
        _merge,
    )


class _LMScorer:
    """Actor: per-document logprob/perplexity against broadcast counts.

    The count table is MODEL-sized (vocab + transitions), the blessed
    broadcast case: ``ray.put`` once, zero-copy Arrow view per actor,
    one pd.Series hash index built in ``__init__``. At a vocabulary too
    large for the object store, score via the tfidf_top_terms shape
    instead (partition transitions by key bucket, join counts in the
    bucket cogroup, then groupby(doc).sum — two shuffles).

    Per-transition semantics mirror BigramLM.score_tokens
    (src/lib.rs:2632-2674): joint count j of (a,b), prior count p of a;
    lp = ln(j) if p < j else ln(j/p); unseen bigram -> the smoothing
    constant. Logprobs are summed in int64 nano units (exact,
    order-independent) so the DuckDB oracle hashes bit-identically.
    """

    def __init__(self, counts_ref):
        table = ray.get(counts_ref)
        self.counts = pd.Series(
            table["cnt"].to_numpy(zero_copy_only=False),
            index=pd.Index(table["key"].to_pandas(), dtype=object),
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, m, starts, flat = _lm_seq_arrays(batch)
        trans_mask = np.ones(len(flat), dtype=bool)
        trans_mask[starts + m - 1] = False
        p_idx = np.nonzero(trans_mask)[0]
        a = pd.Series(flat[p_idx])
        bi_key = a.str.cat(pd.Series(flat[p_idx + 1]), sep=" ")
        joint = bi_key.map(self.counts).to_numpy(dtype=np.float64)
        prior = a.map(self.counts).to_numpy(dtype=np.float64)
        seen = ~np.isnan(joint)
        j = np.where(seen, joint, 1.0)
        pr = np.where(np.isnan(prior), 1.0, prior)
        # p < j is unreachable when scoring the training corpus (a
        # unigram count dominates its outgoing bigrams) but kept for
        # parity with the reference's guard (src/lib.rs:2650-2656)
        lp = np.where(pr < j, np.log(j), np.log(j / pr))
        nano = np.where(
            seen, np.round(lp * 1e9).astype(np.int64), _LM_SMOOTH_NANO
        )
        doc_of = np.repeat(np.arange(len(m)), m - 1)
        sums = np.zeros(len(m), dtype=np.int64)
        np.add.at(sums, doc_of, nano)
        n_trans = (m - 1).astype(np.int64)
        logprob = sums / 1e9
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_transitions": pa.array(n_trans, pa.int64()),
                "logprob": pa.array(logprob, pa.float64()),
                "perplexity": pa.array(-logprob / n_trans, pa.float64()),
            }
        )


def lm_perplexity(
    docs: "ray.data.Dataset",
    train_mod: int | None = None,
) -> "ray.data.Dataset":
    """Per-document bigram-LM perplexity — the CCNet-style LM quality
    signal as a first-class distributed op, with the reference's exact
    LM semantics (T9: count LM, constant transition smoothing,
    perplexity = -logprob/n over [BOS]+tokens+[EOS] transitions).

    ``train_mod``: train the LM only on docs with doc_id % train_mod
    == 0 (the held-in/held-out split that makes smoothing observable —
    CCNet trains on a reference corpus and scores the crawl); None
    trains on everything. Scoring needs no shuffle at all: a document's
    transitions are complete within its batch, so the per-doc sum is
    local; the LM counts are the only shared state (broadcast once).
    """
    src = docs.select_columns(["doc_id", "text"])
    if train_mod is not None:
        mod = int(train_mod)

        def _train_split(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % mod == 0))

        train = src.map_batches(_train_split, batch_format="pyarrow")
    else:
        train = src
    parts = []
    for b in lm_counts(train).iter_batches(batch_size=65536, batch_format="pyarrow"):
        parts.append(b.select(["key", "cnt"]))
    counts = (
        pa.concat_tables(parts).combine_chunks()
        if parts
        else pa.table({"key": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())})
    )
    counts_ref = ray.put(counts)
    return actor_map(src, _LMScorer, counts_ref, batch_size=4096)


# ---------------------------------------------------------------------
# cross-document shared-span detection (winnowing -> exact verify)
# ---------------------------------------------------------------------

class _SpanFingerprints:
    """Actor: winnowed k-gram fingerprints over RAW codepoints.

    Reuses the caption substring machinery (stages/substring.py —
    Schleimer/Wilkerson/Aiken winnowing, the distributed counterpart of
    the reference's LCS + ngram substring search, src/distance.rs:181-205
    and src/search.rs:190-313) but on unnormalized text so the operator
    and its SQL oracle share exact raw-substring semantics. Guarantee:
    two docs sharing a span of >= kgram + window - 1 characters share at
    least one emitted fingerprint."""

    def __init__(self, kgram: int, window: int, seed: int = 0x5EED):
        from ..stages.substring import winnow_fingerprints

        self._winnow = winnow_fingerprints
        self.kgram = kgram
        self.window = window
        self.seed = seed
        self._memo: dict[str, np.ndarray] = {}

    def _fps(self, text: str) -> np.ndarray:
        f = self._memo.get(text)
        if f is None:
            if len(self._memo) > 500_000:
                self._memo.clear()
            codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
            f = self._winnow(codes, self.kgram, self.window, self.seed)
            self._memo[text] = f
        return f

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        out_band: list[np.ndarray] = []
        out_id: list[np.ndarray] = []
        for i, t in enumerate(texts):
            fps = self._fps(t)
            if len(fps):
                out_band.append(fps)
                out_id.append(np.full(len(fps), ids[i], dtype=np.int64))
        bands = np.concatenate(out_band) if out_band else np.empty(0, np.uint64)
        dids = np.concatenate(out_id) if out_id else np.empty(0, np.int64)
        return pa.table(
            {
                "band": pa.array(bands.view(np.int64), pa.int64()),
                "doc_id": pa.array(dids, pa.int64()),
            }
        )


class _SharedSpanVerifier:
    """Actor: exact "common substring of >= L chars" verdict per pair.

    Per-doc L-gram sets are memoized across batches (duplicate-heavy
    corpora repeat texts); the per-pair check is one set intersection
    over the shorter side. Exactness: a shared L-gram IS a shared span
    of length L."""

    def __init__(self, min_span: int):
        self.L = min_span
        self._memo: dict[str, frozenset] = {}

    def _grams(self, text: str) -> frozenset:
        g = self._memo.get(text)
        if g is None:
            if len(self._memo) > 200_000:
                self._memo.clear()
            L = self.L
            g = frozenset(
                text[i : i + L] for i in range(len(text) - L + 1)
            )
            self._memo[text] = g
        return g

    def __call__(self, batch: pa.Table) -> pa.Table:
        src = batch["src_text"].to_pylist()
        dst = batch["dst_text"].to_pylist()
        keep = np.empty(len(src), dtype=bool)
        for i in range(len(src)):
            a, b = self._grams(src[i]), self._grams(dst[i])
            if len(b) < len(a):
                a, b = b, a
            keep[i] = not a.isdisjoint(b)
        return batch.filter(pa.array(keep)).select(["src_id", "dst_id"])


def shared_span_pairs(
    docs: "ray.data.Dataset",
    min_span: int = 30,
    window: int = 8,
    attach_method: str = "auto",
    bucket_cap: int = 512,
) -> "ray.data.Dataset":
    """All doc pairs sharing a contiguous raw-text substring of at least
    ``min_span`` characters (cross-document contamination / memorized-
    span detection, cf. Lee et al. 2022 "Deduplicating Training Data
    Makes Language Models Better").

    Shape: winnowing fingerprints (actor pool; deterministic guarantee
    for spans >= min_span, so candidates are a SUPERSET of the truth)
    -> ONE co-occurrence shuffle -> pair dedup -> text attach
    (broadcast/cogroup by size) -> exact L-gram-set verify in an actor
    pool. Nothing corpus-sized touches the driver; the result is EXACT
    (matches the DuckDB substring self-join oracle) except inside
    fingerprint buckets larger than ``bucket_cap``, which are salted and
    flagged via the ``capped`` pair column upstream — raise the cap if
    exactness across mega-clusters matters more than skew safety."""
    from ..stages.lsh import cooccurrence_pairs, dedup_pairs

    if not (1 <= window <= min_span):
        raise ValueError("need 1 <= window <= min_span")
    # three actor pools (fingerprints, attach, verify) hold a CPU each and
    # the read/shuffle tasks need one more: measured to hang at
    # num_cpus=3 and to finish at 4
    band_rows = actor_map(
        docs.select_columns(["doc_id", "text"]), _SpanFingerprints,
        min_span - window + 1, window, min_cpus=4,
    )
    cand = dedup_pairs(
        cooccurrence_pairs(
            band_rows, "band", "doc_id", bucket_cap, id_dtype="int"
        ),
        id_dtype="int",
    )
    from ..stages.verify import attach_pair_sides

    attached = attach_pair_sides(
        cand,
        docs.select_columns(["doc_id", "text"]),
        ["text"],
        method=attach_method,
        id_col="doc_id",
    )
    return actor_map(attached, _SharedSpanVerifier, min_span, min_cpus=4)


# ---------------------------------------------------------------------
# dedup keep-list (representative selection) + exact quantiles
# ---------------------------------------------------------------------

def near_dup_keep(
    docs: "ray.data.Dataset", n: int = 3, threshold: float = 0.8
) -> "ray.data.Dataset":
    """The actual deduplicated-corpus decision: for every document a
    ``keep`` flag — True iff the doc is its near-dup component's
    representative (min doc_id) or is in no verified pair at all. This
    is the operator a training-data pipeline runs LAST: pairs →
    clusters → keep/drop.

    Distribution shape: clusters (dup docs only) emit flag
    ``doc_id == cluster_id``; all docs emit flag 1; a single int-keyed
    ``groupby(doc_id).min()`` merges them — no broadcast of the dup
    set, so it is safe even when the duplicate fraction is large (the
    30%-dups web-crawl case where a driver-side drop-set would OOM).
    The oracle closes the same pairs with a recursive CTE and LEFT
    JOINs the representatives back onto documents."""
    from ..stages.cc import keep_from_clusters

    clusters = near_dup_clusters(docs, n=n, threshold=threshold)
    return keep_from_clusters(docs, clusters, id_col="doc_id")


def column_quantiles(
    docs: "ray.data.Dataset",
    col: str = "n_chars",
    qs: tuple = (0.25, 0.5, 0.75, 0.9, 0.99),
) -> "ray.data.Dataset":
    """Exact distributed discrete quantiles of an integer column
    (corpus length diagnostics): per-batch ``value_counts`` partials →
    one tiny ``groupby(value).sum`` over the distinct values → the
    driver folds the histogram (size = distinct values, bounded and
    independent of row count — this is the scale trick: NO global sort,
    no row shuffle; only the histogram moves). Quantile definition is
    the discrete one (sorted value at 1-based rank ``ceil(q*N)``),
    identical to DuckDB's ``quantile_disc``."""

    def _partial(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False)
        vals, cnts = np.unique(v, return_counts=True)
        return pa.table(
            {
                "value": pa.array(vals.astype(np.int64)),
                "cnt": pa.array(cnts.astype(np.int64)),
            }
        )

    hist = (
        docs.select_columns([col])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("value")
        .sum("cnt")
        .to_pandas()  # histogram only: |distinct values| rows
        .sort_values("value")
    )
    values = hist["value"].to_numpy()
    cum = hist["sum(cnt)"].to_numpy().cumsum()
    n = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q in qs:
        rank = int(np.ceil(q * n)) if n else 0
        idx = int(np.searchsorted(cum, max(rank, 1)))
        out_q.append(float(q))
        out_v.append(int(values[idx]) if n else 0)
    return ray.data.from_arrow(
        pa.table(
            {
                "q": pa.array(out_q, pa.float64()),
                "value": pa.array(out_v, pa.int64()),
            }
        )
    )


def grouped_quantiles(
    docs: "ray.data.Dataset",
    group_col: str = "lang",
    col: str = "n_chars",
    qs: tuple = (0.25, 0.5, 0.75, 0.9, 0.99),
) -> "ray.data.Dataset":
    """Exact per-group discrete quantiles (stratified corpus length
    diagnostics — e.g. length percentiles per language). Same histogram
    trick as [[column_quantiles]]: per-batch (group, value) counts →
    one tiny two-key groupby-sum → driver folds |groups|×|distinct|
    histogram rows, never a sort or row shuffle. Discrete definition
    (1-based rank ``ceil(q*N_group)``) == DuckDB ``quantile_disc`` per
    partition."""

    def _partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby([group_col, col], sort=False).size().reset_index(name="cnt")
        return pa.table(
            {
                group_col: pa.array(g[group_col], pa.string()),
                "value": pa.array(g[col].to_numpy(dtype=np.int64), pa.int64()),
                "cnt": pa.array(g["cnt"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    hist = (
        docs.select_columns([group_col, col])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby([group_col, "value"])
        .sum("cnt")
        .to_pandas()  # |groups| x |distinct values| rows only
        .sort_values([group_col, "value"])
    )
    out_g, out_q, out_v = [], [], []
    for grp, sub in hist.groupby(group_col, sort=True):
        values = sub["value"].to_numpy()
        cum = sub["sum(cnt)"].to_numpy().cumsum()
        n = int(cum[-1])
        for q in qs:
            rank = int(np.ceil(q * n))
            idx = int(np.searchsorted(cum, max(rank, 1)))
            out_g.append(grp)
            out_q.append(float(q))
            out_v.append(int(values[idx]))
    return ray.data.from_arrow(
        pa.table(
            {
                group_col: pa.array(out_g, pa.string()),
                "q": pa.array(out_q, pa.float64()),
                "value": pa.array(out_v, pa.int64()),
            }
        )
    )


def pmi_scores(
    docs: "ray.data.Dataset", window: int = 3, min_count: int = 1
) -> "ray.data.Dataset":
    """Pointwise mutual information for within-window word pairs — the
    classic collocation / phrase-mining signal over a corpus.
    ``pmi = ln((c_pair/T_pair) / ((c_1/T_tok)·(c_2/T_tok)))`` with pair
    counts from [[cooccurrence_counts]] and unigram counts from
    [[token_counts]]; all counts exact int64, the score one fixed-shape
    float expression so the DuckDB oracle hashes identically.

    Scale shape: the pair table is the (already pre-aggregated)
    co-occurrence output; the unigram table is VOCABULARY-sized — the
    blessed broadcast case (``ray.put`` once, Series hash index per
    actor). At a vocabulary too large for the object store, swap the
    attach for a token-bucket cogroup join (tfidf_top_terms shape).
    The two totals are driver scalars via native ``sum()``."""
    pairs = cooccurrence_counts(docs, window=window)
    tok = token_counts(docs)
    # drop empty blocks before the concat: a zero-row block may carry a
    # degenerate (column-less) schema that pa.concat_tables rejects
    tok_tabs = [
        t for t in ray.get(tok.to_arrow_refs()) if t.num_rows > 0
    ]
    tok_tab = pa.concat_tables(tok_tabs)
    t_tok = float(pc.sum(tok_tab["cnt"]).as_py())
    t_pair = float(pairs.sum("cnt"))
    counts_ref = ray.put(tok_tab)

    class _Score:
        def __init__(self):
            tab = ray.get(counts_ref)
            self.counts = pd.Series(
                tab["cnt"].to_numpy(zero_copy_only=False).astype(np.float64),
                index=pd.Index(tab["token"].to_pandas(), dtype=object),
            )

        def __call__(self, batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            df = df[df["cnt"] >= min_count]
            c1 = df["w1"].map(self.counts).to_numpy(dtype=np.float64)
            c2 = df["w2"].map(self.counts).to_numpy(dtype=np.float64)
            cp = df["cnt"].to_numpy(dtype=np.float64)
            pmi = np.log((cp / t_pair) / ((c1 / t_tok) * (c2 / t_tok)))
            out = df[["w1", "w2", "cnt"]].assign(pmi=pmi)
            return _pa_clean(out)

    return actor_map(pairs, _Score)


# ---------------------------------------------------------------------
# normalization-folded exact dedup
# ---------------------------------------------------------------------

#: the fold the oracle applies: lower -> collapse every non-[a-z0-9] run
#: to one space -> trim spaces. RE2's '[^a-z0-9]' and Python re agree
#: codepoint-for-codepoint on this ASCII class.
_NORM_FOLD_RX = re.compile(r"[^a-z0-9]+")


def fold_text(s: pd.Series) -> pd.Series:
    """Case/punctuation fold used by [[normalized_dedup]]: bit-identical
    to DuckDB ``trim(regexp_replace(lower(text),'[^a-z0-9]+',' ','g'))``
    (every non-[a-z0-9] codepoint — including all non-ASCII — collapses
    to a space). One divergence pre-folded: U+0130 İ is the single
    codepoint whose Python full-mapping lower() EXPANDS ('i' +
    combining dot -> two runs -> a spurious space) while DuckDB's
    simple mapping gives 'i'; map it to 'i' first (probed empirically,
    test_fold_text_matches_duckdb)."""
    return (
        s.fillna("")
        .str.replace("İ", "i", regex=False)
        .str.lower()
        .str.replace(_NORM_FOLD_RX, " ", regex=True)
        .str.strip(" ")
    )


def normalized_dedup(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Exact dedup after case/punctuation folding — the cheap
    text-canonicalization dedup every web-scale pipeline runs between
    byte-exact dedup and MinHash (catches 'Hello, World!' vs
    'hello world'). Same shuffle shape as [[exact_dedup]]: per-block
    combiner on the folded key, one key-bucket cogroup, C-speed merge;
    shuffle volume = distinct folded keys per block, never corpus rows."""

    def _partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["doc_id", "text"]).to_pandas()
        df["norm_text"] = fold_text(df["text"])
        g = (
            df.groupby("norm_text", sort=False)["doc_id"]
            .agg(["min", "count"])
            .reset_index()
        )
        return pa.table(
            {
                "norm_text": pa.array(g["norm_text"], pa.string()),
                "rep_id": pa.array(g["min"], pa.int64()),
                "n_dups": pa.array(g["count"], pa.int64()),
            }
        )

    def _merge(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.groupby("norm_text", sort=False)
            .agg(rep_id=("rep_id", "min"), n_dups=("n_dups", "sum"))
            .reset_index()
        )
        return out

    return exchange(
        docs.map_batches(_partial, batch_format="pyarrow"),
        ["norm_text"],
        _merge,
    )


# ---------------------------------------------------------------------
# incremental (snapshot) dedup — distributed Bloom prefilter + exact
# hash-bucket semi-join
# ---------------------------------------------------------------------

_BLOOM_CHUNK_BYTES = 4096


def _bloom_indices(texts: np.ndarray, m_bits: int) -> np.ndarray:
    """Two deterministic bit positions per text (k=2 Bloom hashes):
    pandas' fixed-key vectorized siphash, then its splitmix64 remix —
    identical across workers and processes."""
    h1 = pd.util.hash_array(texts, categorize=False)
    with np.errstate(over="ignore"):
        h2 = splitmix64(h1)
    return np.concatenate([h1 % _U64(m_bits), h2 % _U64(m_bits)])


def text_bloom(ds: "ray.data.Dataset", m_bits: int = 1 << 23) -> np.ndarray:
    """Build a Bloom filter over ``text`` distributed: each block emits
    only its TOUCHED 4-KiB bitmap chunks (sparse — a block with 10k
    distinct texts touches ≤20k chunks' worth of bits, usually far
    fewer chunks), chunks OR-merge in a groupby, and the driver
    assembles ≤ m_bits/32768 small rows into the final byte array.
    Shuffle volume is O(blocks × touched_chunks), never corpus rows;
    the result is fixed-size (m_bits/8 bytes) regardless of input."""
    n_chunks = (m_bits // 8 + _BLOOM_CHUNK_BYTES - 1) // _BLOOM_CHUNK_BYTES

    def _partial(batch: pa.Table) -> pa.Table:
        t = batch["text"].to_pandas().to_numpy()
        idx = _bloom_indices(t, m_bits)
        byte = (idx >> _U64(3)).astype(np.int64)
        bit = np.left_shift(
            np.uint8(1), (idx & _U64(7)).astype(np.uint8), dtype=np.uint8
        )
        chunk = byte // _BLOOM_CHUNK_BYTES
        chunks, bits_out = [], []
        for c in np.unique(chunk):
            sel = chunk == c
            buf = np.zeros(_BLOOM_CHUNK_BYTES, dtype=np.uint8)
            np.bitwise_or.at(
                buf, byte[sel] - int(c) * _BLOOM_CHUNK_BYTES, bit[sel]
            )
            chunks.append(int(c))
            bits_out.append(buf.tobytes())
        return pa.table(
            {
                "chunk": pa.array(chunks, pa.int64()),
                "bits": pa.array(bits_out, pa.binary()),
            }
        )

    def _merge(group: pd.DataFrame) -> pa.Table:
        acc = np.bitwise_or.reduce(
            np.stack(
                [np.frombuffer(b, dtype=np.uint8) for b in group["bits"]]
            )
        )
        return pa.table(
            {
                "chunk": pa.array(group["chunk"].iloc[:1].to_numpy(), pa.int64()),
                "bits": pa.array([acc.tobytes()], pa.binary()),
            }
        )

    rows = (
        ds.select_columns(["text"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("chunk")
        .map_groups(_merge, batch_format="pandas")
        .take_all()  # <= n_chunks fixed-size rows, never corpus-sized
    )
    bloom = np.zeros(n_chunks * _BLOOM_CHUNK_BYTES, dtype=np.uint8)
    for r in rows:
        c = int(r["chunk"])
        bloom[c * _BLOOM_CHUNK_BYTES:(c + 1) * _BLOOM_CHUNK_BYTES] = (
            np.frombuffer(r["bits"], dtype=np.uint8)
        )
    return bloom


def bloom_probe(
    ds: "ray.data.Dataset", bloom_ref, m_bits: int
) -> "ray.data.Dataset":
    """Keep only rows whose text MIGHT be in the Bloom filter (no false
    negatives — exactness is restored by the exact join downstream).
    ``bloom_ref`` is a ``ray.put`` handle; workers read the numpy array
    zero-copy from the object store."""

    def _f(batch: pa.Table) -> pa.Table:
        import ray as _ray

        bloom = _ray.get(bloom_ref)
        t = batch["text"].to_pandas().to_numpy()
        idx = _bloom_indices(t, m_bits)
        hit2 = (
            bloom[(idx >> _U64(3)).astype(np.int64)]
            >> (idx & _U64(7)).astype(np.uint8)
        ) & np.uint8(1)
        keep = hit2[: len(t)].astype(bool) & hit2[len(t):].astype(bool)
        return batch.filter(pa.array(keep)).replace_schema_metadata(None)

    return ds.map_batches(_f, batch_format="pyarrow")


def incremental_dedup(
    incoming: "ray.data.Dataset",
    snapshot: "ray.data.Dataset",
    m_bits: int = 1 << 23,
) -> "ray.data.Dataset":
    """Incremental corpus dedup: flag incoming documents whose exact
    text already exists in a previously-deduped snapshot corpus — the
    every-crawl-cycle operation of a production training-data pipeline
    (dedup the new crawl AGAINST the corpus, not just within itself).

    Returns (doc_id, snap_rep): each duplicated incoming doc with the
    smallest snapshot doc_id holding the same text.

    Shape: (1) build a fixed-size Bloom filter over the snapshot texts
    distributed (see [[text_bloom]]) and broadcast it once via
    ``ray.put``; (2) Bloom-probe the incoming side — at web scale the
    overwhelming majority of new docs are NOT dups of the snapshot, so
    this drops almost every row before any shuffle, at zero false
    negatives; (3) build a second Bloom over the (now tiny) surviving
    incoming texts and probe the SNAPSHOT side with it, so the huge
    side also never enters the shuffle in bulk; (4) exact semi-join of
    the two survivor sets in ONE text-hash bucket cogroup (both sides
    tagged, C-speed in-bucket isin+map). Bloom false positives are
    eliminated by step 4; recall is exact because Blooms have no false
    negatives."""
    import ray as _ray

    snap_bloom = _ray.put(text_bloom(snapshot, m_bits))
    inc_hits = bloom_probe(
        incoming.select_columns(["doc_id", "text"]), snap_bloom, m_bits
    ).materialize()  # survivor set: |dups| + fp rows, tiny vs corpus

    inc_bloom = _ray.put(text_bloom(inc_hits, m_bits))
    snap_hits = bloom_probe(
        snapshot.select_columns(["doc_id", "text"]), inc_bloom, m_bits
    )

    def _tag(side: int):
        def _f(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "side",
                pa.array(np.full(len(batch), side, dtype=np.int8), pa.int8()),
            ).replace_schema_metadata(None)

        return _f

    def _join(group: pd.DataFrame) -> pa.Table:
        snap = group[group["side"] == 0].groupby("text")["doc_id"].min()
        inc = group[group["side"] == 1]
        hit = inc[inc["text"].isin(snap.index)]
        return _pa_clean(
            pd.DataFrame(
                {
                    "doc_id": hit["doc_id"].to_numpy(dtype=np.int64),
                    "snap_rep": hit["text"].map(snap).to_numpy(dtype=np.int64),
                }
            )
        )

    return exchange(
        [
            snap_hits.map_batches(_tag(0), batch_format="pyarrow"),
            inc_hits.map_batches(_tag(1), batch_format="pyarrow"),
        ],
        ["text"],
        _join,
    )


# ---------------------------------------------------------------------
# domain mixing weights (per-source token mass)
# ---------------------------------------------------------------------

def source_mix(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-source document counts, token totals, and the proportional
    sampling weight (n_tokens / corpus total) — the table a pretraining
    run's domain-mixture sampler is configured from. Per-block combiner
    -> one tiny groupby over |distinct sources| keys; the final weight
    division happens on the (source-count-sized) result."""

    def _partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["source", "text"]).to_pandas()
        ntok = oracle_tokens(df["text"]).str.len().astype(np.int64)
        g = (
            pd.DataFrame({"source": df["source"], "n": ntok})
            .groupby("source", sort=False)
            .agg(n_docs=("n", "size"), n_tokens=("n", "sum"))
            .reset_index()
        )
        return _pa_clean(g)

    agg = (
        docs.map_batches(_partial, batch_format="pyarrow")
        .groupby("source")
        .sum(["n_docs", "n_tokens"])
        .to_pandas()  # |distinct sources| rows only
        .rename(columns={"sum(n_docs)": "n_docs", "sum(n_tokens)": "n_tokens"})
    )
    total = int(agg["n_tokens"].sum())
    agg["weight"] = agg["n_tokens"].astype(np.float64) / float(total)
    return ray.data.from_arrow(_pa_clean(agg))


def source_overlap(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Cross-source exact-overlap matrix: for every unordered source
    pair, how many DISTINCT texts appear in both — the
    which-crawls-share-content audit that decides whether two data
    sources can be mixed without re-deduplicating. One row per
    ``(source_a, source_b)`` with ``source_a <= source_b``; the
    diagonal (``source_a = source_b``) is the distinct-text count of
    that source, so off-diagonal cells read directly as containment
    fractions against it.

    Distribution shape: per-batch distinct ``(text, source)`` combiner
    (duplicate docs collapse before the wire) → one text-bucket
    cogroup where each text's source set expands to pairs via a
    C-speed self-merge → per-bucket partial counts → the
    ≤|sources|²-row merge on one task (repartition(1), the
    constant-cardinality pattern)."""

    def _partial(batch: pa.Table) -> pa.Table:
        df = (
            batch.select(["text", "source"])
            .to_pandas()
            .drop_duplicates()
        )
        return _pa_clean(df)

    def _pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["text", "source"]].drop_duplicates()
        m = d.merge(d, on="text")
        m = m[m["source_x"] <= m["source_y"]]
        out = (
            m.groupby(["source_x", "source_y"], sort=False)
            .size()
            .rename("n_shared_texts")
            .reset_index()
            .rename(columns={"source_x": "source_a", "source_y": "source_b"})
        )
        out["n_shared_texts"] = out["n_shared_texts"].astype(np.int64)
        return out

    def _final_merge(df: pd.DataFrame) -> pa.Table:
        g = (
            df.groupby(["source_a", "source_b"], sort=False)["n_shared_texts"]
            .sum()
            .astype(np.int64)
            .reset_index()
        )
        return _pa_clean(g)

    return (
        exchange(docs.map_batches(_partial, batch_format="pyarrow"), ["text"], _pairs_bucket)
        .repartition(1)
        .map_batches(_final_merge, batch_format="pandas", batch_size=None)
    )


# ---------------------------------------------------------------------
# per-doc duplicated-n-gram fraction (corpus-internal contamination)
# ---------------------------------------------------------------------

def _word_ngram_doc_pairs(batch: pa.Table, n: int) -> pd.DataFrame:
    """Distinct (gram, doc_id) pairs for word n-grams, fully vectorized:
    explode the token lists once, then join n shifted views masked to
    same-document runs (no per-row Python loop)."""
    flat = oracle_tokens(batch["text"].to_pandas()).explode().dropna()
    ids = batch["doc_id"].to_pandas()
    words = flat.to_numpy(dtype=object)
    rowpos = flat.index.to_numpy()
    if len(words) < n:
        return pd.DataFrame({"gram": [], "doc_id": []})
    same = rowpos[: len(rowpos) - n + 1] == rowpos[n - 1:]
    gram = words[: len(words) - n + 1].copy()
    for k in range(1, n):
        gram = gram + " "
        gram = gram + words[k: len(words) - n + 1 + k]
    return pd.DataFrame(
        {
            "gram": gram[same],
            "doc_id": ids.take(rowpos[: len(rowpos) - n + 1][same]).to_numpy(),
        }
    ).drop_duplicates()


def dup_ngram_fraction(docs: "ray.data.Dataset", n: int = 3) -> "ray.data.Dataset":
    """For every document: how much of it is repeated elsewhere in the
    corpus? Per doc, the count of its DISTINCT word ``n``-grams, the
    count of those appearing in >= 2 documents, and the shared
    fraction — the Lee et al. 2022-style signal a dedup policy
    thresholds on (docs that are mostly recombinations of corpus-common
    spans).

    Shape: distinct (gram, doc) pairs per block (combiner), ONE
    gram-bucket cogroup (each gram lives in exactly one bucket, so
    in-bucket document frequencies are global), per-bucket per-doc
    partial tallies, then a native doc_id groupby-sum of two ints —
    shuffle volume is distinct pairs, then |docs per bucket| rows."""

    def _partial(batch: pa.Table) -> pa.Table:
        return _pa_clean(_word_ngram_doc_pairs(batch, n))

    def _bucket_tally(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["gram", "doc_id"])
        shared = g.groupby("gram", sort=False)["doc_id"].transform("size") >= 2
        out = (
            pd.DataFrame({"doc_id": g["doc_id"], "sh": shared})
            .groupby("doc_id", sort=False)
            .agg(n_grams=("sh", "size"), n_shared=("sh", "sum"))
            .reset_index()
        )
        out["n_grams"] = out["n_grams"].astype(np.int64)
        out["n_shared"] = out["n_shared"].astype(np.int64)
        return out

    def _finish(batch: pa.Table) -> pa.Table:
        ng = batch["sum(n_grams)"].to_numpy()
        ns = batch["sum(n_shared)"].to_numpy()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_grams": pa.array(ng, pa.int64()),
                "n_shared": pa.array(ns, pa.int64()),
                "shared_frac": pa.array(
                    ns.astype(np.float64) / ng.astype(np.float64), pa.float64()
                ),
            }
        )

    return (
        exchange(
            docs.select_columns(["doc_id", "text"]).map_batches(_partial, batch_format="pyarrow"),
            ["gram"],
            _bucket_tally,
        )
        .groupby("doc_id")
        .sum(["n_grams", "n_shared"])
        .map_batches(_finish, batch_format="pyarrow")
    )
