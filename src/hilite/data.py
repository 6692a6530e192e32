"""Dataset ingestion, synthetic benchmarks, and preprocessing.

The JSONL instance schema is the single interchange format:

    {"id": str|int, "query": str, "context": str, "gold": str|int,
     "evidence_spans": [[start, end], ...]?}            # integer byte offsets

An integer id loads as its decimal string; any other non-string id is
rejected.  Unknown fields are preserved on round-trip.  Real benchmark
corpora are converted into this schema by scripts outside the engine.

The synthetic generator builds needle-in-a-haystack instances: one evidence
sentence carrying per-instance codeword clusters and a numeric access code,
embedded at a seeded position among templated distractor sentences drawn
from a disjoint vocabulary.  Gold evidence spans delimit exactly the
informative parts of the needle, the gold answer occurs nowhere else in the
context, and single-token padding lands the context exactly on the requested
token count.  Only the needle is tokenized; distractor and filler token
counts come from construction.  A needle's distractor indices and its
padding-word indices are each drawn by one array-valued
``Generator.integers`` call, which equals one scalar call per index.

Also here: the co-visitation graph and recency-decayed candidate generation
used for recommendation preprocessing, and token-level evidence overlap
metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import tokenization
from .errors import DataError
from .tokenization import TokenizedContext, tokenize, tokens_touching

REQUIRED_FIELDS = ("id", "query", "context", "gold")
_KNOWN_FIELDS = REQUIRED_FIELDS + ("evidence_spans",)


@dataclass(frozen=True)
class Instance:
    """One dataset record: query, context, gold target and optional gold
    evidence byte ranges; any other field is kept in ``extra``.

    Construction checks the fields however the instance is built: valid
    Unicode query and context strings, a string id (an integer becomes its
    decimal string), a string or integer gold target, and sorted, disjoint
    spans of integer byte offsets inside the context.  A failed check raises DataError.

    Instances are immutable; derive a changed one with
    ``dataclasses.replace``.  :attr:`tokens` tokenizes the context once per
    instance per process, and training and every evaluation pass over the
    same instances read that one tokenization.
    """

    id: str
    query: str
    context: str
    gold: str | int
    evidence_spans: list[tuple[int, int]] | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if type(self.id) is int:  # bool is no id
            object.__setattr__(self, "id", str(self.id))
        if not isinstance(self.id, str):
            raise DataError("field 'id' is not a string or an integer")
        if not isinstance(self.gold, (str, int)) or isinstance(self.gold, bool):
            raise DataError("field 'gold' is not a string or an integer")
        for fname in ("query", "context"):
            value = getattr(self, fname)
            if not isinstance(value, str):
                raise DataError(f"field {fname!r} is not a string")
            try:  # a lone surrogate has no UTF-8 encoding, so no byte offsets
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise DataError(f"field {fname!r} is not valid Unicode: "
                                f"{exc.reason} at character {exc.start}") from exc
        if self.evidence_spans is None:
            return
        try:
            spans = [(start, end) for start, end in self.evidence_spans]
        except (TypeError, ValueError) as exc:
            raise DataError(f"instance {self.id}: malformed evidence_spans: {exc}") from exc
        n = len(self.context.encode("utf-8"))
        prev_end = -1
        for start, end in spans:
            if type(start) is not int or type(end) is not int:  # bool is no offset
                raise DataError(f"instance {self.id}: evidence_spans entry "
                                f"{[start, end]} is not two integers")
            if not (0 <= start < end <= n):
                raise DataError(f"instance {self.id}: evidence span [{start}, {end}) "
                                f"outside context bounds [0, {n})")
            if start < prev_end:
                raise DataError(f"instance {self.id}: evidence spans overlap or are unsorted")
            prev_end = end
        object.__setattr__(self, "evidence_spans", spans)

    @cached_property
    def tokens(self) -> TokenizedContext:
        """The tokenized context, computed on first read and kept.

        Kept tokens cost about 16 bytes per token (tracemalloc over 50
        generated 2K-token needles, ``source_bytes`` unread) and live as
        long as the instance.  They are not a field: equality, ``repr``,
        ``to_record`` and ``dataclasses.replace`` ignore them, so a replaced
        instance tokenizes afresh.
        """
        return tokenization.tokenize(self.context)

    def to_record(self) -> dict:
        record = {
            "id": self.id,
            "query": self.query,
            "context": self.context,
            "gold": self.gold,
        }
        if self.evidence_spans is not None:
            record["evidence_spans"] = [[s, e] for s, e in self.evidence_spans]
        record.update(self.extra)
        return record

    @classmethod
    def from_record(cls, record: dict) -> "Instance":
        return cls(
            id=record["id"],
            query=record["query"],
            context=record["context"],
            gold=record["gold"],
            evidence_spans=record.get("evidence_spans"),
            extra={k: v for k, v in record.items() if k not in _KNOWN_FIELDS},
        )


def load_jsonl(path: str | Path) -> list[Instance]:
    """Read one Instance per line; malformed lines fail with their number."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            lines = enumerate((line.strip() for line in fh), start=1)
            return [_parse_line(path, lineno, line) for lineno, line in lines if line]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc


def _parse_line(path: Path, lineno: int, line: str) -> Instance:
    """The Instance on line ``lineno`` of ``path``, or DataError naming it."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise DataError(f"{path}:{lineno}: expected a JSON object")
    for fname in REQUIRED_FIELDS:
        if fname not in record:
            raise DataError(f"{path}:{lineno}: missing field {fname!r}")
    try:
        return Instance.from_record(record)
    except DataError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from exc


def save_jsonl(dataset: list[Instance], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for inst in dataset:
            fh.write(json.dumps(inst.to_record(), ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# Synthetic needle benchmark
# ---------------------------------------------------------------------------

_ADJECTIVES = (
    "ancient mossy quiet crimson hollow gilded dusty narrow silver broken "
    "wandering pale misty amber rusty weathered sleepy distant crooked faded"
).split()
_NOUNS = (
    "lantern harbor oak meadow raven chapel anvil orchard tide boulder "
    "willow sparrow hearth canyon mill bridge cellar thicket belfry quarry"
).split()
_VERBS = (
    "glimmered drifted settled crumbled swayed echoed lingered gathered "
    "faded wandered rippled slumbered brightened softened stirred"
).split()
_PLACES = (
    "valley ridge shore village grove marsh cliff plaza garden crossing "
    "hollow summit lagoon terrace mooring"
).split()
_FILLERS = (
    "meanwhile elsewhere nearby eventually quietly slowly upstream downstream "
    "northward afterwards"
).split()

_CONSONANTS = "b c d f g l m n p r s t v z br cl dr gr pl st tr".split()
_VOWELS = "a e i o u ai ea io ou".split()

NEEDLE_TEMPLATE = "Dossier {clusters} holds access code {value}."
# "The", adjective, noun, verb, "near", "the", place, ".": one token each
DISTRACTOR_TOKENS = 8


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for one synthetic instance.

    ``target_tokens`` is the total context length: the generator adds
    distractor sentences while they fit, then single filler words up to the
    exact count.  :data:`NEEDLE_TEMPLATE` frames the evidence sentence; the
    cluster knobs control how many codeword groups it carries and how far
    apart they sit, which sets the evidence density.
    """

    target_tokens: int = 2000
    seed: int = 0
    n_clusters: int = 6
    cluster_size: int = 5
    filler_gap: int = 5

    def __post_init__(self):
        if self.target_tokens < 1:
            raise DataError("target_tokens must be >= 1")
        if self.n_clusters < 1 or self.cluster_size < 1:
            raise DataError("needle needs at least one codeword cluster")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, not {self.seed}")
        if self.filler_gap < 0:
            raise DataError(f"filler_gap must be >= 0, not {self.filler_gap}")


def _pseudo_word(rng: np.random.Generator) -> str:
    n = int(rng.integers(2, 4))
    parts = [
        _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
        for _ in range(n)
    ]
    return "".join(parts) + _CONSONANTS[rng.integers(len(_CONSONANTS))]


# one index per slot of a distractor sentence: adjective, noun, verb, place
_SENTENCE_SIZES = np.array([len(_ADJECTIVES), len(_NOUNS), len(_VERBS), len(_PLACES)])


def _distractor_sentences(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` templated distractor sentences, DISTRACTOR_TOKENS each."""
    return [
        f"The {_ADJECTIVES[a]} {_NOUNS[b]} {_VERBS[c]} near the {_PLACES[d]}."
        for a, b, c, d in rng.integers(_SENTENCE_SIZES, size=(count, 4)).tolist()
    ]


def gen_needle(spec: SynthSpec) -> Instance:
    """Generate one needle instance, deterministic in the seed.

    The gold answer (the numeric access code) appears exactly once in the
    context, inside the final evidence span; distractor sentences contain no
    digits, so no collision is possible.

    Draw order: the access code, the codeword clusters and the fillers
    between them (scalar draws, since a pseudo-word's length is itself
    drawn), then every distractor index in one array-valued
    ``rng.integers`` call, the needle's position, and every padding-word
    index in one more; each such call equals one scalar call per index.
    """
    rng = np.random.default_rng(spec.seed)
    value = str(rng.integers(10**7, 10**8))
    clusters = [
        [_pseudo_word(rng) for _ in range(spec.cluster_size)]
        for _ in range(spec.n_clusters)
    ]
    cluster_block_parts = []
    for ci, cluster in enumerate(clusters):
        cluster_block_parts.append(" ".join(cluster))
        if ci < len(clusters) - 1:
            fill = [
                _ADJECTIVES[rng.integers(len(_ADJECTIVES))] if j % 2 == 0
                else _NOUNS[rng.integers(len(_NOUNS))]
                for j in range(spec.filler_gap)
            ]
            cluster_block_parts.append("beneath the " + " ".join(fill))
    cluster_block = " ".join(cluster_block_parts)
    needle = NEEDLE_TEMPLATE.format(clusters=cluster_block, value=value)
    query = (
        "Report the access code for dossier "
        + " ".join(word for cluster in clusters for word in cluster)
        + "."
    )

    needle_tokens = len(tokenize(needle))
    if spec.target_tokens < needle_tokens:
        raise DataError(
            f"target_tokens={spec.target_tokens} below needle length {needle_tokens}"
        )
    n_fit = (spec.target_tokens - needle_tokens) // DISTRACTOR_TOKENS
    # one sentence more than fits is drawn, and dropped
    sentences = _distractor_sentences(rng, n_fit + 1)[:n_fit]
    position = int(rng.integers(0, n_fit + 1))
    sentences.insert(position, needle)
    # single-word padding lands the token count exactly on target
    n_pad = spec.target_tokens - needle_tokens - n_fit * DISTRACTOR_TOKENS
    sentences += [_FILLERS[i] for i in rng.integers(len(_FILLERS), size=n_pad).tolist()]
    context = " ".join(sentences)

    context_bytes = context.encode("utf-8")
    spans: list[tuple[int, int]] = []
    for cluster in clusters:
        phrase = " ".join(cluster).encode("utf-8")
        start = context_bytes.find(phrase)
        spans.append((start, start + len(phrase)))
    trailer = f"access code {value}".encode("utf-8")
    start = context_bytes.find(trailer)
    spans.append((start, start + len(trailer)))
    spans.sort()

    if context.count(value) != 1:
        raise DataError("gold answer collided with distractor text")

    return Instance(
        id=f"needle-{spec.seed:08d}",
        query=query,
        context=context,
        gold=value,
        evidence_spans=spans,
    )


def gen_dataset(
    n: int, target_tokens: int = 2000, seed: int = 0, **spec_kwargs
) -> list[Instance]:
    """n needle instances with consecutive per-instance seeds."""
    return [
        gen_needle(SynthSpec(target_tokens=target_tokens, seed=seed + i, **spec_kwargs))
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Co-visitation graph and candidate generation
# ---------------------------------------------------------------------------


def build_covis(histories: list[list], window: int) -> dict:
    """Item-item co-occurrence counts within a sliding window: accumulate
    co[i_t][i_j] += 1 for every j in [t-w, t+w], j != t, over all users.

    Returns the adjacency dict: graph[a] lists (neighbor, count) sorted by
    descending count, ties by ascending neighbor id."""
    if window < 1:
        raise DataError("window must be >= 1")
    counts: dict = {}
    for history in histories:
        n = len(history)
        for t in range(n):
            lo = max(0, t - window)
            hi = min(n - 1, t + window)
            for j in range(lo, hi + 1):
                if j == t:
                    continue
                a, b = history[t], history[j]
                counts.setdefault(a, {})
                counts[a][b] = counts[a].get(b, 0) + 1
    return {
        a: sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        for a, pairs in counts.items()
    }


def popularity_from_histories(histories: list[list]) -> list:
    """Items ordered by descending interaction count, ties by ascending id."""
    counts: dict = {}
    for history in histories:
        for item in history:
            counts[item] = counts.get(item, 0) + 1
    return [item for item, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]


def candidates(
    history: list,
    graph: dict,
    alpha: float = 0.85,
    M: int = 10,
    K: int = 40,
    popularity: list | None = None,
) -> list:
    """Top-K candidates by recency-decayed co-visitation score.

    s(c) = sum over the last M history items r (rank 0 = most recent) of
    alpha^rank(r) * co[r][c].  History items are never candidates.  When
    fewer than K items score above zero, the remainder is backfilled from
    ``popularity`` order, still excluding history and already-selected items.
    """
    if not 0.0 < alpha < 1.0:
        raise DataError("alpha must lie in (0, 1)")
    recent = list(reversed(history[-M:]))
    seen = set(history)
    scores: dict = {}
    for rank, r in enumerate(recent):
        decay = alpha**rank
        for neighbor, count in graph.get(r, ()):
            if neighbor in seen:
                continue
            scores[neighbor] = scores.get(neighbor, 0.0) + decay * count
    ranked = [c for c, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]
    out = ranked[:K]
    if len(out) < K and popularity:
        chosen = set(out)
        for item in popularity:
            if len(out) >= K:
                break
            if item in seen or item in chosen:
                continue
            out.append(item)
            chosen.add(item)
    return out


# ---------------------------------------------------------------------------
# Evidence overlap
# ---------------------------------------------------------------------------


def evidence_overlap(
    probs: np.ndarray,
    threshold: float,
    gold_spans: list[tuple[int, int]],
    ctx: TokenizedContext,
) -> tuple[float, float, float]:
    """Token-level precision/recall/F1 of thresholded probabilities
    against gold evidence spans.

    ``probs`` holds one probability per token of ``ctx``; predicted
    evidence tokens are those with p_i >= threshold.  Both sides
    empty scores (1, 1, 1); exactly one side empty scores (0, 0, 0).
    """
    predicted = probs >= threshold
    gold = tokens_touching(ctx, gold_spans)
    n_predicted, n_gold = int(predicted.sum()), int(gold.sum())
    if not n_predicted and not n_gold:
        return 1.0, 1.0, 1.0
    if not n_predicted or not n_gold:
        return 0.0, 0.0, 0.0
    tp = int(np.count_nonzero(predicted & gold))
    precision = tp / n_predicted
    recall = tp / n_gold
    if tp == 0:
        return precision, recall, 0.0
    f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1
