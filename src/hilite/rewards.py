"""Task utility metrics and weighted composite rewards.

String metrics (exact match, token F1) run over a conventional QA
normalization: lowercase, drop punctuation, drop English articles, collapse
whitespace.  Ranking metrics (HR@K, NDCG@K) assume a single relevant item.
Classification metrics (accuracy, macro F1) operate over a fixed label set.

All metrics return values in [0, 1].  Degenerate empty inputs evaluate to 0
with a logged warning instead of raising, so reward evaluation stays total
while training against solvers that sometimes emit garbage.
"""

from __future__ import annotations

import logging
import math
import re
import string
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigError, StructureError

log = logging.getLogger(__name__)

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(s: str) -> str:
    """Lowercase, remove punctuation, drop articles, collapse whitespace."""
    s = s.lower()
    s = s.translate(_PUNCT_TABLE)
    s = _ARTICLE_RE.sub(" ", s)
    return " ".join(s.split())


def em(pred: str, gold: str) -> float:
    """1.0 iff the normalized strings are equal."""
    return 1.0 if normalize_answer(pred) == normalize_answer(gold) else 0.0


def token_f1(pred: str, gold: str) -> float:
    """Harmonic mean of multiset precision/recall over normalized tokens."""
    pred_tokens = normalize_answer(pred).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = Counter(pred_tokens) & Counter(gold_tokens)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def _check_ranking(ranking) -> list:
    items = list(ranking)
    if len(set(items)) != len(items):
        raise StructureError("ranking contains duplicate ids")
    return items


def hr_at_k(ranking, gold, k: int) -> float:
    """1.0 iff the gold item appears within the top k."""
    return 1.0 if gold in _check_ranking(ranking)[:k] else 0.0


def ndcg_at_k(ranking, gold, k: int) -> float:
    """Single-relevant-item NDCG: 1/log2(rank + 1) at 1-based rank <= k."""
    items = _check_ranking(ranking)[:k]
    for pos, item in enumerate(items, start=1):
        if item == gold:
            return 1.0 / math.log2(pos + 1)
    return 0.0


def accuracy(preds: list, golds: list) -> float:
    """Fraction of exact label matches (case-insensitive)."""
    if not preds or not golds or len(preds) != len(golds):
        log.warning("accuracy over empty/mismatched inputs evaluates to 0")
        return 0.0
    hits = sum(
        1 for p, g in zip(preds, golds) if str(p).strip().lower() == str(g).strip().lower()
    )
    return hits / len(golds)


def macro_f1(preds: list, golds: list, labels: list) -> float:
    """Unweighted mean of per-class F1 over the fixed label set.

    A prediction outside the label set counts as wrong and is a false
    positive for no class; classes absent from both sides contribute 0.
    """
    if not preds or not golds or len(preds) != len(golds):
        log.warning("macro_f1 over empty/mismatched inputs evaluates to 0")
        return 0.0
    norm = lambda v: str(v).strip().lower()
    preds_n = [norm(p) for p in preds]
    golds_n = [norm(g) for g in golds]
    scores = []
    for label in (norm(l) for l in labels):
        tp = sum(1 for p, g in zip(preds_n, golds_n) if p == label and g == label)
        fp = sum(1 for p, g in zip(preds_n, golds_n) if p == label and g != label)
        fn = sum(1 for p, g in zip(preds_n, golds_n) if p != label and g == label)
        if tp == 0:
            scores.append(0.0)
        else:
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            scores.append(2 * precision * recall / (precision + recall))
    return sum(scores) / len(scores) if scores else 0.0


# name -> metric(output, gold, k); the names a RewardSpec may use
METRICS = {
    "em": lambda output, gold, k: em(str(output), str(gold)),
    "f1": lambda output, gold, k: token_f1(str(output), str(gold)),
    "hr": lambda output, gold, k: hr_at_k(output, gold, k),
    "ndcg": lambda output, gold, k: ndcg_at_k(output, gold, k),
    "accuracy": lambda output, gold, k: accuracy([output], [gold]),
}


@dataclass(frozen=True)
class RewardSpec:
    """Weighted combination of per-instance metrics, e.g.
    ``RewardSpec([("hr", 0.7), ("ndcg", 0.3)], k=10)``."""

    terms: tuple[tuple[str, float], ...]
    k: int = 10

    def __post_init__(self):
        if not self.terms:
            raise ConfigError("reward spec needs at least one term")
        for name, weight in self.terms:
            if name not in METRICS:
                raise ConfigError(f"unknown reward metric {name!r}")
            if weight < 0:
                raise ConfigError(f"negative weight for reward term {name!r}")

    @classmethod
    def parse(cls, text: str, k: int = 10) -> "RewardSpec":
        """Parse the flat config form ``"f1:0.5,em:0.5"``."""
        terms = []
        for chunk in text.split(","):
            name, _, weight = chunk.strip().partition(":")
            terms.append((name.strip(), float(weight) if weight else 1.0))
        return cls(terms=tuple(terms), k=k)


def composite(output, gold, spec: RewardSpec) -> float:
    """Weighted sum of component metrics for one instance.

    String metrics expect string output/gold; ranking metrics expect the
    output to be an ordered id sequence and gold a single id.  A None
    output (unparseable solver response) scores 0 on every term.
    """
    if output is None:
        return 0.0
    return sum(weight * METRICS[name](output, gold, spec.k) for name, weight in spec.terms)
