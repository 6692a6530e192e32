"""Checks made apart from hilite: tokenizer, marker removal and coverage.

Nothing here imports hilite.  The benchmark judges the program's outputs with
these functions, and the stub solver computes its answers with them, so a
fault in hilite's tokenizer, markup or oracle cannot hide itself by agreeing
with its own copy.

The token rule is the documented one: a token is a maximal run of word
characters or one non-word, non-space character (``\\w+|[^\\w\\s]``), and
offsets are byte offsets into the UTF-8 encoding.
"""

from __future__ import annotations

import math
import re

TOKEN_RULE = re.compile(r"\w+|[^\w\s]")
OPEN = b"<start_important>"
CLOSE = b"<end_important>"
_MARKER_SPLIT = re.compile(b"(" + re.escape(OPEN) + b"|" + re.escape(CLOSE) + b")")
COVERAGE_THRESHOLD = 0.8
DISTRACTOR = "unknown"


def budget(gamma: float, text: str) -> int:
    """floor(gamma * |omega|), with omega every token of ``text``."""
    return math.floor(gamma * len(TOKEN_RULE.findall(text)))


class MarkerError(ValueError):
    """Markers are unbalanced, nested or interleaved."""


def remove_markers(data: bytes) -> tuple[bytes, list[tuple[int, int]]]:
    """Drop every default marker pair from ``data``.

    Returns the remaining bytes and the enclosed regions in their
    coordinates.  Raises MarkerError unless markers alternate open, close.
    """
    pieces = _MARKER_SPLIT.split(data)
    kept: list[bytes] = []
    regions: list[tuple[int, int]] = []
    length = 0
    open_at = None
    for i, piece in enumerate(pieces):
        if i % 2 == 0:
            kept.append(piece)
            length += len(piece)
        elif piece == OPEN:
            if open_at is not None:
                raise MarkerError(f"nested open marker at piece {i}")
            open_at = length
        else:
            if open_at is None:
                raise MarkerError(f"close marker without open at piece {i}")
            regions.append((open_at, length))
            open_at = None
    if open_at is not None:
        raise MarkerError("open marker never closed")
    return b"".join(kept), regions


def covered_fraction(regions, evidence_spans) -> float:
    total = sum(e - s for s, e in evidence_spans)
    if total == 0:
        return 0.0
    covered = 0
    for es, ee in evidence_spans:
        for rs, re_ in regions:
            covered += max(0, min(ee, re_) - max(es, rs))
    return covered / total


def coverage_answer(emphasized: str, context: str, evidence_spans, gold) -> str:
    """The answer a coverage oracle gives: ``gold`` when at least 0.8 of the
    evidence bytes lie inside marker pairs of a text that strips back to
    ``context``, otherwise the distractor.  Unbalanced markers raise."""
    stripped, regions = remove_markers(emphasized.encode("utf-8"))
    if stripped != context.encode("utf-8"):
        return DISTRACTOR
    if covered_fraction(regions, evidence_spans) >= COVERAGE_THRESHOLD:
        return str(gold)
    return DISTRACTOR


def expected_reward(emphasized: str, context: str, evidence_spans, gold) -> float:
    """Exact-match reward of the coverage oracle's answer."""
    answer = coverage_answer(emphasized, context, evidence_spans, gold)
    return 1.0 if answer == str(gold) else 0.0


# ---------------------------------------------------------------------------
# Per-output checks.  Each returns None when the output passes, otherwise a
# one-line reason.
# ---------------------------------------------------------------------------


def check_round_trip(emphasized: str, source: str) -> str | None:
    try:
        stripped, _ = remove_markers(emphasized.encode("utf-8"))
    except MarkerError as exc:
        return f"markers unbalanced: {exc}"
    if stripped != source.encode("utf-8"):
        return "stripped output differs from the source"
    return None


def check_budget(selected: int, k: int) -> str | None:
    """``k`` comes from :func:`budget` on the source."""
    if selected > k:
        return f"mask selects {selected} tokens, budget is {k}"
    return None


def check_reward(reward: float, emphasized: str, context: str,
                 evidence_spans, gold) -> str | None:
    try:
        want = expected_reward(emphasized, context, evidence_spans, gold)
    except MarkerError as exc:
        return f"markers unbalanced: {exc}"
    if reward != want:
        return f"reward {reward} but coverage decision gives {want}"
    return None
