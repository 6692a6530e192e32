"""Non-destructive emphasis: span coalescence, marker injection and removal.

Masks are uint8 arrays over token indices.  Selected tokens are coalesced
into spans (bridging gaps of up to ``delta`` unselected tokens); a span list
is an (m, 2) int64 array of inclusive token ranges ``[first, last]``, sorted
and disjoint.  :func:`byte_ranges` turns it into byte offsets, marker strings
are spliced in at those offsets, and :func:`strip` removes them again,
reproducing the source byte-for-byte.  Nothing here ever rewrites, reorders,
or deletes source bytes; the only destructive operation, :func:`prune`,
exists as an ablation and says so.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError, StructureError
from .tokenization import TokenizedContext

Mask = np.ndarray  # uint8 vector, one entry per token
Spans = np.ndarray  # (m, 2) int64, inclusive token ranges [first, last]


@dataclass(frozen=True)
class MarkerFormat:
    """An open/close marker pair used to delimit emphasized spans."""

    open: str
    close: str
    name: str = ""

    def __post_init__(self):
        if not self.open or not self.close:
            raise StructureError("marker strings must be non-empty")
        # Distinct markers must not contain each other, otherwise removal is
        # ambiguous.  Identical open/close (e.g. markdown **) is allowed.
        if self.open != self.close and (
            self.open in self.close or self.close in self.open
        ):
            raise StructureError(
                f"marker strings {self.open!r}/{self.close!r} overlap"
            )


BUILTIN_FORMATS: dict[str, MarkerFormat] = {
    "default": MarkerFormat("<start_important>", "<end_important>", "default"),
    "markdown-bold": MarkerFormat("**", "**", "markdown-bold"),
    "double-bracket": MarkerFormat("[[", "]]", "double-bracket"),
    "brace": MarkerFormat("{", "}", "brace"),
    "chevron": MarkerFormat(">>", "<<", "chevron"),
    "html-b": MarkerFormat("<b>", "</b>", "html-b"),
    "important-tag": MarkerFormat("<important>", "</important>", "important-tag"),
}

DEFAULT_FORMAT = BUILTIN_FORMATS["default"]


def get_format(name: str) -> MarkerFormat:
    """Look up a builtin marker format by name."""
    try:
        return BUILTIN_FORMATS[name]
    except KeyError:
        raise StructureError(f"unknown marker format {name!r}") from None


def coalesce(mask: Mask, ctx: TokenizedContext, delta: int) -> Spans:
    """Merge selected tokens into spans, bridging gaps of <= delta tokens.

    Returns an (m, 2) int64 array of inclusive token ranges, shape (0, 2)
    when nothing is selected.  Two consecutive spans are always separated
    by more than ``delta`` unselected tokens, every selected token lies in
    exactly one span, and the rows are sorted.  Re-applying with the same
    delta to the spans' own indicator mask is a no-op.
    """
    if len(mask) != len(ctx):
        raise StructureError(
            f"mask length {len(mask)} != token count {len(ctx)}"
        )
    if delta < 0:
        raise StructureError("delta must be >= 0")
    selected = np.flatnonzero(mask)
    if selected.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    # a run breaks where more than delta unselected tokens separate two picks
    breaks = np.flatnonzero(np.diff(selected) > delta + 1)
    spans = np.empty((breaks.size + 1, 2), dtype=np.int64)
    spans[:, 0] = selected[np.concatenate(([0], breaks + 1))]
    spans[:, 1] = selected[np.concatenate((breaks, [selected.size - 1]))]
    return spans


def spans_to_mask(spans: Spans, n_tokens: int) -> Mask:
    """Indicator mask of every token covered by the spans (bridged tokens
    included)."""
    mask = np.zeros(n_tokens, dtype=np.uint8)
    for first, last in spans:
        mask[first : last + 1] = 1
    return mask


def byte_ranges(ctx: TokenizedContext, spans: Spans) -> list[tuple[int, int]]:
    """Half-open byte range ``(starts[first], ends[last])`` of every span.

    ``spans`` (an array from :func:`coalesce`, or ``[]``) must hold sorted,
    disjoint token ranges inside the context: 0 <= first_i <= last_i <
    first_{i+1} and every last < len(ctx); anything else raises
    StructureError.
    """
    spans = np.asarray(spans, dtype=np.int64)
    if spans.size == 0:
        return []
    if spans.ndim != 2 or spans.shape[1] != 2:
        raise StructureError(f"spans must have shape (m, 2), got {spans.shape}")
    first, last = spans.T.tolist()
    if not (
        first[0] >= 0
        and last[-1] < len(ctx)
        and all(map(operator.le, first, last))
        and all(map(operator.lt, last, first[1:]))
    ):
        raise StructureError(
            f"spans must be sorted, disjoint token ranges within [0, {len(ctx)})"
        )
    return list(zip(ctx.starts[spans[:, 0]].tolist(), ctx.ends[spans[:, 1]].tolist()))


def inject(ctx: TokenizedContext, spans: Spans, fmt: MarkerFormat) -> str:
    """Splice ``fmt.open`` before each span and ``fmt.close`` after it.

    All original bytes are preserved in order; markers sit outside the token
    text, so surrounding whitespace stays outside the tags.
    """
    src = ctx.source_bytes
    open_b = fmt.open.encode("utf-8")
    close_b = fmt.close.encode("utf-8")
    pieces: list[bytes] = []
    cursor = 0
    for start, end in byte_ranges(ctx, spans):
        pieces += (src[cursor:start], open_b, src[start:end], close_b)
        cursor = end
    pieces.append(src[cursor:])
    return b"".join(pieces).decode("utf-8")


def scan_markers(data: bytes, fmt: MarkerFormat) -> tuple[bytes, list[tuple[int, int]]]:
    """Remove marker pairs from ``data`` and report the byte ranges (in the
    stripped coordinate system) that were enclosed.

    Raises IntegrityError on unbalanced, nested, or interleaved markers.
    Shared by :func:`strip` and by the oracle solver, which needs the
    enclosed regions to measure evidence coverage.
    """
    markers = (fmt.open.encode("utf-8"), fmt.close.encode("utf-8"))
    out: list[bytes] = []
    regions: list[tuple[int, int]] = []
    cursor = 0  # first byte of data not yet consumed
    removed = 0  # marker bytes removed before cursor
    region_start = 0
    inside = False
    while True:
        expected, other = markers[inside], markers[not inside]
        pos = data.find(expected, cursor)
        if other != expected:
            rival = data.find(other, cursor)
            if rival >= 0 and (pos < 0 or rival < pos):
                raise IntegrityError("unbalanced or interleaved markers")
        if pos < 0:
            break
        out.append(data[cursor:pos])
        if inside:
            regions.append((region_start, pos - removed))
        else:
            region_start = pos - removed
        removed += len(expected)
        cursor = pos + len(expected)
        inside = not inside
    if inside:
        raise IntegrityError("unbalanced markers: a span is never closed")
    out.append(data[cursor:])
    return b"".join(out), regions


def strip(emphasized: str, fmt: MarkerFormat) -> str:
    """Remove every marker pair, recovering the exact original text."""
    stripped, _ = scan_markers(emphasized.encode("utf-8"), fmt)
    return stripped.decode("utf-8")


def prune(ctx: TokenizedContext, spans: Spans, joiner: str) -> str:
    """Keep only the span texts, joined by ``joiner``.  Everything outside
    the spans is discarded (the deletion-based ablation)."""
    src = ctx.source_bytes
    return joiner.join(
        src[start:end].decode("utf-8") for start, end in byte_ranges(ctx, spans)
    )

