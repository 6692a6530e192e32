"""Non-destructive emphasis: span coalescence, marker injection and removal.

Masks are uint8 arrays over token indices.  Selected tokens are coalesced
into spans (bridging gaps of up to ``delta`` unselected tokens), marker
strings are spliced in at the spans' byte boundaries, and :func:`strip`
removes them again, reproducing the source byte-for-byte.  Nothing here ever
rewrites, reorders, or deletes source bytes; the only destructive operation,
:func:`prune`, exists as an ablation and says so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, IntegrityError, StructureError
from .tokenization import TokenizedContext

Mask = np.ndarray  # uint8 vector, one entry per token


@dataclass(frozen=True)
class Span:
    """Inclusive token range [first_token, last_token] plus its byte range."""

    first_token: int
    last_token: int
    char_start: int
    char_end: int


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


def get_format(name: str, extra: dict[str, MarkerFormat] | None = None) -> MarkerFormat:
    """Look up a marker format by name, optionally merged with user formats."""
    registry = dict(BUILTIN_FORMATS)
    if extra:
        registry.update(extra)
    try:
        return registry[name]
    except KeyError:
        raise StructureError(f"unknown marker format {name!r}") from None


def load_formats(config: dict[str, dict[str, str]]) -> dict[str, MarkerFormat]:
    """Build a format registry from configuration entries
    ``{name: {"open": ..., "close": ...}}``."""
    out = {}
    for name, entry in config.items():
        out[name] = MarkerFormat(entry["open"], entry["close"], name)
    return out


def new_mask(ctx: TokenizedContext) -> Mask:
    return np.zeros(len(ctx), dtype=np.uint8)


def coalesce(mask: Mask, ctx: TokenizedContext, delta: int) -> list[Span]:
    """Merge selected tokens into spans, bridging gaps of <= delta tokens.

    Two consecutive output spans are always separated by more than ``delta``
    unselected tokens, every selected token lies in exactly one span, and
    the result is sorted.  Re-applying with the same delta to a span list's
    own indicator mask is a no-op.
    """
    if len(mask) != len(ctx):
        raise StructureError(
            f"mask length {len(mask)} != token count {len(ctx)}"
        )
    if delta < 0:
        raise StructureError("delta must be >= 0")
    selected = np.flatnonzero(mask)
    if selected.size == 0:
        return []
    # a run breaks where more than delta unselected tokens separate two picks
    breaks = np.flatnonzero(np.diff(selected) > delta + 1)
    first = selected[np.concatenate(([0], breaks + 1))]
    last = selected[np.concatenate((breaks, [selected.size - 1]))]
    return [
        Span(*span)
        for span in zip(
            first.tolist(), last.tolist(), ctx.starts[first].tolist(), ctx.ends[last].tolist()
        )
    ]


def spans_to_mask(spans: list[Span], n_tokens: int) -> Mask:
    """Indicator mask of every token covered by the spans (bridged tokens
    included)."""
    mask = np.zeros(n_tokens, dtype=np.uint8)
    for s in spans:
        mask[s.first_token : s.last_token + 1] = 1
    return mask


def _check_spans(spans: list[Span], n_bytes: int) -> None:
    prev_end = -1
    for s in spans:
        if s.char_start < 0 or s.char_end > n_bytes or s.char_start >= s.char_end:
            raise StructureError(f"span byte range [{s.char_start}, {s.char_end}) invalid")
        if s.char_start < prev_end:
            raise StructureError("spans overlap or are unsorted")
        prev_end = s.char_end


def inject(ctx: TokenizedContext, spans: list[Span], fmt: MarkerFormat) -> str:
    """Splice ``fmt.open`` before each span and ``fmt.close`` after it.

    All original bytes are preserved in order; markers sit outside the token
    text, so surrounding whitespace stays outside the tags.
    """
    src = ctx.source_bytes
    _check_spans(spans, len(src))
    open_b = fmt.open.encode("utf-8")
    close_b = fmt.close.encode("utf-8")
    pieces: list[bytes] = []
    cursor = 0
    for s in spans:
        pieces.append(src[cursor : s.char_start])
        pieces.append(open_b)
        pieces.append(src[s.char_start : s.char_end])
        pieces.append(close_b)
        cursor = s.char_end
    pieces.append(src[cursor:])
    return b"".join(pieces).decode("utf-8")


def scan_markers(data: bytes, fmt: MarkerFormat) -> tuple[bytes, list[tuple[int, int]]]:
    """Remove marker pairs from ``data`` and report the byte ranges (in the
    stripped coordinate system) that were enclosed.

    Raises IntegrityError on unbalanced, nested, or interleaved markers.
    Shared by :func:`strip` and by the oracle solver, which needs the
    enclosed regions to measure evidence coverage.
    """
    open_b = fmt.open.encode("utf-8")
    close_b = fmt.close.encode("utf-8")
    events: list[tuple[int, int, bytes]] = []  # (pos, kind, marker)
    if open_b == close_b:
        pos = 0
        k = 0
        while True:
            i = data.find(open_b, pos)
            if i < 0:
                break
            events.append((i, k % 2, open_b))
            k += 1
            pos = i + len(open_b)
        if k % 2 != 0:
            raise IntegrityError("odd number of identical markers")
    else:
        pos = 0
        while True:
            io = data.find(open_b, pos)
            ic = data.find(close_b, pos)
            if io < 0 and ic < 0:
                break
            if ic < 0 or (0 <= io < ic):
                events.append((io, 0, open_b))
                pos = io + len(open_b)
            else:
                events.append((ic, 1, close_b))
                pos = ic + len(close_b)
        kinds = [k for _, k, _ in events]
        if len(kinds) % 2 != 0 or kinds != [i % 2 for i in range(len(kinds))]:
            raise IntegrityError("unbalanced or interleaved markers")

    out: list[bytes] = []
    regions: list[tuple[int, int]] = []
    cursor = 0
    removed = 0
    region_start = 0
    for pos, kind, marker in events:
        out.append(data[cursor:pos])
        if kind == 0:
            region_start = pos - removed
        else:
            regions.append((region_start, pos - removed))
        removed += len(marker)
        cursor = pos + len(marker)
    out.append(data[cursor:])
    return b"".join(out), regions


def strip(emphasized: str, fmt: MarkerFormat) -> str:
    """Remove every marker pair, recovering the exact original text."""
    stripped, _ = scan_markers(emphasized.encode("utf-8"), fmt)
    return stripped.decode("utf-8")


def prune(ctx: TokenizedContext, spans: list[Span], joiner: str) -> str:
    """Keep only the span texts, joined by ``joiner``.  Everything outside
    the spans is discarded (the deletion-based ablation)."""
    src = ctx.source_bytes
    _check_spans(spans, len(src))
    return joiner.join(
        src[s.char_start : s.char_end].decode("utf-8") for s in spans
    )


def random_mask(ctx: TokenizedContext, k: int, rng: np.random.Generator | int) -> Mask:
    """Select exactly k tokens uniformly without replacement from omega."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    omega = np.asarray(ctx.omega, dtype=np.int64)
    if k > omega.size:
        raise BudgetError(f"k={k} exceeds |omega|={omega.size}")
    mask = new_mask(ctx)
    if k > 0:
        chosen = rng.choice(omega, size=k, replace=False)
        mask[chosen] = 1
    return mask
