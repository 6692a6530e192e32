"""Deterministic tokenization with exact byte offsets, stored as arrays.

Raw text is split into tokens that each carry their byte range into the
UTF-8 encoding of the source.  Those offsets are the substrate everything
else builds on: masks address tokens, spans address byte ranges, and marker
injection splices at byte boundaries.  All offsets in this package are byte
offsets (unambiguous across implementations); token boundaries always fall
on code-point boundaries, so slicing the encoded source at token offsets can
never cut a multi-byte character in half.

A :class:`TokenizedContext` keeps the tokens as parallel arrays, not as one
object per token: ``texts`` (a list of strings) and the int64 arrays
``starts``, ``ends`` and ``omega``.  Every layer reads those arrays;
:attr:`TokenizedContext.tokens` builds :class:`Token` objects on demand for
callers that want one record per token.  The encoded source,
:attr:`TokenizedContext.source_bytes`, is computed on first read and kept,
so splicing markers or pruning encodes each context once.

The default rule splits on whitespace and keeps each punctuation character
as its own token: a token is either a maximal run of word characters
(Unicode letters, digits, underscore) or a single non-word, non-space
character.  Any tokenizer producing the same (text, byte range) contract can
be substituted; this one is the reference used by the test suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import RangeBoundsError

# capturing, so that re.split returns alternating gap / token pieces
_TOKEN_SPLIT_RE = re.compile(r"(\w+|[^\w\s])", re.UNICODE)


@dataclass(frozen=True)
class Token:
    """One token plus its byte range [char_start, char_end) in the source."""

    text: str
    char_start: int
    char_end: int


@dataclass(eq=False)
class TokenizedContext:
    """Source text, its tokens as parallel arrays, and the index set omega.

    ``texts[i]`` is token i's text and ``[starts[i], ends[i])`` its byte
    range in the UTF-8 source.  omega (int64) holds the token indices
    eligible for highlighting.  It defaults to every token (None at
    construction); callers exclude query/instruction regions via
    :func:`restrict_omega`.  An explicitly empty omega stays empty.
    """

    source: str
    texts: list[str]
    starts: np.ndarray
    ends: np.ndarray
    omega: np.ndarray | None = None

    def __post_init__(self):
        self.starts = np.asarray(self.starts, dtype=np.int64)
        self.ends = np.asarray(self.ends, dtype=np.int64)
        if self.omega is None:
            self.omega = np.arange(len(self.texts), dtype=np.int64)
        else:
            self.omega = np.asarray(self.omega, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.texts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TokenizedContext):
            return NotImplemented
        return (
            self.source == other.source
            and self.texts == other.texts
            and np.array_equal(self.starts, other.starts)
            and np.array_equal(self.ends, other.ends)
            and np.array_equal(self.omega, other.omega)
        )

    @property
    def tokens(self) -> list[Token]:
        """One :class:`Token` per token, built on each access."""
        return [
            Token(text, start, end)
            for text, start, end in zip(self.texts, self.starts.tolist(), self.ends.tolist())
        ]

    @cached_property
    def source_bytes(self) -> bytes:
        """The UTF-8 encoding of ``source``, encoded on first read and kept."""
        return self.source.encode("utf-8")


def _utf8_offsets(text: str) -> np.ndarray:
    """Byte offset of every character position 0..len(text): the cumulative
    UTF-8 width of the code points."""
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    offsets = np.zeros(cp.size + 1, dtype=np.int64)
    np.cumsum(1 + (cp >= 0x80) + (cp >= 0x800) + (cp >= 0x10000), out=offsets[1:])
    return offsets


def tokenize(text: str) -> TokenizedContext:
    """Split ``text`` into offset-annotated tokens.

    Pure and deterministic; empty input yields zero tokens.  Offsets are
    byte offsets even though the regex runs over the decoded string, so the
    invariant ``source_bytes[starts[i]:ends[i]].decode() == texts[i]`` holds
    for arbitrary Unicode input.
    """
    pieces = _TOKEN_SPLIT_RE.split(text)  # gap, token, gap, ..., token, gap
    bounds = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces)),
              out=bounds[1:])
    if not text.isascii():
        bounds = _utf8_offsets(text)[bounds]
    return TokenizedContext(
        source=text, texts=pieces[1::2], starts=bounds[1:-1:2], ends=bounds[2::2]
    )


def count_tokens(text: str) -> int:
    """``len(tokenize(text))``, found with the same rule but without
    computing offsets or building a context."""
    return len(_TOKEN_SPLIT_RE.findall(text))


def tokens_touching(ctx: TokenizedContext, byte_ranges) -> np.ndarray:
    """Boolean array over all tokens: true where the token's byte range
    intersects any of the half-open ``byte_ranges``."""
    hit = np.zeros(len(ctx), dtype=bool)
    for start, end in byte_ranges:
        hit |= (ctx.starts < end) & (ctx.ends > start)
    return hit


def restrict_omega(
    ctx: TokenizedContext, excluded_char_ranges: list[tuple[int, int]]
) -> TokenizedContext:
    """Return a copy of ``ctx`` whose omega excludes tokens touching any
    excluded byte range.

    A token survives only if it lies fully outside every excluded range.
    Ranges must fall within the source bounds.
    """
    n_bytes = len(ctx.source_bytes)
    for start, end in excluded_char_ranges:
        if start < 0 or end > n_bytes or start > end:
            raise RangeBoundsError(
                f"excluded range [{start}, {end}) outside source bounds [0, {n_bytes})"
            )
    omega = np.asarray(ctx.omega, dtype=np.int64)
    return replace(ctx, omega=omega[~tokens_touching(ctx, excluded_char_ranges)[omega]])
