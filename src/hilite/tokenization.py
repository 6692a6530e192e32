"""Deterministic tokenization with exact byte offsets, stored as arrays.

Raw text is split into tokens that each carry their byte range into the
UTF-8 encoding of the source.  Those offsets are the substrate everything
else builds on: masks address tokens, spans address byte ranges, and marker
injection splices at byte boundaries.  All offsets in this package are byte
offsets (unambiguous across implementations); token boundaries always fall
on code-point boundaries, so slicing the encoded source at token offsets can
never cut a multi-byte character in half.

A :class:`TokenizedContext` keeps the tokens as parallel arrays, not as one
object per token.  Token texts are one vocabulary per context: ``vocab``
holds each distinct text once, in first-seen order, and the int32 array
``text_ids`` names each token's entry in it.  Byte ranges are the int64
arrays ``starts`` and ``ends``.  Every layer reads those arrays;
:attr:`TokenizedContext.tokens` builds :class:`Token` objects on demand
for callers that want one record per token.  The encoded source,
:attr:`TokenizedContext.source_bytes`, is computed on first read and kept,
so splicing markers or pruning encodes each context once.  Highlighting
may select any of the context's tokens: the paper's index set omega, with
no token excluded.

The default rule splits on whitespace and keeps each punctuation character
as its own token: a token is either a maximal run of word characters
(Unicode letters, digits, underscore) or a single non-word, non-space
character.  Word and space mean what ``re``'s ``\\w`` and ``\\s`` mean for
``str`` patterns.  :func:`tokenize` applies the rule to arrays: it
classifies every code point once, looking ASCII code points up in a
128-entry table built at import from those two regex classes and the rest
with ``np.char.isalnum``/``np.char.isspace`` (the same Unicode predicates
``re`` uses), then finds token starts and ends with shifted boolean arrays.
The rest runs no Python code per token.  Token texts come from one
``str.split()`` of the text with a space inserted before every token start:
``str.split()`` breaks on ``Py_UNICODE_ISSPACE``, the very class ``\\s``
matches, and no token holds such a character.  One ``dict.setdefault`` pass
gives each token its text's first position, which ranks into the vocabulary
ids.  Byte offsets are the positions of the code points' UTF-8 lead bytes.
Any tokenizer producing the same (text, byte range) contract can be
substituted; this one is the reference used by the test suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError

def _ascii_table(pattern: str) -> np.ndarray:
    """Whether each ASCII code point matches the one-character ``pattern``."""
    rx = re.compile(pattern)
    return np.array([rx.match(chr(c)) is not None for c in range(0x80)])


_ASCII_WORD = _ascii_table(r"\w")
_ASCII_SPACE = _ascii_table(r"\s")


@dataclass(frozen=True)
class Token:
    """One token plus its byte range [char_start, char_end) in the source."""

    text: str
    char_start: int
    char_end: int


@dataclass(eq=False)
class TokenizedContext:
    """Source text and its tokens as parallel arrays.

    ``vocab`` is the tuple of distinct token texts in first-seen order and
    ``text_ids`` (int32) holds one entry per token: ``vocab[text_ids[i]]``
    is token i's text and ``[starts[i], ends[i])`` its byte range in the
    UTF-8 source.
    """

    source: str
    vocab: tuple[str, ...]
    text_ids: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    def __post_init__(self):
        self.text_ids = np.asarray(self.text_ids, dtype=np.int32)
        self.starts = np.asarray(self.starts, dtype=np.int64)
        self.ends = np.asarray(self.ends, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.text_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TokenizedContext):
            return NotImplemented
        return (
            self.source == other.source
            and self.vocab == other.vocab
            and np.array_equal(self.text_ids, other.text_ids)
            and np.array_equal(self.starts, other.starts)
            and np.array_equal(self.ends, other.ends)
        )

    # kept while perfbench/run.py passes it to selection.topk
    @property
    def omega(self) -> np.ndarray:
        """Every token's index (int64), built on each read."""
        return np.arange(len(self), dtype=np.int64)

    # kept while perfbench/run.py and perfbench/test_checks.py read Token records
    @property
    def tokens(self) -> list[Token]:
        """One :class:`Token` per token, built on each access."""
        return [
            Token(self.vocab[i], start, end)
            for i, start, end in zip(
                self.text_ids.tolist(), self.starts.tolist(), self.ends.tolist()
            )
        ]

    @cached_property
    def source_bytes(self) -> bytes:
        """The UTF-8 encoding of ``source``, encoded on first read and kept."""
        return self.source.encode("utf-8")


def _char_classes(cp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(word, space) flags of the code points ``cp``: ASCII ones from the
    tables, the rest from numpy's Unicode predicates (``\\w`` is
    alphanumeric or underscore, and underscore is ASCII)."""
    narrow = np.minimum(cp, 0x7F, dtype=np.intp)
    word, space = _ASCII_WORD[narrow], _ASCII_SPACE[narrow]
    wide = np.flatnonzero(cp >= 0x80)
    if wide.size:
        chars = cp[wide].view("<U1")
        word[wide] = np.char.isalnum(chars)
        space[wide] = np.char.isspace(chars)
    return word, space


def tokenize(text: str) -> TokenizedContext:
    """Split ``text`` into offset-annotated tokens.

    Pure and deterministic; empty input yields zero tokens.  The code points
    are classified once as word, space or other.  A token starts at every
    non-space character that does not continue a run of word characters,
    and ends at every non-space character that the next one does not
    continue.  No Python code runs per token:

    - texts: a space is inserted before every token start (the code points
      are copied through a boolean keep-mask into an array of spaces, with
      no sort) and the result split once by ``str.split()``, which breaks on
      exactly the characters ``\\s`` matches (both use
      ``Py_UNICODE_ISSPACE``); no token holds one, so the pieces are the
      token texts in order;
    - ids: one ``dict.setdefault`` pass maps each token to the position of
      its text's first occurrence, and ranking those first occurrences gives
      the vocabulary ids in first-seen order;
    - offsets: in non-ASCII text, a character offset becomes a byte offset
      by looking up where that code point's lead byte sits in the UTF-8
      encoding; ASCII text needs no conversion.

    So ``source_bytes[starts[i]:ends[i]].decode() == vocab[text_ids[i]]``
    holds for arbitrary Unicode input.  Text that holds a lone surrogate
    has no UTF-8 encoding and raises :class:`DataError`.
    """
    try:
        cp = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    except UnicodeEncodeError as exc:
        raise DataError(
            f"text is not valid Unicode: {exc.reason} at character {exc.start} "
            f"(U+{ord(text[exc.start]):04X})"
        ) from exc
    word, space = _char_classes(cp)
    joined = word[1:] & word[:-1]  # character i + 1 continues character i's word
    is_start, is_end = ~space, ~space
    is_start[1:] &= ~joined
    is_end[:-1] &= ~joined
    starts = np.flatnonzero(is_start)
    ends = np.flatnonzero(is_end) + 1
    # the code points with a space before every token start: token j's start
    # moves j places right, and every position no start lands on keeps cp
    spaced = np.full(cp.size + starts.size, 0x20, dtype=cp.dtype)
    keep = np.ones(spaced.size, dtype=bool)
    keep[starts + np.arange(starts.size)] = False
    spaced[keep] = cp
    texts = spaced.tobytes().decode("utf-32-le").split()
    n = len(texts)
    index: dict[str, int] = {}
    first = np.fromiter(map(index.setdefault, texts, range(n)), np.intp, n)
    # token i is its text's first occurrence where first[i] == i
    text_ids = (np.cumsum(first == np.arange(n), dtype=np.int32) - 1)[first]
    if not text.isascii():
        # a code point's byte offset is that of its UTF-8 lead byte, and lead
        # bytes are the ones not of the form 0b10xxxxxx (as int8: >= -64)
        lead = np.frombuffer(text.encode("utf-8"), np.int8) >= -64
        offsets = np.flatnonzero(np.append(lead, True))
        starts, ends = offsets[starts], offsets[ends]
    return TokenizedContext(
        source=text, vocab=tuple(index), text_ids=text_ids, starts=starts, ends=ends
    )


def tokens_touching(ctx: TokenizedContext, byte_ranges) -> np.ndarray:
    """Boolean array over all tokens: true where the token's byte range
    intersects any of the half-open ``byte_ranges``."""
    hit = np.zeros(len(ctx), dtype=bool)
    for start, end in byte_ranges:
        hit |= (ctx.starts < end) & (ctx.ends > start)
    return hit

