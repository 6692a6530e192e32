import dataclasses
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilite.errors import RangeBoundsError
from hilite.tokenization import (
    _char_classes,
    restrict_omega,
    tokenize,
    tokens_touching,
)


def test_empty_text_yields_zero_tokens():
    ctx = tokenize("")
    assert ctx.tokens == []
    assert tuple(ctx.omega) == ()


def test_two_word_identity_case():
    ctx = tokenize("a b")
    assert [(t.text, t.char_start, t.char_end) for t in ctx.tokens] == [
        ("a", 0, 1),
        ("b", 2, 3),
    ]


def test_punctuation_split_with_byte_offsets():
    # hand-applied split rule: punctuation is its own token
    ctx = tokenize("grips, makeup")
    assert [(t.text, t.char_start, t.char_end) for t in ctx.tokens] == [
        ("grips", 0, 5),
        (",", 5, 6),
        ("makeup", 7, 13),
    ]


def test_offsets_are_byte_offsets_for_multibyte_text():
    text = "café bar"  # é is 2 bytes in UTF-8
    ctx = tokenize(text)
    raw = text.encode("utf-8")
    for tok in ctx.tokens:
        assert raw[tok.char_start : tok.char_end].decode("utf-8") == tok.text
    assert ctx.tokens[1].char_start == 6  # "bar" starts after the 5-byte word + space


def test_source_bytes_are_encoded_once_and_kept():
    ctx = tokenize("café bar")
    assert ctx.source_bytes is ctx.source_bytes
    assert ctx.source_bytes == "café bar".encode("utf-8")


def test_omega_defaults_to_all_tokens():
    ctx = tokenize("one two three")
    assert tuple(ctx.omega) == (0, 1, 2)


TEXTS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    max_size=200,
)


@given(TEXTS)
@settings(max_examples=300, deadline=None)
def test_round_trip_and_monotonicity(text):
    ctx = tokenize(text)
    raw = text.encode("utf-8")
    prev_end = -1
    for tok in ctx.tokens:
        assert raw[tok.char_start : tok.char_end].decode("utf-8") == tok.text
        assert tok.char_start < tok.char_end
        assert tok.char_start >= prev_end
        prev_end = tok.char_end
    # gaps between tokens contain no token characters; rebuilding the source
    # from slices + gaps is the identity
    pieces = []
    cursor = 0
    for tok in ctx.tokens:
        pieces.append(raw[cursor : tok.char_start])
        pieces.append(raw[tok.char_start : tok.char_end])
        cursor = tok.char_end
    pieces.append(raw[cursor:])
    assert b"".join(pieces) == raw


def test_char_classes_equal_re_classes_on_every_code_point():
    # every code point but the surrogates, which no str can encode
    cp = np.concatenate((np.arange(0xD800), np.arange(0xE000, 0x110000))).astype("<u4")
    text = cp.tobytes().decode("utf-32-le")
    word, space = _char_classes(cp)
    for got, pattern in ((word, r"\w"), (space, r"\s")):
        want = np.zeros(cp.size, dtype=bool)
        for m in re.finditer(pattern + "+", text):
            want[m.start() : m.end()] = True
        assert np.array_equal(got, want), pattern


_SPLIT_RE = re.compile(r"(\w+|[^\w\s])")


def reference_tokenize(text):
    """The regex split that tokenize replaced, kept as the reference:
    (texts, byte starts, byte ends)."""
    pieces = _SPLIT_RE.split(text)  # gap, token, gap, ..., token, gap
    bounds = np.cumsum([0] + [len(piece.encode("utf-8")) for piece in pieces])
    return pieces[1::2], bounds[1:-1:2], bounds[2::2]


# code points where Unicode's and ASCII's idea of word and space part ways
EDGE_TEXTS = st.text(
    alphabet="\x1c\x1d\x1e\x1f\x85\xa0\u200b\u3000_٠²Ⅻ𝔘\x00. "
    + string.ascii_letters + string.digits,
    max_size=80,
)


@given(EDGE_TEXTS | st.text(alphabet=string.printable, max_size=80) | TEXTS)
@settings(max_examples=500, deadline=None)
def test_tokenize_matches_the_regex_split(text):
    texts, starts, ends = reference_tokenize(text)
    ctx = tokenize(text)
    assert [ctx.vocab[i] for i in ctx.text_ids] == texts
    assert ctx.vocab == tuple(dict.fromkeys(texts))
    assert ctx.text_ids.dtype == np.int32
    assert ctx.starts.tolist() == starts.tolist()
    assert ctx.ends.tolist() == ends.tolist()


@given(TEXTS)
@settings(max_examples=100, deadline=None)
def test_determinism(text):
    assert tokenize(text) == tokenize(text)


def test_restrict_omega_no_ranges_is_identity():
    ctx = tokenize("a b c d e")
    assert tuple(restrict_omega(ctx, []).omega) == tuple(ctx.omega)


def test_restrict_omega_full_exclusion_empties_omega():
    ctx = tokenize("a b c")
    n = len(ctx.source_bytes)
    assert tuple(restrict_omega(ctx, [(0, n)]).omega) == ()


def test_restrict_omega_partial():
    ctx = tokenize("aa bb cc dd ee")  # tokens at 0-2, 3-5, 6-8, 9-11, 12-14
    out = restrict_omega(ctx, [(0, 5)])  # covers tokens 0 and 1
    assert tuple(out.omega) == (2, 3, 4)


@given(st.text(max_size=60), st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)),
                                      max_size=4))
@settings(max_examples=200, deadline=None)
def test_tokens_touching_matches_per_token_check(text, ranges):
    ctx = tokenize(text)
    expected = [
        any(start < end_r and end > start_r for start_r, end_r in ranges)
        for start, end in zip(ctx.starts.tolist(), ctx.ends.tolist())
    ]
    assert tokens_touching(ctx, ranges).tolist() == expected


def test_restrict_omega_out_of_bounds_rejected():
    ctx = tokenize("a b")
    with pytest.raises(RangeBoundsError):
        restrict_omega(ctx, [(0, 99)])


def test_explicit_empty_omega_is_preserved():
    ctx = dataclasses.replace(tokenize("a b"), omega=())
    assert tuple(ctx.omega) == ()
