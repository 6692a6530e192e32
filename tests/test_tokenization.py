import dataclasses
import re
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilite import tokenization
from hilite.errors import DataError
from hilite.tokenization import _char_classes, tokenize, tokens_touching


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


def test_lone_surrogate_is_a_data_error_naming_its_position():
    with pytest.raises(DataError, match=r"not valid Unicode: .* at character 4 \(U\+DCFF\)"):
        tokenize("abc \udcff def")


def test_byte_offsets_are_int32():
    ctx = tokenize("café bar")
    assert ctx.starts.dtype == ctx.ends.dtype == np.int32
    assert ctx.ends.tolist() == [5, 9]


def test_context_longer_than_int32_byte_offsets_is_a_data_error(monkeypatch):
    # the bound is 2 GiB - 1 bytes; lowered here, so no text needs that much
    monkeypatch.setattr(tokenization, "MAX_CONTEXT_BYTES", 8)
    assert tokenize("abc defg").ends.tolist() == [3, 8]
    assert tokenize("ééé a").ends.tolist() == [6, 8]  # 5 characters, 8 bytes
    for text in ("abc defgh", "ééé ab"):  # 9 bytes each
        with pytest.raises(DataError, match="9 UTF-8 bytes is longer than the 8"):
            tokenize(text)


def test_source_bytes_are_encoded_once_and_kept():
    ctx = tokenize("café bar")
    assert ctx.source_bytes is ctx.source_bytes
    assert ctx.source_bytes == "café bar".encode("utf-8")
    # the context holds the source only as the bytes tokenize encoded
    assert [f.name for f in dataclasses.fields(ctx)] == [
        "source_bytes", "vocab", "text_ids", "starts", "ends"]


def test_omega_defaults_to_all_tokens():
    ctx = tokenize("one two three")
    assert tuple(ctx.omega) == (0, 1, 2)
    assert ctx.omega.dtype == np.int64
    # built on each read from the token count; the context keeps no index set
    assert ctx.omega is not ctx.omega
    assert "omega" not in {f.name for f in dataclasses.fields(ctx)}


def test_omega_is_read_only():
    ctx = tokenize("a b c")
    with pytest.raises(AttributeError):
        ctx.omega = np.array([1], dtype=np.int64)
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
    assert ctx.source_bytes == raw
    assert ctx.text_ids.dtype == ctx.starts.dtype == ctx.ends.dtype == np.int32
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


def test_str_split_breaks_on_exactly_the_space_class():
    # tokenize takes its token texts from str.split(), which must break on
    # exactly the code points \s matches
    cp = np.concatenate((np.arange(0xD800), np.arange(0xE000, 0x110000))).astype("<u4")
    text = cp.tobytes().decode("utf-32-le")
    kept = set("".join("x".join(text).split()))
    assert set(text) - kept == set(re.findall(r"\s", text))


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
@example("x" * 100_000)  # one word
@example("." * 50_000)  # one token per character
@example("\x1c\u3000\n")  # whitespace only
@example("😀𝔘ab𝔘😀 .😀𝔘\u3000𝔘.\n😀")  # a 4-byte word or symbol at every token edge
@example("\x00\x00 a\x00b \x00")  # NUL is neither word nor space
@example(" ".join(map(str, range(20_000))))  # every token distinct
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
