import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spans_to_mask
from hilite.data import SynthSpec, gen_needle
from hilite.errors import BudgetError, IntegrityError, StructureError
from hilite.markup import (
    BUILTIN_FORMATS,
    DEFAULT_FORMAT,
    MarkerFormat,
    byte_ranges,
    coalesce,
    get_format,
    inject,
    prune,
    scan_markers,
    strip,
)
from hilite.selection import random_mask
from hilite.tokenization import tokenize


def mask_for(ctx, indices):
    mask = np.zeros(len(ctx), dtype=np.uint8)
    mask[list(indices)] = 1
    return mask


def ten_tokens():
    return tokenize("t0 t1 t2 t3 t4 t5 t6 t7 t8 t9")


# ---------------------------------------------------------------------------
# coalesce
# ---------------------------------------------------------------------------


def test_coalesce_singleton():
    ctx = ten_tokens()
    spans = coalesce(mask_for(ctx, [4]), ctx, delta=10)
    assert [tuple(s) for s in spans.tolist()] == [(4, 4)]


def test_coalesce_gap_above_delta_splits():
    ctx = ten_tokens()
    spans = coalesce(mask_for(ctx, [2, 3, 7]), ctx, delta=2)
    # gap between 3 and 7 is 3 unselected tokens > 2
    assert [tuple(s) for s in spans.tolist()] == [(2, 3), (7, 7)]


def test_coalesce_gap_at_delta_merges():
    ctx = ten_tokens()
    spans = coalesce(mask_for(ctx, [2, 3, 7]), ctx, delta=3)
    assert [tuple(s) for s in spans.tolist()] == [(2, 7)]


def test_coalesce_length_mismatch_rejected():
    ctx = ten_tokens()
    with pytest.raises(StructureError):
        coalesce(np.zeros(3, dtype=np.uint8), ctx, delta=1)


def test_coalesce_empty_mask():
    ctx = ten_tokens()
    assert len(coalesce(np.zeros(len(ctx), dtype=np.uint8), ctx, delta=5)) == 0


def test_coalesce_returns_int64_token_ranges():
    ctx = ten_tokens()
    spans = coalesce(mask_for(ctx, [2, 3, 7]), ctx, delta=2)
    assert spans.dtype == np.int64 and spans.shape == (2, 2)
    empty = coalesce(np.zeros(len(ctx), dtype=np.uint8), ctx, delta=2)
    assert empty.dtype == np.int64 and empty.shape == (0, 2)


@given(st.lists(st.booleans(), min_size=1, max_size=40), st.integers(0, 12))
@settings(max_examples=300, deadline=None)
def test_coalesce_properties(bits, delta):
    text = " ".join(f"w{i}" for i in range(len(bits)))
    ctx = tokenize(text)
    mask = np.array(bits, dtype=np.uint8)
    spans = coalesce(mask, ctx, delta)
    selected = set(np.flatnonzero(mask).tolist())
    # bounds: span count <= popcount; spans cover all selected tokens
    assert len(spans) <= int(mask.sum())
    covered = set()
    for first, last in spans.tolist():
        covered.update(range(first, last + 1))
    assert selected <= covered
    # separation: consecutive spans separated by > delta unselected tokens
    for a, b in zip(spans.tolist(), spans[1:].tolist()):
        assert b[0] - a[1] - 1 > delta
    # span ends are selected tokens
    for first, last in spans.tolist():
        assert first in selected and last in selected
    # monotonicity: one more delta never increases the span count
    assert len(coalesce(mask, ctx, delta + 1)) <= len(spans)
    # idempotence on the spans' own indicator mask
    indicator = spans_to_mask(spans, len(ctx.tokens))
    again = coalesce(indicator, ctx, delta)
    assert [tuple(s) for s in again.tolist()] == [
        tuple(s) for s in spans.tolist()
    ]


# ---------------------------------------------------------------------------
# inject / strip
# ---------------------------------------------------------------------------


def test_inject_default_format():
    ctx = tokenize("a b c")
    spans = coalesce(mask_for(ctx, [1]), ctx, delta=0)
    out = inject(ctx, spans, DEFAULT_FORMAT)
    assert out == "a <start_important>b<end_important> c"


def test_inject_empty_span_list_is_identity():
    ctx = tokenize("a b c")
    assert inject(ctx, [], DEFAULT_FORMAT) == "a b c"


def test_inject_markdown_bold():
    ctx = tokenize("a b c")
    spans = coalesce(mask_for(ctx, [1]), ctx, delta=0)
    out = inject(ctx, spans, BUILTIN_FORMATS["markdown-bold"])
    assert out == "a **b** c"


def test_inject_overlapping_spans_rejected():
    ctx = tokenize("a b c")
    spans = coalesce(mask_for(ctx, [0, 1, 2]), ctx, delta=0)
    doubled = np.concatenate((spans, spans))
    with pytest.raises(StructureError):
        inject(ctx, doubled, DEFAULT_FORMAT)


@pytest.mark.parametrize("spans", [
    [[-1, 0]],  # before the first token
    [[8, 10]],  # past the last of ten tokens
    [[3, 2]],  # first after last
    [[5, 6], [2, 3]],  # unsorted
    [[2, 4], [4, 6]],  # sharing a token
    [[2, 5], [3, 4]],  # nested
    [[1, 2, 3]],  # not (m, 2)
    [1, 2],
])
def test_invalid_spans_rejected(spans):
    ctx = ten_tokens()
    with pytest.raises(StructureError):
        inject(ctx, np.asarray(spans), DEFAULT_FORMAT)
    with pytest.raises(StructureError):
        prune(ctx, np.asarray(spans), " ... ")


def test_adjacent_spans_accepted():
    ctx = ten_tokens()
    spans = np.array([[0, 0], [1, 2], [9, 9]])
    assert byte_ranges(ctx, spans) == [(0, 2), (3, 8), (27, 29)]
    assert inject(ctx, spans, BUILTIN_FORMATS["brace"]) == "{t0} {t1 t2} t3 t4 t5 t6 t7 t8 {t9}"


def test_strip_round_trip_default():
    ctx = tokenize("a b c")
    spans = coalesce(mask_for(ctx, [1]), ctx, delta=0)
    assert strip(inject(ctx, spans, DEFAULT_FORMAT), DEFAULT_FORMAT) == "a b c"


def test_strip_no_tags_is_noop():
    assert strip("plain text with no tags", DEFAULT_FORMAT) == "plain text with no tags"


def test_strip_markdown_variant():
    ctx = tokenize("a b c")
    spans = coalesce(mask_for(ctx, [1]), ctx, delta=0)
    fmt = BUILTIN_FORMATS["markdown-bold"]
    assert strip(inject(ctx, spans, fmt), fmt) == "a b c"


def test_strip_unbalanced_rejected():
    with pytest.raises(IntegrityError):
        strip("x <start_important> y", DEFAULT_FORMAT)
    with pytest.raises(IntegrityError):
        strip("x <end_important> y <start_important> z", DEFAULT_FORMAT)
    with pytest.raises(IntegrityError):
        strip("a ** b", BUILTIN_FORMATS["markdown-bold"])


def test_strip_nested_rejected():
    fmt = DEFAULT_FORMAT
    nested = "".join([fmt.open, "a ", fmt.open, "b", fmt.close, fmt.close])
    with pytest.raises(IntegrityError):
        strip(nested, fmt)


# The two-branch scanner (identical markers counted, distinct markers
# alternated) that the single loop replaced, kept as the reference.
def reference_scan_markers(data: bytes, fmt: MarkerFormat):
    open_b = fmt.open.encode("utf-8")
    close_b = fmt.close.encode("utf-8")
    events = []
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
    out, regions = [], []
    cursor = removed = region_start = 0
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


SCAN_FORMATS = [*BUILTIN_FORMATS.values(), MarkerFormat("ab", "bc"),
                MarkerFormat("<<x", "x>>"), MarkerFormat("aa", "aa")]


@st.composite
def marked_bytes(draw):
    fmt = draw(st.sampled_from(SCAN_FORMATS))
    pieces = draw(st.lists(st.one_of(
        st.sampled_from([fmt.open, fmt.close]),
        st.text(alphabet="abcx<>*{}[]/ é", max_size=4),
    ), max_size=12))
    return fmt, "".join(pieces).encode("utf-8")


def _scan_outcome(scan, data, fmt):
    try:
        return scan(data, fmt)
    except IntegrityError:
        return IntegrityError


@given(marked_bytes())
@settings(max_examples=1000, deadline=None)
def test_scan_markers_matches_two_branch_reference(case):
    fmt, data = case
    assert _scan_outcome(scan_markers, data, fmt) == _scan_outcome(
        reference_scan_markers, data, fmt)


def _drop_nth(data: bytes, marker: bytes, n: int) -> bytes:
    """``data`` without the n-th occurrence of ``marker``."""
    parts = data.split(marker)
    return marker.join(parts[: n + 1]) + marker.join(parts[n + 1:])


@pytest.mark.parametrize("fmt_name", ["default", "double-bracket", "html-b"])
def test_scan_markers_matches_reference_on_long_input(fmt_name):
    fmt = BUILTIN_FORMATS[fmt_name]
    text = gen_needle(SynthSpec(target_tokens=16000, seed=31)).context
    text = text.replace(". ", ". Grüße vom Süden, 古い灯台. ", 60)
    ctx = tokenize(text)
    assert len(ctx) >= 16000
    spans = coalesce(random_mask(ctx, 300, 4), ctx, delta=0)
    assert len(spans) >= 250
    data = inject(ctx, spans, fmt).encode("utf-8")
    open_b, close_b = fmt.open.encode("utf-8"), fmt.close.encode("utf-8")
    stripped, regions = scan_markers(data, fmt)
    assert stripped == text.encode("utf-8")
    assert regions == byte_ranges(ctx, spans)
    corrupted = [
        _drop_nth(data, close_b, 150),  # a span never closed, then nested
        _drop_nth(data, open_b, 150),  # a close without its open
        _drop_nth(data, close_b, len(spans) - 1),  # the last span never closed
        data + open_b,
        close_b + data,
    ]
    for case in [data, *corrupted]:
        assert _scan_outcome(scan_markers, case, fmt) == _scan_outcome(
            reference_scan_markers, case, fmt)
    for case in corrupted:
        with pytest.raises(IntegrityError):
            scan_markers(case, fmt)


# ---------------------------------------------------------------------------
# prune
# ---------------------------------------------------------------------------


def test_prune_full_coverage_is_source():
    ctx = tokenize("a b c d")
    spans = coalesce(mask_for(ctx, range(4)), ctx, delta=0)
    assert prune(ctx, spans, " ... ") == "a b c d"


def test_prune_empty_spans():
    ctx = tokenize("a b c d")
    assert prune(ctx, [], " ... ") == ""


def test_prune_joins_disjoint_spans():
    ctx = tokenize("a b c d")
    spans = coalesce(mask_for(ctx, [0, 2]), ctx, delta=0)
    assert prune(ctx, spans, " ... ") == "a ... c"


# ---------------------------------------------------------------------------
# random_mask
# ---------------------------------------------------------------------------


def test_random_mask_k_zero_and_full():
    ctx = ten_tokens()
    assert random_mask(ctx, 0, 7).sum() == 0
    assert random_mask(ctx, 10, 7).sum() == 10


def test_random_mask_deterministic_per_seed():
    ctx = ten_tokens()
    a = random_mask(ctx, 4, 123)
    b = random_mask(ctx, 4, 123)
    assert np.array_equal(a, b)


def test_random_mask_budget_error():
    ctx = ten_tokens()
    with pytest.raises(BudgetError):
        random_mask(ctx, 11, 0)


def test_random_mask_respects_omega():
    ctx = tokenize("a b c d e f")
    ctx.omega = (1, 3, 5)
    mask = random_mask(ctx, 3, 0)
    assert set(np.flatnonzero(mask).tolist()) == {1, 3, 5}


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------


def test_builtin_format_registry_is_complete():
    expected = {
        "default": ("<start_important>", "<end_important>"),
        "markdown-bold": ("**", "**"),
        "double-bracket": ("[[", "]]"),
        "brace": ("{", "}"),
        "chevron": (">>", "<<"),
        "html-b": ("<b>", "</b>"),
        "important-tag": ("<important>", "</important>"),
    }
    assert {k: (v.open, v.close) for k, v in BUILTIN_FORMATS.items()} == expected


def test_format_validation():
    with pytest.raises(StructureError):
        MarkerFormat("", "x")
    with pytest.raises(StructureError):
        MarkerFormat("<<", "<<<")  # distinct but one contains the other
    MarkerFormat("**", "**")  # identical markers are allowed


def test_get_format_and_user_registry():
    fmt = get_format("html-b")
    assert fmt.open == "<b>"
    with pytest.raises(StructureError):
        get_format("nope")


# ---------------------------------------------------------------------------
# non-destructiveness property
# ---------------------------------------------------------------------------

WORDS = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789é中", min_size=1, max_size=8),
    min_size=1,
    max_size=30,
)


@given(WORDS, st.integers(0, 6), st.sampled_from(sorted(BUILTIN_FORMATS)), st.randoms())
@settings(max_examples=300, deadline=None)
def test_non_destructiveness(words, delta, fmt_name, pyrandom):
    # marker characters never occur in the generated alphabet, so removal is
    # exactly the inverse of injection
    text = " ".join(words)
    ctx = tokenize(text)
    mask = np.zeros(len(ctx), dtype=np.uint8)
    for i in range(len(ctx.tokens)):
        if pyrandom.random() < 0.3:
            mask[i] = 1
    fmt = BUILTIN_FORMATS[fmt_name]
    spans = coalesce(mask, ctx, delta)
    emphasized = inject(ctx, spans, fmt)
    assert strip(emphasized, fmt) == text
    assert strip(emphasized, fmt).encode("utf-8") == text.encode("utf-8")
