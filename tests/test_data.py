import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import gold_token_indices
from hilite.data import (
    _ADJECTIVES,
    _FILLERS,
    _NOUNS,
    _PLACES,
    _VERBS,
    DISTRACTOR_TOKENS,
    Instance,
    SynthSpec,
    build_covis,
    candidates,
    gen_dataset,
    _distractor_sentences,
    gen_needle,
    load_jsonl,
    popularity_from_histories,
    save_jsonl,
)
from hilite import tokenization
from hilite.errors import DataError
from hilite.tokenization import tokenize


# ---------------------------------------------------------------------------
# JSONL round-trip
# ---------------------------------------------------------------------------


def test_empty_file_is_empty_dataset(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    assert load_jsonl(p) == []


def test_round_trip_preserves_unknown_fields(tmp_path):
    inst = Instance(
        id="x1",
        query="q",
        context="ctx text",
        gold="g",
        evidence_spans=[(0, 3)],
        extra={"candidates": [{"id": 1, "title": "t"}], "source": "unit-test", "difficulty": 3},
    )
    p = tmp_path / "d.jsonl"
    save_jsonl([inst], p)
    loaded = load_jsonl(p)
    assert loaded == [inst]
    record = json.loads(p.read_text())
    assert record["difficulty"] == 3


# ---------------------------------------------------------------------------
# Instance.tokens
# ---------------------------------------------------------------------------


def test_tokens_are_computed_once_per_instance(monkeypatch):
    from hilite import trainer
    from hilite.solver import OracleSolver, OracleSolverConfig
    from hilite.trainer import VARIANTS, TrainConfig, evaluate, train

    data = gen_dataset(3, target_tokens=150, seed=4, n_clusters=2, cluster_size=3)
    cfg = TrainConfig(steps=3, seed=0)
    seen = []
    original = tokenization.tokenize

    def counting(text):
        seen.append(text)
        return original(text)

    for module in (tokenization, trainer):
        monkeypatch.setattr(module, "tokenize", counting)
    solver = OracleSolver(OracleSolverConfig())
    result = train(data, solver, cfg)
    reports = [evaluate(data, result.params, solver, cfg, result.idf_table, variant=variant)
               for variant in VARIANTS]
    assert len(reports) == 4
    assert seen == [inst.context for inst in data]


def test_instance_fields_cannot_be_reassigned():
    inst = Instance(id="a", query="q", context="one two", gold="g")
    assert [inst.tokens.vocab[i] for i in inst.tokens.text_ids] == ["one", "two"]
    assert inst.tokens is inst.tokens
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.context = "three, four"
    assert inst.context == "one two"
    assert inst.tokens == tokenize("one two")


def test_replaced_instance_tokenizes_afresh():
    inst = Instance(id="a", query="q", context="one two", gold="g")
    kept = inst.tokens
    same = dataclasses.replace(inst)
    assert same.tokens is not kept and same.tokens == kept
    other = dataclasses.replace(inst, context="five six seven")
    assert [other.tokens.vocab[i] for i in other.tokens.text_ids] == ["five", "six", "seven"]


def test_kept_tokens_leave_equality_and_records_alone():
    a = Instance(id="a", query="q", context="one two", gold="g", extra={"x": 1})
    b = Instance(id="a", query="q", context="one two", gold="g", extra={"x": 1})
    record = a.to_record()
    assert len(a.tokens) == 2
    assert a == b
    assert a.to_record() == record == b.to_record()
    assert "_tokens" not in {f.name for f in dataclasses.fields(a)}
    assert repr(a) == repr(b)


def test_missing_field_reports_line_number(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "a", "query": "q", "context": "c", "gold": "g"}\n'
                 '{"id": "b", "query": "q", "gold": "g"}\n')
    with pytest.raises(DataError, match=r"bad\.jsonl:2.*context"):
        load_jsonl(p)


def test_malformed_json_reports_line_number(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "a", "query": "q", "context": "c", "gold": "g"}\n{oops\n')
    with pytest.raises(DataError, match=r"bad\.jsonl:2"):
        load_jsonl(p)


@pytest.mark.parametrize("line, reason", [
    ('{"id": "a", "query": "q", "context": "abc", "gold": "g", "evidence_spans": [["zz", 3]]}',
     "evidence_spans"),
    ('{"id": "a", "query": "q", "context": "abc", "gold": "g", "evidence_spans": [[0, 3, 4]]}',
     "evidence_spans"),
    ('{"id": "a", "query": "q", "context": "abc", "gold": "g", "evidence_spans": 5}',
     "evidence_spans"),
    ('{"id": "a", "query": "q", "context": "abc", "gold": "g", "evidence_spans": [[0, 9]]}',
     "outside context bounds"),
    ('"just a string"', "JSON object"),
    ('[1, 2]', "JSON object"),
    ('{"id": "a", "query": "q", "context": 5, "gold": "g"}', "'context' is not a string"),
    ('{"id": "a", "query": null, "context": "c", "gold": "g"}', "'query' is not a string"),
    ('{"id": null, "query": "q", "context": "c", "gold": "g"}', "'id' is not a string or"),
    ('{"id": true, "query": "q", "context": "c", "gold": "g"}', "'id' is not a string or"),
    ('{"id": [1], "query": "q", "context": "c", "gold": "g"}', "'id' is not a string or"),
    ('{"id": {}, "query": "q", "context": "c", "gold": "g"}', "'id' is not a string or"),
    ('{"id": "a", "query": "q", "context": "c", "gold": null}', "'gold' is not a string or"),
    ('{"id": "a", "query": "q", "context": "c", "gold": ["x"]}', "'gold' is not a string or"),
    ('{"id": "a", "query": "q", "context": "c", "gold": true}', "'gold' is not a string or"),
    ('{"id": "a", "query": "q", "context": "c", "gold": 1.5}', "'gold' is not a string or"),
    ('{"id": "a", "query": "q", "context": "abcdef", "gold": "g", "evidence_spans": [[0.9, 5.7]]}',
     r"evidence_spans entry \[0.9, 5.7\] is not two integers"),
    ('{"id": "a", "query": "q", "context": "abcdef", "gold": "g", "evidence_spans": [["0", "5"]]}',
     "evidence_spans entry .* is not two integers"),
    ('{"id": "a", "query": "q", "context": "abcdef", "gold": "g", "evidence_spans": [[0, 2.0]]}',
     "evidence_spans entry .* is not two integers"),
    ('{"id": "a", "query": "q", "context": "abcdef", "gold": "g", "evidence_spans": [[true, 3]]}',
     "evidence_spans entry .* is not two integers"),
], ids=["span-not-int", "span-of-three", "spans-not-list", "span-out-of-bounds",
        "string-line", "array-line", "context-not-string", "query-null",
        "id-null", "id-bool", "id-list", "id-object",
        "gold-null", "gold-list", "gold-bool", "gold-float",
        "span-floats", "span-numeric-strings", "span-integral-float", "span-bool"])
def test_malformed_line_is_a_data_error_with_its_number(tmp_path, line, reason):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "a", "query": "q", "context": "c", "gold": "g"}\n' + line + "\n")
    with pytest.raises(DataError, match=rf"bad\.jsonl:2: .*{reason}"):
        load_jsonl(p)


@pytest.mark.parametrize("line, field", [
    ('{"id": "a", "query": "q", "context": "ab\\ud800c", "gold": "g"}', "context"),
    ('{"id": "a", "query": "q", "context": "ab\\udcffc", "gold": "g", '
     '"evidence_spans": [[0, 2]]}', "context"),
    ('{"id": "a", "query": "q\\ud800", "context": "abc", "gold": "g"}', "query"),
], ids=["context", "context-with-spans", "query"])
def test_lone_surrogate_is_a_data_error_naming_line_and_field(tmp_path, line, field):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "a", "query": "q", "context": "c", "gold": "g"}\n' + line + "\n")
    with pytest.raises(DataError, match=rf"bad\.jsonl:2: field '{field}' is not valid Unicode"):
        load_jsonl(p)


def test_instance_with_spans_over_a_lone_surrogate_is_a_data_error():
    with pytest.raises(DataError, match=r"field 'context' is not valid Unicode"):
        Instance(id="a", query="q", context="ab\ud800", gold="g", evidence_spans=[(0, 1)])


@pytest.mark.parametrize("kwargs, reason", [
    (dict(query=None), "field 'query' is not a string"),
    (dict(context=5), "field 'context' is not a string"),
    (dict(query="q\ud800"), "field 'query' is not valid Unicode"),
    (dict(context="ab\udcffc"), "field 'context' is not valid Unicode"),
    (dict(id=None), "field 'id' is not a string or an integer"),
    (dict(id=True), "field 'id' is not a string or an integer"),
    (dict(gold=None), "field 'gold' is not a string or an integer"),
    (dict(gold=["x"]), "field 'gold' is not a string or an integer"),
    (dict(gold=True), "field 'gold' is not a string or an integer"),
    (dict(evidence_spans=[(True, 3)]), r"evidence_spans entry \[True, 3\] is not two integers"),
    (dict(evidence_spans=[(0.0, 2)]), "evidence_spans entry .* is not two integers"),
    (dict(evidence_spans=[(0, 1, 2)]), "malformed evidence_spans"),
    (dict(evidence_spans=5), "malformed evidence_spans"),
], ids=["query-none", "context-int", "query-surrogate", "context-surrogate",
        "id-none", "id-bool", "gold-none", "gold-list", "gold-bool",
        "span-bool", "span-float", "span-of-three", "spans-not-list"])
def test_instance_built_in_python_checks_its_fields_as_loading_does(kwargs, reason):
    fields = dict(id="a", query="q", context="abc", gold="g") | kwargs
    with pytest.raises(DataError, match=reason):
        Instance(**fields)


def test_instance_built_in_python_normalizes_as_loading_does():
    inst = Instance(id=7, query="q", context="abcdef", gold="g", evidence_spans=[[0, 2], [3, 5]])
    assert inst.id == "7"
    assert inst.evidence_spans == [(0, 2), (3, 5)]
    assert inst == Instance.from_record(inst.to_record())


def test_integer_gold_loads_and_round_trips_as_an_integer(tmp_path):
    p = tmp_path / "gold.jsonl"
    p.write_text('{"id": "a", "query": "q", "context": "c", "gold": 7}\n')
    (inst,) = load_jsonl(p)
    assert inst.gold == 7 and type(inst.gold) is int
    assert Instance.from_record(inst.to_record()) == inst


def test_integer_id_loads_as_its_decimal_string(tmp_path):
    p = tmp_path / "ids.jsonl"
    p.write_text('{"id": 7, "query": "q", "context": "c", "gold": "g"}\n')
    assert [inst.id for inst in load_jsonl(p)] == ["7"]


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataError):
        load_jsonl(tmp_path / "nope.jsonl")


def test_evidence_span_validation():
    with pytest.raises(DataError):
        Instance(id="x", query="q", context="abc", gold="g",
                 evidence_spans=[(0, 99)])
    with pytest.raises(DataError):
        Instance(id="x", query="q", context="abcdef", gold="g",
                 evidence_spans=[(0, 4), (2, 5)])


# ---------------------------------------------------------------------------
# synthetic needle generation
# ---------------------------------------------------------------------------


def test_target_below_needle_rejected():
    with pytest.raises(DataError):
        gen_needle(SynthSpec(target_tokens=1, seed=5))


@pytest.mark.parametrize("field, value", [("seed", -1), ("filler_gap", -2)])
def test_negative_seed_or_filler_gap_rejected(field, value):
    # numpy's generator takes no negative seed; a negative gap leaves no filler words
    with pytest.raises(DataError, match=f"{field} must be >= 0, not {value}"):
        SynthSpec(**{field: value})


def test_gen_needle_deterministic():
    a = gen_needle(SynthSpec(target_tokens=300, seed=9))
    b = gen_needle(SynthSpec(target_tokens=300, seed=9))
    assert a == b
    c = gen_needle(SynthSpec(target_tokens=300, seed=10))
    assert c.context != a.context


def test_needle_vocabulary_entries_are_one_token_each():
    for word in (*_ADJECTIVES, *_NOUNS, *_VERBS, *_PLACES, *_FILLERS):
        assert len(tokenize(word)) == 1, word


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_distractor_sentence_has_distractor_tokens(seed):
    for sentence in _distractor_sentences(np.random.default_rng(seed), 3):
        assert len(tokenize(sentence)) == DISTRACTOR_TOKENS


@pytest.mark.parametrize("sizes", [
    [10] * 300, [15] * 300, [20] * 300, [20, 20, 15, 15] * 75, [], [2**31 + 1] * 64,
    [1, 5, 2**32, 2**32 + 5] * 8,
], ids=["10", "15", "20", "sentence", "empty", "half-rejected", "edges"])
@pytest.mark.parametrize("odd_start", [False, True], ids=["even", "odd"])
def test_array_integers_match_scalar_integers(sizes, odd_start):
    # gen_needle draws its indices with array-valued calls (an array of bounds,
    # or one bound and a size) and stays byte-identical only if each equals one
    # scalar call per index: the same values, and the same generator state
    # after, rejected draws included (about half at n = 2**31 + 1).  PCG64
    # hands out 32-bit draws as halves of a 64-bit word and keeps the other
    # half; an odd number of earlier draws leaves that half buffered.
    scalar, bounds, sized = (np.random.default_rng(2024) for _ in range(3))
    if odd_start:
        for rng in (scalar, bounds, sized):
            rng.integers(0, 2**32 - 1, size=3, dtype=np.uint32, endpoint=True)
    expected = [int(scalar.integers(n)) for n in sizes]
    assert bounds.integers(np.array(sizes, dtype=np.int64)).tolist() == expected
    assert bounds.bit_generator.state == scalar.bit_generator.state
    if len(set(sizes)) == 1:
        assert sized.integers(sizes[0], size=len(sizes)).tolist() == expected
        assert sized.bit_generator.state == scalar.bit_generator.state


# SHA-256 over the JSON records of NEEDLE_DIGEST_SPECS, recorded from the
# scalar-draw generator that preceded array-bound draws
NEEDLE_DIGEST_SPECS = [
    SynthSpec(target_tokens=t, seed=s) for t in (120, 600, 2000) for s in range(300)
] + [SynthSpec(target_tokens=14000, seed=s) for s in range(20)]
NEEDLE_RECORDS_SHA256 = "6dcd68ff9db60ab238af364b1fee5d8da9f4e959d2610a6b8575f32ca9ca3a4c"


def test_gen_needle_records_match_the_recorded_digest():
    digest = hashlib.sha256()
    for spec in NEEDLE_DIGEST_SPECS:
        record = json.dumps(gen_needle(spec).to_record(), ensure_ascii=False, sort_keys=True)
        digest.update(record.encode("utf-8") + b"\n")
    assert digest.hexdigest() == NEEDLE_RECORDS_SHA256


@given(
    target=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
    n_clusters=st.integers(1, 8), cluster_size=st.integers(1, 6),
    filler_gap=st.integers(0, 8),
)
@settings(max_examples=100, deadline=None)
def test_gen_needle_token_budget_exact(target, seed, n_clusters, cluster_size, filler_gap):
    spec = SynthSpec(target_tokens=target, seed=seed, n_clusters=n_clusters,
                     cluster_size=cluster_size, filler_gap=filler_gap)
    try:
        inst = gen_needle(spec)
    except DataError as exc:
        assume("below needle length" not in str(exc))  # the needle does not fit
        raise
    assert len(tokenize(inst.context)) == target  # the generator pads to the exact count


def test_gen_needle_8k_length_audit():
    inst = gen_needle(SynthSpec(target_tokens=8000, seed=0))
    n = len(tokenize(inst.context).tokens)
    assert 7840 <= n <= 8160


def test_gold_answer_occurs_once_inside_evidence():
    inst = gen_needle(SynthSpec(target_tokens=500, seed=11))
    gold = str(inst.gold)
    assert inst.context.count(gold) == 1
    raw = inst.context.encode("utf-8")
    position = raw.find(gold.encode("utf-8"))
    assert any(s <= position and position + len(gold) <= e
               for s, e in inst.evidence_spans)


def test_evidence_spans_are_exact_and_sorted():
    inst = gen_needle(SynthSpec(target_tokens=400, seed=2))
    raw = inst.context.encode("utf-8")
    assert inst.evidence_spans == sorted(inst.evidence_spans)
    for start, end in inst.evidence_spans:
        piece = raw[start:end].decode("utf-8")
        assert piece.strip() == piece  # spans never swallow surrounding space
        assert piece in inst.query or "access code" in piece


def test_evidence_density_near_defaults():
    inst = gen_needle(SynthSpec(target_tokens=2000, seed=0))
    ctx = tokenize(inst.context)
    gold = gold_token_indices(ctx, inst.evidence_spans)
    density = len(gold) / len(ctx.tokens)
    assert 0.01 <= density <= 0.02  # ~1.5%


def test_gen_dataset_distinct_ids():
    data = gen_dataset(5, target_tokens=150, seed=0)
    assert len({inst.id for inst in data}) == 5


# ---------------------------------------------------------------------------
# co-visitation graph
# ---------------------------------------------------------------------------


def covis_count(graph, a, b) -> int:
    """Co-occurrence count of (a, b), read from a's adjacency list."""
    return dict(graph.get(a, ())).get(b, 0)


def total_weight(graph) -> int:
    return sum(c for pairs in graph.values() for _, c in pairs)


def test_single_pair_history():
    g = build_covis([["A", "B"]], window=1)
    assert covis_count(g, "A", "B") == 1
    assert covis_count(g, "B", "A") == 1


def test_single_item_history_is_empty_graph():
    assert build_covis([["A"]], window=1) == {}


def test_duplicate_histories_double_counts():
    h = ["A", "B", "C"]
    g1 = build_covis([h], window=1)
    g2 = build_covis([h, list(h)], window=1)
    for a in "ABC":
        for b in "ABC":
            assert covis_count(g2, a, b) == 2 * covis_count(g1, a, b)


def test_total_weight_identity():
    # total edge weight = sum over users/positions of min(w, left) + min(w, right)
    histories = [["A", "B", "C", "D"], ["B", "C"], ["D", "A", "B"]]
    w = 2
    expected = 0
    for h in histories:
        n = len(h)
        for t in range(n):
            expected += min(w, t) + min(w, n - 1 - t)
    assert total_weight(build_covis(histories, window=w)) == expected


def test_window_radius():
    g = build_covis([["A", "B", "C", "D"]], window=2)
    assert covis_count(g, "A", "C") == 1
    assert covis_count(g, "A", "D") == 0  # distance 3 > 2


def test_neighbor_lists_sorted_desc_count():
    g = build_covis([["A", "B", "A", "C", "A", "B"]], window=5)
    neighbors = g["A"]
    counts = [c for _, c in neighbors]
    assert counts == sorted(counts, reverse=True)


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------


def test_recency_decayed_score():
    # recency [B, A] (B most recent), co[B][C]=2, co[A][C]=1, alpha=0.85
    # -> s(C) = 2 + 0.85 * 1 = 2.85
    graph = {
        "B": [("C", 2)],
        "A": [("C", 1)],
    }
    out = candidates(["A", "B"], graph, alpha=0.85, M=10, K=5)
    assert out == ["C"]
    # verify the decayed sum through a second competitor
    graph2 = {
        "B": [("C", 2), ("D", 3)],
        "A": [("C", 1)],
    }
    out2 = candidates(["A", "B"], graph2, alpha=0.85, M=10, K=5)
    assert out2 == ["D", "C"]  # s(D)=3 > s(C)=2.85


def test_history_items_never_candidates():
    graph = {"A": [("B", 5), ("C", 1)]}
    out = candidates(["A", "B"], graph, alpha=0.85, M=10, K=5)
    assert "B" not in out and "A" not in out


def test_backfill_with_popularity():
    graph = {"A": [("B", 1)]}
    popularity = ["Z", "A", "Y", "B", "X"]
    out = candidates(["A"], graph, alpha=0.85, M=10, K=4, popularity=popularity)
    assert out == ["B", "Z", "Y", "X"]  # scored first, then popular backfill


def test_candidate_count_capped_at_k():
    graph = {"A": [(i, 10 - i) for i in range(10)]}
    out = candidates(["A"], graph, alpha=0.85, M=10, K=3)
    assert len(out) == 3


def test_alpha_bounds():
    with pytest.raises(DataError):
        candidates([], {}, alpha=1.0)


def test_popularity_ordering():
    pops = popularity_from_histories([["A", "B", "A"], ["B", "A"]])
    assert pops == ["A", "B"]
