import numpy as np
import pytest

from conftest import make_instance
from hilite.errors import (
    ParseError,
    ProtocolError,
    SolverUnavailableError,
    TemplateError,
)
from hilite.markup import BUILTIN_FORMATS, DEFAULT_FORMAT, coalesce, inject, new_mask
from hilite.solver import (
    ANSWER_TAG,
    EndpointConfig,
    HTTPSolver,
    OracleSolver,
    OracleSolverConfig,
    PromptTemplate,
    TEMPLATES,
    call_http,
    evidence_coverage,
    oracle_solve,
    parse_answer,
    parse_final_json,
    render_prompt,
)
from hilite.tokenization import tokenize


# ---------------------------------------------------------------------------
# templates and rendering
# ---------------------------------------------------------------------------


def test_template_requires_both_placeholders():
    with pytest.raises(TemplateError):
        PromptTemplate(name="bad", body="{context} only")
    with pytest.raises(TemplateError):
        PromptTemplate(name="bad", body="{context} {instruction} {context}")


def test_render_empty_context():
    t = TEMPLATES["basic"]
    out = render_prompt("what?", "", t)
    assert "[CONTEXT]\n\n" in out
    assert "what?" in out


def test_render_passes_tags_verbatim():
    t = TEMPLATES["basic"]
    emphasized = "a <start_important>b<end_important> c"
    assert emphasized in render_prompt("q", emphasized, t)


def test_render_is_injection_proof():
    t = PromptTemplate(name="t", body="C={context} I={instruction}")
    out = render_prompt("q", "{instruction}", t)
    assert out == "C={instruction} I=q"


def test_qa_template_layout():
    out = render_prompt("Who?", "EV TEXT", TEMPLATES["qa"])
    assert out == (
        "You are a helpful, precise QA assistant.\n"
        "Follow the format EXACTLY:\n"
        "You MUST output ONLY the short answer phrase inside <answer>...</answer>.\n"
        "No explanation, no extra words.\n"
        "Some parts of the EVIDENCE are wrapped in <start_important> ... <end_important>.\n"
        "\n"
        "QUESTION:\n"
        "Who?\n"
        "\n"
        "EVIDENCE:\n"
        "EV TEXT\n"
        "\n"
        "OUTPUT:\n"
    )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_answer_payload():
    assert parse_answer("<answer>35,124</answer>") == "35,124"


def test_parse_answer_takes_first_well_formed():
    raw = "noise <answer>first</answer> tail <answer>second</answer>"
    assert parse_answer(raw) == "first"


def test_parse_answer_missing_tags():
    with pytest.raises(ParseError):
        parse_answer("no tags here")


def test_parse_final_json_ranking():
    raw = '<FINAL_JSON>[{"id": 1, "score": 8.5}, {"id": 2, "score": 6.0}]</FINAL_JSON>'
    assert parse_final_json(raw) == [1, 2]


def test_parse_final_json_tie_break_and_order():
    raw = (
        "<FINAL_JSON>"
        '[{"id": 9, "score": 1.0}, {"id": 3, "score": 5.0}, {"id": 1, "score": 1.0}]'
        "</FINAL_JSON>"
    )
    assert parse_final_json(raw) == [3, 1, 9]


def test_parse_final_json_errors():
    with pytest.raises(ParseError):
        parse_final_json("nothing")
    with pytest.raises(ParseError):
        parse_final_json("<FINAL_JSON>not json</FINAL_JSON>")
    with pytest.raises(ParseError):
        parse_final_json('<FINAL_JSON>[{"id": 1}]</FINAL_JSON>')


@pytest.mark.parametrize("records", [
    '[{"id": 1, "score": 2.0}, {"id": 1, "score": 1.0}]',
    '[{"id": 1, "score": NaN}, {"id": 2, "score": 1.0}]',
    '[{"id": 1, "score": 1.0}, {"id": 2, "score": Infinity}]',
    '[{"id": [1], "score": 1.0}, {"id": [2], "score": 2.0}]',
])
def test_parse_final_json_rejects_duplicates_non_finite_and_unhashable(records):
    with pytest.raises(ParseError):
        parse_final_json(f"<FINAL_JSON>{records}</FINAL_JSON>")


def test_parsing_total_on_adversarial_text():
    for raw in ("", "<answer>", "</answer><answer>", "\x00\xff garbage", "<FINAL_JSON>"):
        with pytest.raises(ParseError):
            parse_answer(raw)
    adversarial_json = [
        '<FINAL_JSON>[{"id": "a", "score": 1}, {"id": 2, "score": 1}]</FINAL_JSON>',
        '<FINAL_JSON>[{"id": 1, "score": "high"}]</FINAL_JSON>',
        '<FINAL_JSON>[{"id": 1, "score": null}]</FINAL_JSON>',
        '<FINAL_JSON>{"id": 1}</FINAL_JSON>',
        "<FINAL_JSON>[1, 2]</FINAL_JSON>",
    ]
    for raw in adversarial_json:
        with pytest.raises(ParseError):
            parse_final_json(raw)


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------


def _endpoint(url, retries=3):
    return EndpointConfig(url=url, max_retries=retries, backoff_base=0.01, timeout=5.0)


def test_call_http_echo(scripted_server):
    url, handler = scripted_server
    handler.script.append((200, {"text": "<answer>canned</answer>"}))
    out = call_http("prompt", _endpoint(url))
    assert out.raw_text == "<answer>canned</answer>"
    assert out.attempt_count == 1
    assert handler.requests_seen[0]["prompt"] == "prompt"
    assert handler.requests_seen[0]["temperature"] == 0.0


def test_call_http_malformed_payload_is_protocol_error(scripted_server):
    url, handler = scripted_server
    handler.script.append((200, {"no_text": 1}))
    with pytest.raises(ProtocolError):
        call_http("p", _endpoint(url))


def test_call_http_retries_then_succeeds(scripted_server):
    url, handler = scripted_server
    handler.script.extend([
        (500, {"err": "boom"}),
        (500, {"err": "boom"}),
        (200, {"text": "fine"}),
    ])
    out = call_http("p", _endpoint(url, retries=3))
    assert out.raw_text == "fine"
    assert out.attempt_count == 3


def test_call_http_exhausted_retries(scripted_server):
    url, handler = scripted_server
    handler.script.extend([(500, {}), (500, {}), (500, {})])
    with pytest.raises(SolverUnavailableError):
        call_http("p", _endpoint(url, retries=3))
    assert len(handler.requests_seen) == 3  # retry budget respected


def test_call_http_does_not_retry_a_client_error(scripted_server):
    url, handler = scripted_server
    handler.script.extend([(401, {"err": "unauthorized"}), (200, {"text": "late"})])
    with pytest.raises(ProtocolError):
        call_http("p", _endpoint(url, retries=3))
    assert len(handler.requests_seen) == 1


def test_call_http_retries_too_many_requests(scripted_server):
    url, handler = scripted_server
    handler.script.extend([(429, {"err": "slow down"}), (200, {"text": "fine"})])
    out = call_http("p", _endpoint(url, retries=3))
    assert out.raw_text == "fine"
    assert out.attempt_count == 2


def test_http_solver_renders_template(scripted_server):
    url, handler = scripted_server
    handler.script.append((200, {"text": "<answer>x</answer>"}))
    solver = HTTPSolver(_endpoint(url), TEMPLATES["qa"])
    out = solver.solve("who?", "the evidence")
    assert out.raw_text == "<answer>x</answer>"
    assert "QUESTION:\nwho?" in handler.requests_seen[0]["prompt"]
    assert solver.output_contract == ANSWER_TAG


# ---------------------------------------------------------------------------
# oracle solver
# ---------------------------------------------------------------------------


def tagged_instance(select, fmt=DEFAULT_FORMAT, delta=0):
    """Instance over ten tokens, evidence = tokens 4..6, emphasis per mask."""
    context = "t0 t1 t2 t3 e4 e5 e6 t7 t8 t9"
    ctx = tokenize(context)
    start = ctx.tokens[4].char_start
    end = ctx.tokens[6].char_end
    inst = make_instance(context=context, gold="7777", evidence_spans=[(start, end)])
    mask = new_mask(ctx)
    mask[list(select)] = 1
    emphasized = inject(ctx, coalesce(mask, ctx, delta), fmt)
    return inst, emphasized


def test_oracle_unpaired_markers_reply_without_answer():
    inst, emphasized = tagged_instance([4, 5, 6])
    out = oracle_solve("q", emphasized + " <end_important>", inst, OracleSolverConfig())
    with pytest.raises(ParseError):
        parse_answer(out.raw_text)


def test_oracle_full_coverage_returns_gold():
    inst, emphasized = tagged_instance([4, 5, 6])
    out = oracle_solve("q", emphasized, inst, OracleSolverConfig(coverage_threshold=0.8))
    assert out.raw_text == "<answer>7777</answer>"


def test_oracle_no_tags_returns_distractor():
    inst, _ = tagged_instance([])
    out = oracle_solve("q", inst.context, inst, OracleSolverConfig(coverage_threshold=0.8))
    assert out.raw_text == "<answer>unknown</answer>"


def test_oracle_half_coverage_at_threshold_is_correct():
    # evidence bytes: "e4 e5 e6" = 8; tokens 4..5 cover "e4 e5" = 5 of 8,
    # so cover exactly half by shaving: use spans over e4 only -> 2/8 < 0.5;
    # tokens 4,5 -> 5/8 >= 0.5 (the >= comparison is what matters here)
    inst, emphasized = tagged_instance([4, 5])
    cfg = OracleSolverConfig(coverage_threshold=0.5)
    out = oracle_solve("q", emphasized, inst, cfg)
    assert out.raw_text == "<answer>7777</answer>"


def test_oracle_exact_threshold_boundary():
    # construct exactly half: evidence "ab" (2 bytes), tag only "a"
    context = "a b"
    ctx = tokenize(context)
    inst = make_instance(context=context, gold="g", evidence_spans=[(0, 1), (2, 3)])
    mask = new_mask(ctx)
    mask[0] = 1
    emphasized = inject(ctx, coalesce(mask, ctx, 0), DEFAULT_FORMAT)
    out = oracle_solve("q", emphasized, inst, OracleSolverConfig(coverage_threshold=0.5))
    assert out.raw_text == "<answer>g</answer>"


def test_oracle_monotone_in_coverage():
    cfg = OracleSolverConfig(coverage_threshold=0.6)
    rewards = []
    for select in ([], [4], [4, 5], [4, 5, 6]):
        inst, emphasized = tagged_instance(select)
        out = oracle_solve("q", emphasized, inst, cfg)
        rewards.append(1.0 if out.raw_text == "<answer>7777</answer>" else 0.0)
    assert rewards == sorted(rewards)


def test_oracle_marker_format_agnostic_given_format():
    fmt = BUILTIN_FORMATS["markdown-bold"]
    inst, emphasized = tagged_instance([4, 5, 6], fmt=fmt)
    out = oracle_solve("q", emphasized, inst, OracleSolverConfig(0.8), fmt)
    assert out.raw_text == "<answer>7777</answer>"


def test_bridging_oracle_rejects_pruned_input():
    # pruned input: only the evidence text, tagged or not -> no connective bytes
    inst, _ = tagged_instance([4, 5, 6])
    cfg = OracleSolverConfig(coverage_threshold=0.8, require_connective=True)
    pruned = "e4 e5 e6"
    out = oracle_solve("q", pruned, inst, cfg)
    assert out.raw_text == "<answer>unknown</answer>"
    # full context with tags still passes
    _, emphasized = tagged_instance([4, 5, 6])
    out = oracle_solve("q", emphasized, inst, cfg)
    assert out.raw_text == "<answer>7777</answer>"


def test_evidence_coverage_destructive_input():
    inst, _ = tagged_instance([4, 5, 6])
    # tagged but pruned-down input: evidence text enclosed, context removed
    emphasized = "<start_important>e4 e5 e6<end_important>"
    coverage, connective = evidence_coverage(
        emphasized, inst.context, inst.evidence_spans, DEFAULT_FORMAT
    )
    assert coverage == 1.0
    assert not connective


def test_oracle_solver_class_requires_evidence():
    from hilite.errors import ConfigError

    solver = OracleSolver(OracleSolverConfig())
    inst = make_instance(evidence_spans=None)
    with pytest.raises(ConfigError):
        solver.solve("q", "text", inst)
