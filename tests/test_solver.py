import ast
import os
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_instance
from hilite import solver as solver_module
from hilite.errors import (
    ConfigError,
    ParseError,
    ProtocolError,
    SolverUnavailableError,
    TemplateError,
)
from hilite.markup import BUILTIN_FORMATS, DEFAULT_FORMAT, coalesce, inject
from hilite.solver import (
    ANSWER_TAG,
    ConnectionPool,
    EndpointConfig,
    HTTPSolver,
    OracleSolver,
    OracleSolverConfig,
    PromptTemplate,
    TEMPLATES,
    call_http,
    evidence_coverage,
    parse_answer,
    parse_final_json,
    render_prompt,
)
from hilite.tokenization import tokenize

pytestmark = pytest.mark.usefixtures("fast_backoff")


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


def test_render_inserts_backslashes_literally():
    t = PromptTemplate(name="t", body="I={instruction} C={context}")
    out = render_prompt(r"\1 \g<0>", r"C:\new\table \\", t)
    assert out == r"I=\1 \g<0> C=C:\new\table \\"


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
        # a JSON type other than the one Instance.gold and a ranking need
        '<FINAL_JSON>[{"id": true, "score": 1}]</FINAL_JSON>',
        '<FINAL_JSON>[{"id": 1.0, "score": 1}]</FINAL_JSON>',
        '<FINAL_JSON>[{"id": 1, "score": true}]</FINAL_JSON>',
        '<FINAL_JSON>[{"id": 1, "score": "8.5"}]</FINAL_JSON>',
        # a JSON integer too large for a float
        '<FINAL_JSON>[{"id": 1, "score": 1' + "0" * 400 + '}]</FINAL_JSON>',
    ]
    for raw in adversarial_json:
        with pytest.raises(ParseError):
            parse_final_json(raw)


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------


def _endpoint(url, retries=3):
    return EndpointConfig(url=url, max_retries=retries, timeout=5.0)


def test_call_http_echo(scripted_server):
    url, handler = scripted_server
    handler.script.append((200, {"text": "<answer>canned</answer>"}))
    with closing(ConnectionPool(url, 5.0)) as pool:
        out = call_http("prompt", _endpoint(url), pool)
    assert out.raw_text == "<answer>canned</answer>"
    assert out.attempt_count == 1
    assert handler.requests_seen[0]["prompt"] == "prompt"
    assert handler.requests_seen[0]["temperature"] == 0.0


@pytest.mark.parametrize("payload", [
    {"no_text": 1},
    # a non-string text is not turned into one: str(["<answer>42</answer>"]) parses as 42
    {"text": ["<answer>42</answer>"]}, {"text": None}, {"text": 42},
], ids=["no-text", "text-list", "text-null", "text-number"])
def test_call_http_malformed_payload_is_protocol_error(scripted_server, payload):
    url, handler = scripted_server
    handler.script.append((200, payload))
    with closing(ConnectionPool(url, 5.0)) as pool, pytest.raises(ProtocolError):
        call_http("p", _endpoint(url), pool)


def test_call_http_retries_then_succeeds(scripted_server):
    url, handler = scripted_server
    handler.script.extend([
        (500, {"err": "boom"}),
        (500, {"err": "boom"}),
        (200, {"text": "fine"}),
    ])
    with closing(ConnectionPool(url, 5.0)) as pool:
        out = call_http("p", _endpoint(url, retries=3), pool)
    assert out.raw_text == "fine"
    assert out.attempt_count == 3


def test_call_http_exhausted_retries(scripted_server):
    url, handler = scripted_server
    handler.script.extend([(500, {}), (500, {}), (500, {})])
    with closing(ConnectionPool(url, 5.0)) as pool, pytest.raises(SolverUnavailableError):
        call_http("p", _endpoint(url, retries=3), pool)
    assert len(handler.requests_seen) == 3  # retry budget respected


def test_call_http_does_not_retry_a_client_error(scripted_server):
    url, handler = scripted_server
    handler.script.extend([(401, {"err": "unauthorized"}), (200, {"text": "late"})])
    with closing(ConnectionPool(url, 5.0)) as pool, pytest.raises(ProtocolError):
        call_http("p", _endpoint(url, retries=3), pool)
    assert len(handler.requests_seen) == 1


def test_call_http_retries_too_many_requests(scripted_server):
    url, handler = scripted_server
    handler.script.extend([(429, {"err": "slow down"}), (200, {"text": "fine"})])
    with closing(ConnectionPool(url, 5.0)) as pool:
        out = call_http("p", _endpoint(url, retries=3), pool)
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
# keep-alive connections (HTTP/1.1 endpoint)
# ---------------------------------------------------------------------------


def test_concurrent_calls_share_few_connections(keepalive_server):
    url, server = keepalive_server
    solver = HTTPSolver(_endpoint(url), PromptTemplate("echo", "{instruction}{context}"))
    failures = []

    def worker(t):
        for j in range(25):
            prompt = f"thread {t} call {j}"
            out = solver.solve(prompt, "")
            if out.raw_text != prompt or out.attempt_count != 1:
                failures.append((prompt, out.raw_text, out.attempt_count))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
        solver.close()
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert server.requests == 100
    assert server.connections <= 4


def test_idle_connection_closed_by_server_is_resent_without_backoff(keepalive_server,
                                                                      monkeypatch):
    url, server = keepalive_server
    server.drop_after_reply = True  # closes without a Connection: close header
    monkeypatch.setattr(solver_module, "BACKOFF_BASE", 5.0)
    endpoint = EndpointConfig(url=url, max_retries=3, timeout=5.0)
    pool = ConnectionPool(url, endpoint.timeout)
    start = time.monotonic()
    try:
        outs = [call_http(f"p{i}", endpoint, pool) for i in range(5)]
    finally:
        pool.close()
    assert [out.raw_text for out in outs] == [f"p{i}" for i in range(5)]
    assert [out.attempt_count for out in outs] == [1] * 5
    assert time.monotonic() - start < 2.5  # one backoff would sleep 5 s
    assert server.connections == 5


def test_non_json_reply_is_protocol_error_after_one_request(keepalive_server):
    url, server = keepalive_server
    server.script.append((b"not json", 8))
    with closing(ConnectionPool(url, 5.0)) as pool, pytest.raises(ProtocolError):
        call_http("p", _endpoint(url, retries=3), pool)
    assert server.requests == 1


def test_reply_cut_short_is_retried_as_transport_failure(keepalive_server):
    url, server = keepalive_server
    pool = ConnectionPool(url, 5.0)
    try:
        assert call_http("first", _endpoint(url), pool).attempt_count == 1
        server.script.append((b'{"text": "cut', 40))  # on the reused connection
        out = call_http("second", _endpoint(url), pool)
    finally:
        pool.close()
    assert out.raw_text == "second"
    assert out.attempt_count == 2
    assert server.requests == 3


@pytest.mark.parametrize("field,value", [
    ("max_tokens", 0), ("temperature", -1.0), ("temperature", float("nan")),
    ("temperature", float("inf")), ("timeout", float("inf")),
])
def test_endpoint_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ConfigError, match=field):
        EndpointConfig(url="http://127.0.0.1:9/", **{field: value})


@pytest.mark.parametrize("config,field,value", [
    (EndpointConfig, "max_retries", 2.5), (EndpointConfig, "max_tokens", 1.5),
    (EndpointConfig, "timeout", True), (EndpointConfig, "url", None),
    (OracleSolverConfig, "require_connective", "no"),
    (OracleSolverConfig, "coverage_threshold", "0.8"),
])
def test_solver_configs_reject_values_of_the_wrong_json_type(config, field, value):
    kwargs = {"url": "http://127.0.0.1:9/"} if config is EndpointConfig else {}
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        config(**{**kwargs, field: value})


@pytest.mark.parametrize("url", ["ftp://host/", "localhost:8000", "http:///x", "http://h:port/"])
def test_endpoint_must_be_an_http_url(url):
    with pytest.raises(ConfigError):
        ConnectionPool(url, 1.0)


NO_REQUESTS_CHILD = """
import sys
import hilite, hilite.cli
from hilite.solver import EndpointConfig, HTTPSolver, TEMPLATES
url = sys.argv[1]
solver = HTTPSolver(EndpointConfig(url=url, timeout=5.0), TEMPLATES["basic"])
assert solver.solve("q", "ctx").raw_text
assert "requests" not in sys.modules, "requests was imported"
"""


def test_http_clients_do_not_import_requests(keepalive_server):
    url, server = keepalive_server
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", NO_REQUESTS_CHILD, url],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert server.requests == 1
    for path in (root / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            assert not any(n.split(".")[0] == "requests" for n in names), path


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
    mask = np.zeros(len(ctx), dtype=np.uint8)
    mask[list(select)] = 1
    emphasized = inject(ctx, coalesce(mask, ctx, delta), fmt)
    return inst, emphasized


def test_oracle_unpaired_markers_reply_without_answer():
    inst, emphasized = tagged_instance([4, 5, 6])
    out = OracleSolver(OracleSolverConfig()).solve("q", emphasized + " <end_important>", inst)
    with pytest.raises(ParseError):
        parse_answer(out.raw_text)


def test_oracle_full_coverage_returns_gold():
    inst, emphasized = tagged_instance([4, 5, 6])
    out = OracleSolver(OracleSolverConfig(coverage_threshold=0.8)).solve("q", emphasized, inst)
    assert out.raw_text == "<answer>7777</answer>"


def test_oracle_no_tags_returns_distractor():
    inst, _ = tagged_instance([])
    out = OracleSolver(OracleSolverConfig(coverage_threshold=0.8)).solve("q", inst.context, inst)
    assert out.raw_text == "<answer>unknown</answer>"


def test_oracle_half_coverage_at_threshold_is_correct():
    # evidence bytes: "e4 e5 e6" = 8; tokens 4..5 cover "e4 e5" = 5 of 8,
    # so cover exactly half by shaving: use spans over e4 only -> 2/8 < 0.5;
    # tokens 4,5 -> 5/8 >= 0.5 (the >= comparison is what matters here)
    inst, emphasized = tagged_instance([4, 5])
    cfg = OracleSolverConfig(coverage_threshold=0.5)
    out = OracleSolver(cfg).solve("q", emphasized, inst)
    assert out.raw_text == "<answer>7777</answer>"


def test_oracle_exact_threshold_boundary():
    # construct exactly half: evidence "ab" (2 bytes), tag only "a"
    context = "a b"
    ctx = tokenize(context)
    inst = make_instance(context=context, gold="g", evidence_spans=[(0, 1), (2, 3)])
    mask = np.zeros(len(ctx), dtype=np.uint8)
    mask[0] = 1
    emphasized = inject(ctx, coalesce(mask, ctx, 0), DEFAULT_FORMAT)
    out = OracleSolver(OracleSolverConfig(coverage_threshold=0.5)).solve("q", emphasized, inst)
    assert out.raw_text == "<answer>g</answer>"


def test_oracle_monotone_in_coverage():
    cfg = OracleSolverConfig(coverage_threshold=0.6)
    rewards = []
    for select in ([], [4], [4, 5], [4, 5, 6]):
        inst, emphasized = tagged_instance(select)
        out = OracleSolver(cfg).solve("q", emphasized, inst)
        rewards.append(1.0 if out.raw_text == "<answer>7777</answer>" else 0.0)
    assert rewards == sorted(rewards)


def test_oracle_marker_format_agnostic_given_format():
    fmt = BUILTIN_FORMATS["markdown-bold"]
    inst, emphasized = tagged_instance([4, 5, 6], fmt=fmt)
    out = OracleSolver(OracleSolverConfig(0.8), fmt).solve("q", emphasized, inst)
    assert out.raw_text == "<answer>7777</answer>"


def test_bridging_oracle_rejects_pruned_input():
    # pruned input: only the evidence text, tagged or not -> no connective bytes
    inst, _ = tagged_instance([4, 5, 6])
    cfg = OracleSolverConfig(coverage_threshold=0.8, require_connective=True)
    pruned = "e4 e5 e6"
    out = OracleSolver(cfg).solve("q", pruned, inst)
    assert out.raw_text == "<answer>unknown</answer>"
    # full context with tags still passes
    _, emphasized = tagged_instance([4, 5, 6])
    out = OracleSolver(cfg).solve("q", emphasized, inst)
    assert out.raw_text == "<answer>7777</answer>"


def test_evidence_coverage_destructive_input():
    inst, _ = tagged_instance([4, 5, 6])
    # tagged but pruned-down input: evidence text enclosed, context removed
    emphasized = "<start_important>e4 e5 e6<end_important>"
    coverage, connective = evidence_coverage(
        emphasized, inst.context.encode("utf-8"), inst.evidence_spans, DEFAULT_FORMAT
    )
    assert coverage == 1.0
    assert not connective


# The regions x evidence double loop that the interval product replaced,
# kept as the reference.
def reference_covered_bytes(evidence_spans, regions):
    covered = 0
    for es, ee in evidence_spans:
        for ms, me in regions:
            lo, hi = max(es, ms), min(ee, me)
            if hi > lo:
                covered += hi - lo
    return covered


def _intervals(n_bytes):
    """Sorted, disjoint half-open ranges in [0, n_bytes]; ranges may touch
    and may be empty."""
    def pair_up(cuts):
        cuts = sorted(cuts)
        return list(zip(cuts[0::2], cuts[1::2]))

    return st.lists(st.integers(0, n_bytes), max_size=12).map(pair_up)


@st.composite
def coverage_cases(draw):
    n_bytes = draw(st.integers(0, 40))
    return n_bytes, draw(_intervals(n_bytes)), draw(_intervals(n_bytes))


@given(coverage_cases())
@example((10, [], []))  # no region, no evidence
@example((10, [(2, 5)], []))  # no evidence
@example((10, [], [(2, 5)]))  # no region
@example((10, [(0, 3), (3, 7)], [(2, 4), (7, 9)]))  # touching ranges
@example((10, [(1, 9)], [(2, 3), (4, 8)]))  # evidence inside a region
@example((10, [(3, 4), (5, 6)], [(0, 10)]))  # regions inside the evidence
@example((10, [(2, 8)], [(4, 4), (5, 7)]))  # zero-length evidence
@example((10, [(4, 4)], [(3, 6)]))  # empty region
@settings(max_examples=500, deadline=None)
def test_evidence_coverage_matches_nested_loop(case):
    n_bytes, regions, evidence = case
    fmt = DEFAULT_FORMAT
    context = "".join(chr(ord("a") + i % 26) for i in range(n_bytes))
    pieces, cursor = [], 0
    for start, end in regions:
        pieces += [context[cursor:start], fmt.open, context[start:end], fmt.close]
        cursor = end
    emphasized = "".join(pieces) + context[cursor:]
    total = sum(end - start for start, end in evidence)
    coverage, connective = evidence_coverage(emphasized, context.encode("utf-8"), evidence, fmt)
    if total == 0:
        assert (coverage, connective) == (0.0, n_bytes > 0)
    else:
        assert coverage == reference_covered_bytes(evidence, regions) / total
        assert type(coverage) is float
        assert connective == (n_bytes > total)


def test_oracle_solver_class_requires_evidence():
    from hilite.errors import ConfigError

    solver = OracleSolver(OracleSolverConfig())
    inst = make_instance(evidence_spans=None)
    with pytest.raises(ConfigError):
        solver.solve("q", "text", inst)
