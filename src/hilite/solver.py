"""Frozen-solver clients: prompt rendering, output parsing, transport.

The solver is a black box that maps (query, emphasized context) to text.
This module renders the consistent prompt template, talks to an HTTP
endpoint with bounded retries, parses the two structured output contracts
(short answer inside <answer>...</answer>, ranking inside
<FINAL_JSON>...</FINAL_JSON>), and provides deterministic in-process stand-ins
for desk-scale verification.

The HTTP transport uses only the standard library: a :class:`ConnectionPool`
keeps HTTP/1.1 connections open and hands them to whichever thread calls
next, so a training run reuses about one connection per concurrent rollout
instead of opening one per request.  ``https://`` URLs get TLS connections
(certificates verified against the system store); proxy settings in the
environment (``HTTP_PROXY``, ``NO_PROXY``) are not read, and redirects are
not followed.

In-process solvers:

* OracleSolver is the coverage oracle: it answers correctly iff
  the marker pairs (in its marker format) in the emphasized context
  enclose at least a configured fraction of the instance's gold evidence
  bytes.  A "bridging" variant additionally demands that at least one byte
  of non-evidence context survives in the input, which penalizes
  deletion-based selection the way connective-context loss does.
* ScriptedSolver replays canned responses (optionally failing first) for
  transport and parsing tests.

Unparseable or unreachable solver output is an episode-level event (zero
reward, flagged), never a crash.
"""

from __future__ import annotations

import functools
import http.client
import itertools
import json
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ConfigError,
    IntegrityError,
    ParseError,
    ProtocolError,
    SolverUnavailableError,
    TemplateError,
    json_typed,
)
from .markup import MarkerFormat, DEFAULT_FORMAT, scan_markers

CONTEXT_PLACEHOLDER = "{context}"
INSTRUCTION_PLACEHOLDER = "{instruction}"

ANSWER_TAG = "answer-tag"
FINAL_JSON = "final-json"
FREE_TEXT = "free-text"

_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)
_FINAL_JSON_RE = re.compile(r"<FINAL_JSON>(.*?)</FINAL_JSON>", re.DOTALL)
_PLACEHOLDER_RE = re.compile(
    re.escape(CONTEXT_PLACEHOLDER) + "|" + re.escape(INSTRUCTION_PLACEHOLDER)
)
_RETRIED_4XX = (408, 429)  # request timeout, too many requests
_CONNECTION_CLASSES = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}
# what a reused connection raises when the server closed it while idle
_STALE_CONNECTION = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)
# refused, reset, timed out, cut short or garbled: retried like 408/429/5xx
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)
# seconds :func:`call_http` sleeps after its first failed attempt, doubling after each
BACKOFF_BASE = 0.5


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt body with exactly one context and one instruction placeholder."""

    name: str
    body: str
    output_contract: str = FREE_TEXT

    def __post_init__(self):
        for ph in (CONTEXT_PLACEHOLDER, INSTRUCTION_PLACEHOLDER):
            if self.body.count(ph) != 1:
                raise TemplateError(
                    f"template {self.name!r} must contain exactly one {ph}"
                )


TEMPLATES: dict[str, PromptTemplate] = {
    "basic": PromptTemplate(
        name="basic",
        body=(
            "[CONTEXT]\n"
            "{context}\n"
            "(The <start_important>...<end_important> tags indicate emphasized evidence.)\n"
            "\n"
            "[INSTRUCTION]\n"
            "Answer the query using the context above.\n"
            "{instruction}\n"
        ),
        output_contract=FREE_TEXT,
    ),
    "qa": PromptTemplate(
        name="qa",
        body=(
            "You are a helpful, precise QA assistant.\n"
            "Follow the format EXACTLY:\n"
            "You MUST output ONLY the short answer phrase inside <answer>...</answer>.\n"
            "No explanation, no extra words.\n"
            "Some parts of the EVIDENCE are wrapped in <start_important> ... <end_important>.\n"
            "\n"
            "QUESTION:\n"
            "{instruction}\n"
            "\n"
            "EVIDENCE:\n"
            "{context}\n"
            "\n"
            "OUTPUT:\n"
        ),
        output_contract=ANSWER_TAG,
    ),
    "rerank": PromptTemplate(
        name="rerank",
        body=(
            "Given a user's history summary and a list of candidate items, re-rank the"
            " candidates according to their likelihood of being the next item of interest"
            " to the user based on the user's historical interactions. Each entry should"
            ' contain an "id" and a "score" reflecting the predicted relevance of the'
            " candidate to the user. Ensure that the JSON is well-formed and encapsulated"
            " within <FINAL_JSON> tags. Some parts of the history are wrapped in"
            " <start_important> ... <end_important>. Treat those spans as especially"
            " important signals about the user preferences.\n"
            "\n"
            "Example Final JSON Output:\n"
            "\n"
            "<FINAL_JSON>\n"
            '[{"id": 1,"score": 8.5}, {"id":2,"score":6.0}, {"id": 10, "score": 0.7}]\n'
            "</FINAL_JSON>\n"
            "\n"
            "[USER_HISTORY_SUMMARY]\n"
            "{context}\n"
            "\n"
            "[CANDIDATES]\n"
            "{instruction}\n"
            "\n"
            "Final JSON Output:\n"
        ),
        output_contract=FINAL_JSON,
    ),
}


def render_prompt(query: str, emphasized_context: str, template: PromptTemplate) -> str:
    """Substitute both placeholders.

    Single pass over the template body: substituted material is inserted
    verbatim (a callable replacement, so backslashes are not expanded) and
    never re-scanned, so contexts containing brace markers or
    placeholder-looking text cannot corrupt the template.
    """
    values = {CONTEXT_PLACEHOLDER: emphasized_context, INSTRUCTION_PLACEHOLDER: query}
    return _PLACEHOLDER_RE.sub(lambda m: values[m.group(0)], template.body)


@dataclass
class SolverOutput:
    """Raw solver text plus transport bookkeeping.  ``latency`` is the
    seconds the call spent on its transport, retries and back-off included,
    and 0.0 for a solver that answers in-process; :func:`hilite.trainer.train`
    reads it to decide whether a step's calls are worth overlapping.
    ``attempt_count`` is the number of network attempts the reply took."""

    raw_text: str
    latency: float = 0.0
    attempt_count: int = 1


def parse_answer(raw: str) -> str:
    """Extract the first well-formed <answer>...</answer> payload."""
    m = _ANSWER_RE.search(raw)
    if not m:
        raise ParseError("no <answer>...</answer> payload found")
    return m.group(1).strip()


def parse_final_json(raw: str) -> list:
    """Extract the first <FINAL_JSON> block and return candidate ids sorted
    by score descending (ties: id ascending).  An id is a string or an
    integer, as :attr:`Instance.gold` holds, and a score a finite JSON
    number; ``true`` and ``false`` are neither.  Other ids and scores,
    duplicate ids, and a string and an integer id that tie on score (they
    do not compare) are parse errors, so such a reply is a flagged
    episode."""
    m = _FINAL_JSON_RE.search(raw)
    if not m:
        raise ParseError("no <FINAL_JSON>...</FINAL_JSON> payload found")
    try:
        records = json.loads(m.group(1))
    except json.JSONDecodeError as exc:
        raise ParseError(f"FINAL_JSON payload is not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise ParseError("FINAL_JSON payload must be a JSON array")
    scored = []
    for rec in records:
        if not isinstance(rec, dict) or "id" not in rec or "score" not in rec:
            raise ParseError(f"malformed FINAL_JSON record: {rec!r}")
        item_id = rec["id"]
        if isinstance(item_id, bool) or not isinstance(item_id, (str, int)):
            raise ParseError(f"id is neither a string nor an integer in record: {rec!r}")
        try:
            scored.append((item_id, json_typed(rec["score"], float, "score")))
        except ConfigError as exc:
            raise ParseError(f"{exc} in record: {rec!r}") from exc
    try:
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
    except TypeError as exc:
        raise ParseError(f"tied ids mix strings and integers: {exc}") from exc
    ids = [item_id for item_id, _ in scored]
    if len(set(ids)) != len(ids):
        raise ParseError("FINAL_JSON ranking contains duplicate ids")
    return ids


def parse_output(raw: str, contract: str):
    """Dispatch on the template's output contract."""
    if contract == ANSWER_TAG:
        return parse_answer(raw)
    if contract == FINAL_JSON:
        return parse_final_json(raw)
    return raw.strip()


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------


@dataclass
class EndpointConfig:
    """Where and how to reach a generation endpoint.

    Wire format: POST {"prompt", "max_tokens", "temperature"} (+ Authorization
    header when auth_token is set), response {"text": str}.  ``timeout``
    bounds each socket operation (connect, send, each read), not a whole
    request.  Every field must have the JSON type in
    :data:`ENDPOINT_FIELD_TYPES`.
    """

    url: str
    auth_token: str = ""
    timeout: float = 30.0
    max_retries: int = 3
    max_tokens: int = 256
    temperature: float = 0.0

    def __post_init__(self):
        for name, kind in ENDPOINT_FIELD_TYPES.items():
            setattr(self, name, json_typed(getattr(self, name), kind, name))
        if self.timeout <= 0:
            raise ConfigError("timeout must be a finite number > 0")
        if self.max_retries < 1:
            raise ConfigError("max_retries must be >= 1")
        if self.max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")
        if self.temperature < 0:
            raise ConfigError(f"temperature must be a finite number >= 0, "
                              f"not {self.temperature!r}")


# every EndpointConfig field -> its JSON type
ENDPOINT_FIELD_TYPES = {f.name: type(f.default) for f in fields(EndpointConfig)} | {"url": str}


def split_endpoint(url: str) -> urllib.parse.SplitResult:
    """The parts of ``url``; ConfigError unless it is an ``http://`` or
    ``https://`` URL with a host and, if it names a port, a number in range."""
    try:
        parts = urllib.parse.urlsplit(url)
        parts.port  # ValueError unless a number in range
        if parts.scheme in _CONNECTION_CLASSES and parts.hostname:
            return parts
    except ValueError:
        pass
    raise ConfigError(f"endpoint {url!r} is not an http:// or https:// URL")


class ConnectionPool:
    """Keep-alive HTTP/1.1 connections to the host of one ``http://`` or
    ``https://`` URL, shared by any number of threads.

    Idle connections wait on a stack under a lock.  :meth:`post` takes one
    (or opens a new one), sends the request, reads the whole reply and puts
    the connection back unless the reply closes it; any error closes it
    instead.  ``timeout`` bounds each socket operation.  Proxy settings in
    the environment are not read.
    """

    def __init__(self, url: str, timeout: float):
        parts = split_endpoint(url)
        self._connect = functools.partial(
            _CONNECTION_CLASSES[parts.scheme], parts.hostname, parts.port, timeout=timeout
        )
        self.path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """POST ``body`` and return the reply's status and whole body.

        A request that meets a reused connection closed by the server while
        it sat idle is sent again at once on a fresh connection; every other
        transport error propagates.
        """
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            reply = self._exchange(conn, body, headers, reused=True)
            if reply is not None:
                return reply
        return self._exchange(self._connect(), body, headers, reused=False)

    def _exchange(self, conn, body, headers, reused):
        """One request on ``conn``; None when a reused connection turned out
        to be closed before any response byte arrived."""
        resp = None
        try:
            conn.request("POST", self.path, body, headers)
            resp = conn.getresponse()
            data = resp.read()
        except BaseException as exc:
            conn.close()
            if reused and resp is None and isinstance(exc, _STALE_CONNECTION):
                return None
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return resp.status, data

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def call_http(prompt: str, endpoint: EndpointConfig, pool: ConnectionPool) -> SolverOutput:
    """POST the prompt, retrying transport failures with exponential backoff.

    At most ``max_retries`` network attempts are made; exhausting them
    raises SolverUnavailableError.  Connection errors, timeouts, 408, 429
    and 5xx responses are retried.  Any other non-2xx response, or a
    reachable endpoint returning an off-contract payload, raises
    ProtocolError immediately (retrying a deterministic rejection would not
    help).  Requests go over ``pool``'s connections.
    """
    headers = {"Content-Type": "application/json"}
    if endpoint.auth_token:
        headers["Authorization"] = f"Bearer {endpoint.auth_token}"
    body = json.dumps({
        "prompt": prompt,
        "max_tokens": endpoint.max_tokens,
        "temperature": endpoint.temperature,
    }).encode("utf-8")
    start = time.monotonic()
    failure = "no attempt allowed"
    for attempt in range(1, endpoint.max_retries + 1):
        try:
            status, data = pool.post(body, headers)
        except TRANSPORT_ERRORS as exc:
            failure = f"{type(exc).__name__}: {exc}"
        else:
            if status in _RETRIED_4XX or status >= 500:
                failure = f"HTTP {status}"
            else:
                return SolverOutput(
                    raw_text=_reply_text(endpoint.url, status, data),
                    latency=time.monotonic() - start,
                    attempt_count=attempt,
                )
        if attempt < endpoint.max_retries:
            time.sleep(BACKOFF_BASE * (2 ** (attempt - 1)))
    raise SolverUnavailableError(
        f"{endpoint.url} failed after {endpoint.max_retries} attempts: {failure}"
    )


def _reply_text(url: str, status: int, data: bytes) -> str:
    """The ``text`` string of a reply that is not retried, or ProtocolError."""
    if not 200 <= status < 300:
        raise ProtocolError(f"{url} rejected the request: HTTP {status}")
    try:
        payload = json.loads(data)
    except ValueError as exc:  # not JSON, or not in a Unicode encoding
        raise ProtocolError(f"solver returned invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "text" not in payload:
        raise ProtocolError("solver response missing 'text'")
    if not isinstance(payload["text"], str):
        raise ProtocolError(f"solver response 'text' is not a string: "
                            f"{json.dumps(payload['text'])}")
    return payload["text"]


class HTTPSolver:
    """Solver client rendering a template and calling an endpoint over the
    instance's own connection pool."""

    def __init__(self, endpoint: EndpointConfig, template: PromptTemplate):
        self.endpoint = endpoint
        self.template = template
        self.output_contract = template.output_contract
        self.pool = ConnectionPool(endpoint.url, endpoint.timeout)

    def solve(self, query: str, emphasized_context: str, instance=None) -> SolverOutput:
        prompt = render_prompt(query, emphasized_context, self.template)
        return call_http(prompt, self.endpoint, self.pool)

    def close(self) -> None:
        self.pool.close()


# ---------------------------------------------------------------------------
# Deterministic in-process solvers
# ---------------------------------------------------------------------------

# the oracle's reply when tagged coverage falls short
ORACLE_WRONG_ANSWER = "unknown"


@dataclass(frozen=True)
class OracleSolverConfig:
    """Coverage threshold plus the optional connective-context requirement,
    each of its default's JSON type."""

    coverage_threshold: float = 0.8
    require_connective: bool = False

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name,
                               json_typed(getattr(self, f.name), type(f.default), f.name))
        if not 0.0 <= self.coverage_threshold <= 1.0:
            raise ConfigError("coverage_threshold must lie in [0, 1]")


def _interval_array(pairs) -> np.ndarray:
    """(m, 2) int64 array of a list of (start, end) pairs.  ``np.fromiter``
    over the flattened pairs takes about 40% of the time ``np.asarray``
    takes on a list of tuples."""
    flat = itertools.chain.from_iterable(pairs)
    return np.fromiter(flat, dtype=np.int64, count=2 * len(pairs)).reshape(-1, 2)


def evidence_coverage(
    emphasized_context: str,
    original_context: bytes,
    evidence_spans: list[tuple[int, int]],
    fmt: MarkerFormat,
) -> tuple[float, bool]:
    """Fraction of gold-evidence bytes enclosed by marker pairs, plus whether
    any non-evidence context byte is present in the input.

    ``original_context`` is the UTF-8 encoding of the unmarked context,
    which the caller keeps (``Instance.tokens.source_bytes``), so it is not
    encoded again on every call.

    When stripping the markers reproduces the original context exactly, the
    enclosed regions map one-to-one onto original byte offsets and coverage
    is an interval intersection: one (evidence × regions) array of
    ``min(ends) - max(starts)`` overlaps, clipped at 0 and summed, with no
    Python loop over the regions.  Any interval lists work; overlapping
    evidence spans count each span.  Measured on a shared 2 vCPU Xeon
    (CPython 3.11), marker scan included: 0.61–0.81 ms for a 93 KB context
    with ≈400 tagged regions, 0.054–0.087 ms for a 2K-token one with ≈50.
    Inputs that
    altered the context (pruning, rewriting) cannot be localized, so their
    tagged regions count evidence only by exact substring containment.
    """
    stripped, regions = scan_markers(emphasized_context.encode("utf-8"), fmt)
    total = sum(end - start for start, end in evidence_spans)
    if total == 0:
        return 0.0, len(stripped) > 0
    if stripped == original_context:
        ev, tagged = _interval_array(evidence_spans), _interval_array(regions)
        overlap = (np.minimum.outer(ev[:, 1], tagged[:, 1])
                   - np.maximum.outer(ev[:, 0], tagged[:, 0]))
        covered = int(np.maximum(overlap, 0).sum())
        return covered / total, len(original_context) > total
    # destructive input: credit evidence spans whose bytes survived verbatim
    # inside some enclosed region
    covered = 0
    found = 0
    for es, ee in evidence_spans:
        chunk = original_context[es:ee]
        if any(chunk in stripped[ms:me] for ms, me in regions):
            covered += ee - es
        if chunk in stripped:
            found += ee - es
    return covered / total, len(stripped) > found


class OracleSolver:
    """Answers correctly iff tagged coverage of the gold evidence reaches the
    threshold (and, for the bridging variant, some connective context
    survives).  Fully deterministic; replies on the answer-tag contract.

    Emphasis whose markers do not pair up (for example because the source
    already contains a marker string) gets a reply without an answer, which
    parses as a flagged zero-reward episode."""

    output_contract = ANSWER_TAG

    def __init__(self, cfg: OracleSolverConfig, fmt: MarkerFormat = DEFAULT_FORMAT):
        self.cfg = cfg
        self.fmt = fmt

    def solve(self, query: str, emphasized_context: str, instance=None) -> SolverOutput:
        if instance is None or instance.evidence_spans is None:
            raise ConfigError(
                "oracle solver requires instances with gold evidence spans"
            )
        try:
            coverage, has_connective = evidence_coverage(
                emphasized_context, instance.tokens.source_bytes,
                instance.evidence_spans, self.fmt
            )
        except IntegrityError as exc:
            return SolverOutput(raw_text=f"unreadable emphasis markers: {exc}")
        correct = coverage >= self.cfg.coverage_threshold
        if self.cfg.require_connective:
            correct = correct and has_connective
        answer = str(instance.gold) if correct else ORACLE_WRONG_ANSWER
        return SolverOutput(raw_text=f"<answer>{answer}</answer>")

    def close(self) -> None:
        """Nothing to release; present so callers close any solver alike."""


class ScriptedSolver:
    """Replays canned raw responses; can fail the first n calls.

    Useful as an echo fixture and for retry/parsing tests.
    """

    def __init__(self, responses: list[str], fail_first: int = 0,
                 output_contract: str = ANSWER_TAG):
        self.responses = list(responses)
        self.fail_first = fail_first
        self.output_contract = output_contract
        self.calls = 0

    def solve(self, query: str, emphasized_context: str, instance=None) -> SolverOutput:
        self.calls += 1
        if self.calls <= self.fail_first:
            raise SolverUnavailableError("scripted failure")
        raw = self.responses[(self.calls - 1) % len(self.responses)]
        return SolverOutput(raw_text=raw)
