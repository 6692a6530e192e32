"""Shared fixtures: scriptable local HTTP endpoints, tiny datasets, and
reference helpers that several test modules check the program against."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import numpy as np
import pytest

from hilite import solver
from hilite.data import Instance
from hilite.policy import FEATURE_DIM, ScorerParams
from hilite.tokenization import tokens_touching
from hilite.trainer import OptimizerState, TrainConfig, save_checkpoint


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Serves queued (status, payload) entries, one per request."""

    script: list = []
    requests_seen: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        type(self).requests_seen.append(json.loads(body) if body else None)
        if type(self).script:
            status, payload = type(self).script.pop(0)
        else:
            status, payload = 200, {"text": "<answer>ok</answer>"}
        if status is None:  # simulate a dropped connection
            self.connection.close()
            return
        data = json.dumps(payload).encode() if not isinstance(payload, bytes) else payload
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def fast_backoff(monkeypatch):
    """Failed HTTP attempts back off 0.01 s, doubling, instead of 0.5 s."""
    monkeypatch.setattr(solver, "BACKOFF_BASE", 0.01)


@pytest.fixture
def scripted_server():
    """Yields (url, handler_class); tests fill handler_class.script."""
    _ScriptedHandler.script = []
    _ScriptedHandler.requests_seen = []
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/"
    yield url, _ScriptedHandler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 echo endpoint that keeps connections open.

    Replies ``{"text": prompt}``.  ``server.script`` entries, taken one per
    request, replace the reply by ``(body bytes, Content-Length)``, sent as
    they are before the connection is closed.  With ``server.drop_after_reply``
    every connection is closed after its reply, without a ``Connection:
    close`` header.
    """

    protocol_version = "HTTP/1.1"
    timeout = 10  # an idle connection's handler thread gives up after this

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.requests += 1
            scripted = self.server.script.pop(0) if self.server.script else None
        if scripted is not None:
            data, length = scripted
            self.close_connection = True
        else:
            data = json.dumps({"text": request["prompt"]}).encode()
            length = len(data)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(length))
        self.end_headers()
        self.wfile.write(data)
        if self.server.drop_after_reply:
            self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.fixture
def keepalive_server():
    """Yields (url, server); the server counts ``connections`` accepted and
    ``requests`` served, and tests may fill ``script`` or set
    ``drop_after_reply``."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    server.lock = threading.Lock()
    server.connections = server.requests = 0
    server.script = []
    server.drop_after_reply = False
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/"
    yield url, server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def make_instance(
    context: str = "alpha beta gamma delta epsilon",
    query: str = "find beta",
    gold: str = "beta",
    evidence_spans=None,
    inst_id: str = "t-0",
) -> Instance:
    return Instance(
        id=inst_id,
        query=query,
        context=context,
        gold=gold,
        evidence_spans=evidence_spans,
    )


def spans_to_mask(spans, n_tokens: int) -> np.ndarray:
    """Indicator mask of every token covered by the inclusive token spans
    (bridged tokens included)."""
    mask = np.zeros(n_tokens, dtype=np.uint8)
    for first, last in spans:
        mask[first : last + 1] = 1
    return mask


def gold_token_indices(ctx, gold_spans) -> set[int]:
    """Indices of tokens whose byte range intersects any gold span."""
    return set(np.flatnonzero(tokens_touching(ctx, gold_spans)).tolist())


# One field of a sound checkpoint altered: the keys that lead to it, and its
# new value.  Each must make load_checkpoint raise IntegrityError.
CORRUPT_CHECKPOINT_FIELDS = {
    "idf-string": (("featurizer", "idf_table", "word"), "x"),
    "idf-null": (("featurizer", "idf_table", "word"), None),
    "idf-bool": (("featurizer", "idf_table", "word"), True),
    "idf-infinite": (("featurizer", "idf_table", "word"), float("inf")),
    "idf-pairs": (("featurizer", "idf_table"), [["word", 1.5]]),
    "opt-state-pairs": (("opt_state",), [["m_w", [0.0] * FEATURE_DIM],
                                         ["v_w", [0.0] * FEATURE_DIM],
                                         ["m_b", 0.0], ["v_b", 0.0], ["step", 0]]),
    "w-short": (("params", "w"), [0.5] * 3),
    "w-nested": (("params", "w"), [[0.5] * FEATURE_DIM]),
    "norm-mean-short": (("params", "norm_mean"), [0.0] * 3),
    "norm-var-null": (("params", "norm_var"), [None] * FEATURE_DIM),
    "b-nan": (("params", "b"), float("nan")),
    "tau-infinite": (("params", "tau"), float("inf")),
    "idf-ceiling-nan": (("config", "idf_ceiling"), float("nan")),
    "gamma-true": (("config", "gamma"), True),
    "delta-fraction": (("config", "delta"), 2.5),
    "seed-text": (("config", "seed"), "x"),
    "config-list": (("config",), [1]),
    "config-string": (("config",), "x"),
    "config-null": (("config",), None),
    "m-w-short": (("opt_state", "m_w"), [1.0]),
    "v-w-nan": (("opt_state", "v_w"), [float("nan")] * FEATURE_DIM),
    "v-b-negative": (("opt_state", "v_b"), -1e-9),
    "m-b-infinite": (("opt_state", "m_b"), float("inf")),
    "step-negative": (("opt_state", "step"), -3),
    "step-bool": (("opt_state", "step"), True),
    "step-fraction": (("opt_state", "step"), 2.5),
    "b-true": (("params", "b"), True),
    "tau-string": (("params", "tau"), "1"),
    "w-numeric-string": (("params", "w"), ["0.5"] * FEATURE_DIM),
    "m-b-string": (("opt_state", "m_b"), "2"),
    "v-w-false": (("opt_state", "v_w"), [False] * FEATURE_DIM),
    "version-true": (("version",), True),
    "version-float": (("version",), 1.0),
}


def write_checkpoint(path, corrupt: str | None = None) -> None:
    """Write a sound native-scorer checkpoint to ``path``, with the field
    ``CORRUPT_CHECKPOINT_FIELDS[corrupt]`` altered when ``corrupt`` is given."""
    params = ScorerParams(w=np.full(FEATURE_DIM, 0.5), b=0.0, tau=1.0,
                          norm_mean=np.zeros(FEATURE_DIM), norm_var=np.ones(FEATURE_DIM))
    save_checkpoint(path, params, OptimizerState.zeros(FEATURE_DIM), TrainConfig(),
                    {"word": 1.5})
    if corrupt is not None:
        record = json.loads(path.read_text())
        (*keys, last), value = CORRUPT_CHECKPOINT_FIELDS[corrupt]
        field = record
        for key in keys:
            field = field[key]
        field[last] = value
        path.write_text(json.dumps(record))
