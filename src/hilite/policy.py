"""Token-importance scoring.

The native scorer maps per-token feature vectors through a standardized
linear layer and a temperature-controlled sigmoid:

    p_i = sigmoid((w . standardize(x_i) + b) / tau)

which defines a Bernoulli-factorized selection policy over the context's
tokens (the paper's index set omega, with no token excluded).
Probabilities are clamped away from 0/1 so log-likelihood and entropy stay
finite.  :func:`forward` is the one place that evaluates this map, on rows
that are already standardized; :func:`score` standardizes raw features and
calls it, and the training objective reads its result.  The training loss
and its gradient with respect to (w, b) live in one place,
:func:`hilite.trainer.objective`, and run over every row they are given.

Values pass between layers as plain arrays: :func:`featurize` returns the
(n_tokens, 7) float64 feature matrix, and :func:`score` (like the external
scorer) returns the vector of clamped per-token probabilities.

Feature standardization statistics live inside ScorerParams and are frozen
at initialization (computed once from the training split, which
:func:`init_params` leaves standardized), keeping the policy stationary
during optimization.

An external scorer can replace the native one at inference time, speaking a
small line-delimited JSON protocol over a child process's standard streams
(:class:`SubprocessScorer`): request
``{"op": "score", "query": q, "tokens": [...]}``, response
``{"probs": [...]}`` with one probability per token.
"""

from __future__ import annotations

import json
import math
import os
import select
import subprocess
import time
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError, StructureError
from .tokenization import TokenizedContext, tokenize

PROB_CLAMP = 1e-6
NORM_EPS = 1e-8
CLOSE_GRACE_S = 5.0  # SubprocessScorer.close waits this long before SIGKILL
_VAR_BLOCK = 16_384  # rows init_params squares at a time

FEATURE_NAMES = (
    "query_unigram_overlap",
    "query_bigram_overlap",
    "idf",
    "relative_position",
    "token_length",
    "is_numeric",
    "sentence_initial",
)
FEATURE_DIM = len(FEATURE_NAMES)

_SENTENCE_FINAL = {".", "!", "?"}
_LENGTH_CAP = 20


@dataclass
class ScorerParams:
    """Learnable state of the native scorer."""

    w: np.ndarray
    b: float
    tau: float
    norm_mean: np.ndarray
    norm_var: np.ndarray

    def __post_init__(self):
        if self.tau <= 0:
            raise StructureError("tau must be > 0")
        if np.any(self.norm_var < 0):
            raise StructureError("norm_var components must be >= 0")

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def to_dict(self) -> dict:
        return {
            "w": self.w.tolist(),
            "b": float(self.b),
            "tau": float(self.tau),
            "norm_mean": self.norm_mean.tolist(),
            "norm_var": self.norm_var.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScorerParams":
        return cls(
            w=np.asarray(d["w"], dtype=np.float64),
            b=float(d["b"]),
            tau=float(d["tau"]),
            norm_mean=np.asarray(d["norm_mean"], dtype=np.float64),
            norm_var=np.asarray(d["norm_var"], dtype=np.float64),
        )


def build_idf_table(contexts: list[TokenizedContext]) -> dict[str, float]:
    """Smoothed inverse document frequency over casefolded token texts.

    idf(t) = ln((1 + N) / (1 + df(t))); words absent from the table are
    assigned the featurizer's ceiling at lookup time, so unseen words read
    as maximally informative.
    """
    n = len(contexts)
    df: dict[str, int] = {}
    for ctx in contexts:
        for word in {text.casefold() for text in ctx.vocab}:
            df[word] = df.get(word, 0) + 1
    return {w: math.log((1 + n) / (1 + c)) for w, c in sorted(df.items())}


def featurize(
    query: str,
    ctx: TokenizedContext,
    idf_table: dict[str, float],
    idf_ceiling: float = 6.0,
) -> np.ndarray:
    """Compute the fixed 7-dimensional feature vector for every token, as
    an (n_tokens, 7) float64 matrix.

    Features are independent of any mask or budget: query unigram/bigram
    overlap, idf, relative position i/L, capped token length, numeric flag,
    and sentence-initial flag.  Each lexical feature is computed once per
    entry of the context's vocabulary (or casefolded word) and gathered by
    ``ctx.text_ids``; query bigrams are matched as integer pair codes.
    """
    n = len(ctx)
    x = np.zeros((n, FEATURE_DIM), dtype=np.float64)
    if n == 0:
        return x
    vocab = ctx.vocab
    text_id = ctx.text_ids.astype(np.intp)  # gathers run faster on intp than int32 indices
    # distinct casefolded word -> word id
    folded = [t.casefold() for t in vocab]
    words = {w: i for i, w in enumerate(dict.fromkeys(folded))}
    word_of_text = np.fromiter(map(words.__getitem__, folded), dtype=np.int64, count=len(vocab))
    word_id = word_of_text[text_id]
    n_words = len(words)

    q = tokenize(query)
    q_words = [q.vocab[i].casefold() for i in q.text_ids.tolist()]
    q_unigrams = set(q_words)
    q_pairs = np.fromiter(
        {words[a] * n_words + words[b]
         for a, b in zip(q_words, q_words[1:]) if a in words and b in words},
        dtype=np.int64,
    )
    pair_hit = np.isin(word_id[:-1] * n_words + word_id[1:], q_pairs)
    bigram = np.zeros(n, dtype=bool)
    bigram[1:] = pair_hit  # token i ends a query bigram ...
    bigram[:-1] |= pair_hit  # ... or starts one

    def per_word(values, dtype):
        return np.fromiter(values, dtype=dtype, count=n_words)[word_id]

    def per_text(values, dtype):
        return np.fromiter(values, dtype=dtype, count=len(vocab))[text_id]

    x[:, 0] = per_word((w in q_unigrams for w in words), bool)
    x[:, 1] = bigram
    x[:, 2] = per_word((idf_table.get(w, idf_ceiling) for w in words), np.float64)
    x[:, 3] = np.arange(n) / n
    x[:, 4] = per_text((min(len(t), _LENGTH_CAP) for t in vocab), np.int64) / _LENGTH_CAP
    x[:, 5] = per_text((t.isdigit() for t in vocab), bool)
    x[0, 6] = 1.0
    x[1:, 6] = per_text((t in _SENTENCE_FINAL for t in vocab), bool)[:-1]
    return x


def init_params(
    feature_matrix: np.ndarray,
    tau: float = 1.0,
    init_prob: float | None = None,
) -> ScorerParams:
    """Fresh scorer parameters with standardization statistics frozen from
    ``feature_matrix`` (C-ordered stack of training-split features), which is
    left standardized by them, in place: the rows :func:`forward` reads.

    The statistics are each column's mean and population variance.  The
    matrix is centred in place after the mean is taken, the variance is the
    column sum of the squared centred rows over n, and the centred rows are
    then scaled in place; the statistics and rows equal numpy's ``mean`` and
    ``var`` and :func:`standardize` bit for bit.

    The squares are taken ``_VAR_BLOCK`` rows at a time, never as a copy of
    the whole matrix.  Each block is squared into rows 1.. of a small buffer
    whose row 0 holds the column sums so far, and the buffer is summed over
    axis 0.  numpy sums a C-ordered matrix over axis 0 one row after the
    other, each added to the sum of the rows before it, and so does this
    running sum: the variance keeps the bits of a one-shot sum of squares.

    w starts at zero.  When ``init_prob`` is given, the bias starts at
    tau * logit(init_prob) so the initial policy selects at that rate;
    the trainer passes the budget fraction gamma, which keeps the initial
    expected highlight fraction on budget and the length penalty at zero.
    """
    d = feature_matrix.shape[1]
    b = 0.0
    if init_prob is not None:
        if not 0.0 < init_prob < 1.0:
            raise StructureError("init_prob must lie in (0, 1)")
        b = tau * math.log(init_prob / (1.0 - init_prob))
    norm_mean = feature_matrix.mean(axis=0)
    feature_matrix -= norm_mean
    n = feature_matrix.shape[0]
    acc = np.zeros((min(n, _VAR_BLOCK) + 1, d))
    for start in range(0, n, _VAR_BLOCK):
        block = feature_matrix[start:start + _VAR_BLOCK]
        np.square(block, out=acc[1:len(block) + 1])
        acc[0] = acc[:len(block) + 1].sum(axis=0)
    norm_var = acc[0] / n
    feature_matrix /= np.sqrt(norm_var + NORM_EPS)
    return ScorerParams(
        w=np.zeros(d, dtype=np.float64),
        b=b,
        tau=tau,
        norm_mean=norm_mean,
        norm_var=norm_var,
    )


def standardize(feats: np.ndarray, params: ScorerParams) -> np.ndarray:
    """Per-feature mean/variance standardization with frozen statistics."""
    if feats.ndim != 2 or feats.shape[1] != params.dim:
        raise StructureError(
            f"feature matrix of shape {feats.shape} != (n, {params.dim})"
        )
    return (feats - params.norm_mean) / np.sqrt(params.norm_var + NORM_EPS)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) otherwise: exp never
    overflows, as it only ever sees -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass
class Forward:
    """Standardized rows ``x``, clamped probabilities ``p``, and ``interior``:
    true where p lies strictly inside the clamp (only those carry gradient)."""

    x: np.ndarray
    p: np.ndarray
    interior: np.ndarray


def forward(x: np.ndarray, params: ScorerParams) -> Forward:
    """Evaluate p_i = sigmoid((w . x_i + b) / tau), clamped, on every row of
    the standardized rows ``x`` (see :func:`standardize`)."""
    p_raw = _sigmoid((x @ params.w + params.b) / params.tau)
    return Forward(
        x=x,
        p=np.clip(p_raw, PROB_CLAMP, 1.0 - PROB_CLAMP),
        interior=(p_raw > PROB_CLAMP) & (p_raw < 1.0 - PROB_CLAMP),
    )


def score(feats: np.ndarray, params: ScorerParams) -> np.ndarray:
    """Clamped selection probabilities for every token, from raw features."""
    return forward(standardize(feats, params), params).p


def log_prob(masks: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Bernoulli log-likelihood of each row of the (G, n) mask stack
    ``masks`` under ``probs``, as a length-G array.

    log p and log(1 - p) are evaluated once for all G rows, and each mask
    bit picks one of the two; each row is then summed with its own 1-D sum,
    so row j equals the log-likelihood of ``masks[j]`` alone bit for bit.
    The picked terms equal ``m log p + (1 - m) log(1 - p)`` for 0/1 masks
    bit for bit, as the product dropped is always -0.0.  Always finite
    (probabilities are clamped) and <= 0.
    """
    log_p, log_q = np.log(probs), np.log1p(-probs)
    terms = np.where(np.asarray(masks, dtype=bool), log_p, log_q)
    return np.array([np.sum(row) for row in terms])


def entropy(probs: np.ndarray) -> float:
    """Token-wise Bernoulli entropy averaged over every token, in [0, ln 2]
    (0.0 when there are none)."""
    if probs.size == 0:
        return 0.0
    h = -(probs * np.log(probs) + (1.0 - probs) * np.log1p(-probs))
    return float(h.mean())


# ---------------------------------------------------------------------------
# External scorer protocol (inference-only adapters)
# ---------------------------------------------------------------------------


def _validate_probs(payload: dict, n_tokens: int) -> np.ndarray:
    if not isinstance(payload, dict) or "probs" not in payload:
        raise ProtocolError("scorer response missing 'probs'")
    probs = payload["probs"]
    if not isinstance(probs, list) or len(probs) != n_tokens:
        raise ProtocolError(
            f"scorer returned {len(probs) if isinstance(probs, list) else 'non-list'}"
            f" probabilities for {n_tokens} tokens"
        )
    try:
        arr = np.asarray(probs, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # strings, ragged lists
        raise ProtocolError(f"scorer returned non-numeric probabilities: {exc}") from exc
    if arr.ndim != 1:
        raise ProtocolError("scorer returned nested probability lists")
    if any(isinstance(v, bool) for v in probs):
        raise ProtocolError("scorer returned booleans, not probabilities")
    if not np.all(np.isfinite(arr)):
        raise ProtocolError("scorer returned non-finite probabilities")
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ProtocolError("scorer returned probabilities outside [0, 1]")
    return np.clip(arr, PROB_CLAMP, 1.0 - PROB_CLAMP)


def _parse_reply(data: bytes) -> dict:
    try:
        return json.loads(data)
    except ValueError as exc:  # not JSON, or not in a Unicode encoding
        raise ProtocolError(f"scorer sent invalid JSON: {exc}") from exc


class SubprocessScorer:
    """Line-delimited JSON scorer over a child process's stdin/stdout.

    Each call gives the child ``timeout`` seconds to take the request and
    send its reply line; a child that stays silent longer is a
    ProtocolError, not a hang.
    """

    def __init__(self, argv: list[str], timeout: float = 30.0):
        self.timeout = timeout
        self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._pending = b""  # bytes the child sent after its last reply line

    def score_tokens(self, query: str, tokens: list[str]) -> np.ndarray:
        request = json.dumps({"op": "score", "query": query, "tokens": tokens})
        deadline = time.monotonic() + self.timeout
        try:
            self._write(request.encode("utf-8") + b"\n", deadline)
            line = self._read_line(deadline)
        except OSError as exc:  # BrokenPipeError and friends
            raise ProtocolError(f"scorer process unavailable: {exc}") from exc
        return _validate_probs(_parse_reply(line), len(tokens))

    def _wait(self, fd: int, deadline: float, write: bool) -> None:
        """Block until ``fd`` is ready, or raise ProtocolError at ``deadline``."""
        rlist, wlist = ([], [fd]) if write else ([fd], [])
        remaining = max(0.0, deadline - time.monotonic())
        readable, writable, _ = select.select(rlist, wlist, [], remaining)
        if not (readable or writable):
            raise ProtocolError(f"scorer process did not answer within {self.timeout} s")

    def _write(self, data: bytes, deadline: float) -> None:
        fd = self._proc.stdin.fileno()
        view = memoryview(data)
        while view:
            self._wait(fd, deadline, write=True)
            view = view[os.write(fd, view):]

    def _read_line(self, deadline: float) -> bytes:
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._pending:
            self._wait(fd, deadline, write=False)
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise ProtocolError("scorer process closed its stream")
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line

    def close(self) -> None:
        """Stop the child: SIGTERM, then SIGKILL after ``CLOSE_GRACE_S``.
        Always reaps it and never raises."""
        for stream in (self._proc.stdin, self._proc.stdout):
            try:
                stream.close()
            except OSError:  # a dead child leaves unflushed input behind
                pass
        self._proc.terminate()
        try:
            self._proc.wait(timeout=CLOSE_GRACE_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

