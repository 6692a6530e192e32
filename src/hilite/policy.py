"""Token-importance scoring.

The native scorer maps per-token feature vectors through a standardized
linear layer and a temperature-controlled sigmoid:

    p_i = sigmoid((w . standardize(x_i) + b) / tau)

which defines a Bernoulli-factorized selection policy over the context's
tokens (the paper's index set omega, with no token excluded).
Probabilities are clamped away from 0/1 so log-likelihood and entropy stay
finite.  :func:`forward` is the one place that evaluates this map, on rows
that are already standardized, and the training objective reads its result:
the loss and its gradient with respect to (w, b) live in one place,
:func:`hilite.trainer.objective`, and run over every row they are given.

A context's features come in two parts, :class:`FeatureParts`: a table with
one row per vocabulary entry for the four features that are functions of a
token's text, and the per-token flags; relative position comes from the
token count.  Training, evaluation and ``hilite highlight`` take one route
to the probabilities: the table is standardized once per entry, and the
gathered (n_tokens, 7) rows go to :func:`forward`.  :func:`featurize` (the
raw rows) and :func:`score` (their clamped probabilities) are the same map
on one raw matrix, which tests and demos read.

Feature standardization statistics live inside ScorerParams and are frozen
at initialization (computed once from the training split's raw rows by
:func:`init_params`, which keeps no copy of them), keeping the policy
stationary during optimization.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import ProtocolError, StructureError
from .tokenization import TokenizedContext, tokenize

PROB_CLAMP = 1e-6
NORM_EPS = 1e-8
CLOSE_GRACE_S = 5.0  # SubprocessScorer.close waits this long before SIGKILL
_VAR_BLOCK = 16_384  # rows init_params adds up at a time

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

    @property
    def norm_scale(self) -> np.ndarray:
        """What :func:`standardize` divides each column by."""
        return np.sqrt(self.norm_var + NORM_EPS)

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


@dataclass
class FeatureParts:
    """One context's feature rows in two parts, which :meth:`rows` joins.

    ``table`` has one row per vocabulary entry.  Its columns that are
    functions of the token's text (query unigram overlap, idf, capped
    length, numeric flag) are filled, and the other three are zero: those
    come from the token's place in the context.  ``text_ids`` is the
    context's own :attr:`TokenizedContext.text_ids`, the table row of each
    token.  ``bigram`` and ``initial`` hold each token's query-bigram and
    sentence-initial flag (bool), and relative position is i / n.
    :meth:`rows` writes a per-token value v as ``(v - mean) / scale``; raw
    parts have mean 0 and scale 1, and :meth:`standardized` parts carry the
    scorer's statistics.
    """

    table: np.ndarray
    text_ids: np.ndarray
    bigram: np.ndarray
    initial: np.ndarray
    mean: np.ndarray = field(default_factory=lambda: np.zeros(FEATURE_DIM))
    scale: np.ndarray = field(default_factory=lambda: np.ones(FEATURE_DIM))

    def standardized(self, params: ScorerParams) -> "FeatureParts":
        """These parts with the table standardized by ``params`` once per
        entry: standardization acts elementwise, so gathering a standardized
        entry gives the bits of standardizing the gathered row."""
        return FeatureParts(standardize(self.table, params), self.text_ids, self.bigram,
                            self.initial, params.norm_mean, params.norm_scale)

    def rows(self, out: np.ndarray | None = None) -> np.ndarray:
        """The context's (n, 7) rows, written into ``out`` when given: one
        gather of the table, then the three per-token columns.  Equals
        :func:`featurize`, or :func:`standardize` of it for standardized
        parts, bit for bit."""
        n = len(self.text_ids)
        # the ids always index the table, so mode="clip" changes no row; it
        # spares the copy of ``out`` that take makes under mode="raise"
        out = np.take(self.table, self.text_ids, axis=0, out=out, mode="clip")
        levels = (np.array([[0.0], [1.0]]) - self.mean) / self.scale  # a 0 and a 1 flag
        for col, flags in ((1, self.bigram), (6, self.initial)):
            out[:, col] = levels[0, col]
            np.copyto(out[:, col], levels[1, col], where=flags)
        position = np.arange(n, dtype=np.float64)
        position /= n
        position -= self.mean[3]
        position /= self.scale[3]
        out[:, 3] = position
        return out


def feature_parts(
    query: str,
    ctx: TokenizedContext,
    idf_table: dict[str, float],
    idf_ceiling: float = 6.0,
) -> FeatureParts:
    """The raw :class:`FeatureParts` of every token of ``ctx``.

    Features are independent of any mask or budget.  Each lexical feature
    is computed once per entry of the context's vocabulary (or casefolded
    word); query bigrams are matched as integer pair codes.
    """
    n, vocab = len(ctx), ctx.vocab
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
        return np.fromiter(values, dtype=dtype, count=n_words)[word_of_text]

    def per_text(values, dtype):
        return np.fromiter(values, dtype=dtype, count=len(vocab))

    table = np.zeros((len(vocab), FEATURE_DIM))
    table[:, 0] = per_word((w in q_unigrams for w in words), bool)
    table[:, 2] = per_word((idf_table.get(w, idf_ceiling) for w in words), np.float64)
    table[:, 4] = per_text((min(len(t), _LENGTH_CAP) for t in vocab), np.int64) / _LENGTH_CAP
    table[:, 5] = per_text((t.isdigit() for t in vocab), bool)
    initial = np.ones(n, dtype=bool)
    initial[1:] = per_text((t in _SENTENCE_FINAL for t in vocab), bool)[text_id[:-1]]
    return FeatureParts(table, ctx.text_ids, bigram, initial)


def featurize(
    query: str,
    ctx: TokenizedContext,
    idf_table: dict[str, float],
    idf_ceiling: float = 6.0,
) -> np.ndarray:
    """Compute the fixed 7-dimensional feature vector for every token, as
    an (n_tokens, 7) float64 matrix: query unigram/bigram overlap, idf,
    relative position i/L, capped token length, numeric flag, and
    sentence-initial flag (see :func:`feature_parts`)."""
    return feature_parts(query, ctx, idf_table, idf_ceiling).rows()


def _column_sum(row_blocks, center: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Column sums over the rows of every block in ``row_blocks``, or over
    their squares about ``center``, and the number of rows.

    The rows go ``_VAR_BLOCK`` at a time into rows 1.. of a buffer whose row
    0 holds the sums so far, and the buffer is summed over axis 0.  numpy
    sums a C-ordered matrix over axis 0 one row after the other, each added
    to the sum of the rows before it, and so does this running sum: the
    result keeps the bits of one sum over the stacked rows, however they
    are split into blocks.
    """
    acc, n = None, 0
    for block in row_blocks:
        if block.ndim != 2 or (acc is not None and block.shape[1] != acc.shape[1]):
            raise StructureError(f"row block of shape {block.shape} does not stack")
        if acc is None:
            acc = np.zeros((_VAR_BLOCK + 1, block.shape[1]))
        for start in range(0, len(block), _VAR_BLOCK):
            chunk = block[start:start + _VAR_BLOCK]
            rows = acc[1:len(chunk) + 1]
            if center is None:
                rows[:] = chunk
            else:
                np.square(np.subtract(chunk, center, out=rows), out=rows)
            acc[0] = acc[:len(chunk) + 1].sum(axis=0)
            n += len(chunk)
    if not n:
        raise StructureError("init_params needs at least one row")
    return acc[0], n


def init_params(
    row_blocks,
    tau: float = 1.0,
    init_prob: float | None = None,
) -> ScorerParams:
    """Fresh scorer parameters with standardization statistics frozen from
    the raw training-split rows in ``row_blocks``: 2-D blocks of equal width,
    which are read and never changed.  The blocks are iterated twice, so
    pass a collection or another re-iterable; each block is read before the
    next one is drawn, so they may share one buffer.

    The statistics are each column's mean and population variance: the
    column sum over n, then the column sum of the squared centred rows over
    n.  Both sums are running sums in numpy's axis-0 order (see
    :func:`_column_sum`), so the statistics equal numpy's ``mean`` and
    ``var`` of the stacked rows bit for bit, and no copy of the stack is
    made.

    w starts at zero.  When ``init_prob`` is given, the bias starts at
    tau * logit(init_prob) so the initial policy selects at that rate;
    the trainer passes the budget fraction gamma, which keeps the initial
    expected highlight fraction on budget and the length penalty at zero.
    """
    if iter(row_blocks) is row_blocks:
        raise StructureError("row_blocks is read twice, so it must not be a one-shot iterator")
    b = 0.0
    if init_prob is not None:
        if not 0.0 < init_prob < 1.0:
            raise StructureError("init_prob must lie in (0, 1)")
        b = tau * math.log(init_prob / (1.0 - init_prob))
    total, n = _column_sum(row_blocks)
    norm_mean = total / n
    norm_var = _column_sum(row_blocks, norm_mean)[0] / n
    return ScorerParams(
        w=np.zeros(norm_mean.size, dtype=np.float64),
        b=b,
        tau=tau,
        norm_mean=norm_mean,
        norm_var=norm_var,
    )


def standardize(feats: np.ndarray, params: ScorerParams) -> np.ndarray:
    """Per-feature mean/variance standardization with frozen statistics,
    as one new array.  Inside the package it reads a :class:`FeatureParts`
    table, one row per vocabulary entry, not a context's (n, 7) rows."""
    if feats.ndim != 2 or feats.shape[1] != params.dim:
        raise StructureError(
            f"feature matrix of shape {feats.shape} != (n, {params.dim})"
        )
    out = feats - params.norm_mean
    out /= params.norm_scale
    return out


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
    """Clamped selection probabilities for every token, from the raw
    (n, 7) rows ``feats``.  The package reads standardized
    :class:`FeatureParts` rows instead (``forward(parts.standardized(params)
    .rows(), params).p``), which give the same probabilities bit for bit."""
    return forward(standardize(feats, params), params).p


def bernoulli_logs(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log p, log(1 - p)) of ``probs``, which :func:`log_prob` and
    :func:`entropy` both read."""
    return np.log(probs), np.log1p(-probs)


def log_prob(masks: np.ndarray, probs: np.ndarray, logs=None) -> np.ndarray:
    """Bernoulli log-likelihood of each row of the (G, n) mask stack
    ``masks`` under ``probs``, as a length-G array; ``logs`` is
    :func:`bernoulli_logs` of ``probs`` when the caller has it already.

    log p and log(1 - p) are evaluated once for all G rows, and each mask
    bit picks one of the two; each row is then summed with its own 1-D sum,
    so row j equals the log-likelihood of ``masks[j]`` alone bit for bit.
    The picked terms equal ``m log p + (1 - m) log(1 - p)`` for 0/1 masks
    bit for bit, as the product dropped is always -0.0.  Always finite
    (probabilities are clamped) and <= 0.
    """
    log_p, log_q = bernoulli_logs(probs) if logs is None else logs
    terms = np.where(np.asarray(masks, dtype=bool), log_p, log_q)
    return np.array([np.sum(row) for row in terms])


def entropy(probs: np.ndarray, logs=None) -> float:
    """Token-wise Bernoulli entropy averaged over every token, in [0, ln 2]
    (0.0 when there are none); ``logs`` as in :func:`log_prob`."""
    if probs.size == 0:
        return 0.0
    log_p, log_q = bernoulli_logs(probs) if logs is None else logs
    h = -(probs * log_p + (1.0 - probs) * log_q)
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

