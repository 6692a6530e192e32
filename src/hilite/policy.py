"""Token-importance scoring.

The native scorer maps per-token feature vectors through a standardized
linear layer and a temperature-controlled sigmoid:

    p_i = sigmoid((w . standardize(x_i) + b) / tau)

which defines a Bernoulli-factorized selection policy over the
policy-controlled index set omega.  Probabilities are clamped away from 0/1
so log-likelihood and entropy stay finite, and the log-probability gradient
with respect to (w, b) has the usual closed form, verified against finite
differences in the test suite.  :func:`forward` is the one place that
evaluates this map; scoring and both gradients read its result.

Feature standardization statistics live inside ScorerParams and are frozen
at initialization (computed once from the training split), keeping the
policy stationary during optimization.

An external scorer can replace the native one at inference time, speaking a
small line-delimited JSON protocol over a child process's standard streams
or an HTTP endpoint: request ``{"op": "score", "query": q, "tokens": [...]}``,
response ``{"probs": [...]}`` with one probability per token.
"""

from __future__ import annotations

import json
import math
import subprocess
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError, StructureError
from .tokenization import TokenizedContext, tokenize

PROB_CLAMP = 1e-6
NORM_EPS = 1e-8

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
class TokenFeatures:
    """Per-token feature matrix, shape (n_tokens, d)."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]


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

    def copy(self) -> "ScorerParams":
        return ScorerParams(
            w=self.w.copy(),
            b=float(self.b),
            tau=float(self.tau),
            norm_mean=self.norm_mean.copy(),
            norm_var=self.norm_var.copy(),
        )

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


@dataclass
class ScoreMap:
    """Per-token selection probabilities, clamped into
    [PROB_CLAMP, 1 - PROB_CLAMP].  Meaningful only on omega."""

    probs: np.ndarray

    def __len__(self) -> int:
        return self.probs.shape[0]


def build_idf_table(contexts: list[TokenizedContext]) -> dict[str, float]:
    """Smoothed inverse document frequency over casefolded token texts.

    idf(t) = ln((1 + N) / (1 + df(t))); words absent from the table are
    assigned the featurizer's ceiling at lookup time, so unseen words read
    as maximally informative.
    """
    n = len(contexts)
    df: dict[str, int] = {}
    for ctx in contexts:
        for word in {text.casefold() for text in set(ctx.texts)}:
            df[word] = df.get(word, 0) + 1
    return {w: math.log((1 + n) / (1 + c)) for w, c in sorted(df.items())}


def featurize(
    query: str,
    ctx: TokenizedContext,
    idf_table: dict[str, float],
    idf_ceiling: float = 6.0,
) -> TokenFeatures:
    """Compute the fixed 7-dimensional feature vector for every token.

    Features are independent of any mask or budget: query unigram/bigram
    overlap, idf, relative position i/L, capped token length, numeric flag,
    and sentence-initial flag.  Each lexical feature is computed once per
    distinct token text (or casefolded word) of the context and gathered by
    vocabulary id; query bigrams are matched as integer pair codes.
    """
    n = len(ctx)
    x = np.zeros((n, FEATURE_DIM), dtype=np.float64)
    if n == 0:
        return TokenFeatures(matrix=x)
    # distinct token text -> text id, and distinct casefolded word -> word id
    vocab = {t: i for i, t in enumerate(dict.fromkeys(ctx.texts))}
    text_id = np.fromiter(map(vocab.__getitem__, ctx.texts), dtype=np.int64, count=n)
    folded = [t.casefold() for t in vocab]
    words = {w: i for i, w in enumerate(dict.fromkeys(folded))}
    word_of_text = np.fromiter(map(words.__getitem__, folded), dtype=np.int64, count=len(vocab))
    word_id = word_of_text[text_id]
    n_words = len(words)

    q_words = [t.casefold() for t in tokenize(query).texts]
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
    return TokenFeatures(matrix=x)


def init_params(
    feature_matrix: np.ndarray,
    tau: float = 1.0,
    init_prob: float | None = None,
) -> ScorerParams:
    """Fresh scorer parameters with standardization statistics frozen from
    ``feature_matrix`` (stack of training-split features).

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
    return ScorerParams(
        w=np.zeros(d, dtype=np.float64),
        b=b,
        tau=tau,
        norm_mean=feature_matrix.mean(axis=0),
        norm_var=feature_matrix.var(axis=0),
    )


def standardize(feats: TokenFeatures, params: ScorerParams) -> np.ndarray:
    """Per-feature mean/variance standardization with frozen statistics."""
    if feats.dim != params.dim:
        raise StructureError(
            f"feature dim {feats.dim} != parameter dim {params.dim}"
        )
    return (feats.matrix - params.norm_mean) / np.sqrt(params.norm_var + NORM_EPS)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def omega_index(omega) -> np.ndarray:
    """omega as an int64 index array (no copy when it already is one)."""
    return np.asarray(omega, dtype=np.int64)


@dataclass
class Forward:
    """Standardized rows ``x``, clamped probabilities ``p``, and ``interior``:
    true where p lies strictly inside the clamp (only those carry gradient)."""

    x: np.ndarray
    p: np.ndarray
    interior: np.ndarray


def forward(feats: TokenFeatures, params: ScorerParams, omega=None) -> Forward:
    """Evaluate p_i = sigmoid((w . x~_i + b) / tau), clamped, on the rows in
    ``omega`` (every row when omega is None)."""
    x = standardize(feats, params)
    if omega is not None:
        x = x[omega_index(omega)]
    p_raw = _sigmoid((x @ params.w + params.b) / params.tau)
    return Forward(
        x=x,
        p=np.clip(p_raw, PROB_CLAMP, 1.0 - PROB_CLAMP),
        interior=(p_raw > PROB_CLAMP) & (p_raw < 1.0 - PROB_CLAMP),
    )


def score(feats: TokenFeatures, params: ScorerParams) -> ScoreMap:
    """Clamped selection probabilities for every token."""
    return ScoreMap(probs=forward(feats, params).p)


def log_prob(mask: np.ndarray, scores: ScoreMap, omega) -> float:
    """Bernoulli log-likelihood of ``mask`` restricted to omega.

    Always finite (probabilities are clamped) and <= 0.
    """
    idx = omega_index(omega)
    p = scores.probs[idx]
    m = np.asarray(mask, dtype=np.float64)[idx]
    return float(np.sum(m * np.log(p) + (1.0 - m) * np.log1p(-p)))


def log_prob_grad(
    mask: np.ndarray,
    feats: TokenFeatures,
    params: ScorerParams,
    omega,
) -> tuple[np.ndarray, float]:
    """Analytic gradient of :func:`log_prob` with respect to (w, b):

        d/dw = sum_{i in omega} (m_i - p_i) x~_i / tau
        d/db = sum_{i in omega} (m_i - p_i) / tau

    Clamped tokens contribute zero, matching finite differences of the
    clamped log-likelihood.
    """
    idx = omega_index(omega)
    fwd = forward(feats, params, idx)
    m = np.asarray(mask, dtype=np.float64)[idx]
    dz = np.where(fwd.interior, m - fwd.p, 0.0) / params.tau
    return dz @ fwd.x, float(dz.sum())


def entropy(scores: ScoreMap, omega) -> float:
    """Token-wise Bernoulli entropy averaged over omega, in [0, ln 2]."""
    idx = omega_index(omega)
    if idx.size == 0:
        return 0.0
    p = scores.probs[idx]
    h = -(p * np.log(p) + (1.0 - p) * np.log1p(-p))
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
    arr = np.asarray(probs, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ProtocolError("scorer returned non-finite probabilities")
    return np.clip(arr, PROB_CLAMP, 1.0 - PROB_CLAMP)


class SubprocessScorer:
    """Line-delimited JSON scorer over a child process's stdin/stdout."""

    def __init__(self, argv: list[str]):
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def score_tokens(self, query: str, tokens: list[str]) -> ScoreMap:
        request = json.dumps({"op": "score", "query": query, "tokens": tokens})
        assert self._proc.stdin is not None and self._proc.stdout is not None
        try:
            self._proc.stdin.write(request + "\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise ProtocolError(f"scorer process unavailable: {exc}") from exc
        if not line:
            raise ProtocolError("scorer process closed its stream")
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"scorer sent invalid JSON: {exc}") from exc
        return ScoreMap(probs=_validate_probs(payload, len(tokens)))

    def close(self) -> None:
        if self._proc.stdin:
            self._proc.stdin.close()
        self._proc.terminate()
        self._proc.wait(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class HTTPScorer:
    """Same protocol over a POST endpoint."""

    def __init__(self, url: str, timeout: float = 30.0):
        self.url = url
        self.timeout = timeout

    def score_tokens(self, query: str, tokens: list[str]) -> ScoreMap:
        import requests

        try:
            resp = requests.post(
                self.url,
                json={"op": "score", "query": query, "tokens": tokens},
                timeout=self.timeout,
            )
            resp.raise_for_status()
            payload = resp.json()
        except Exception as exc:
            raise ProtocolError(f"scorer endpoint failed: {exc}") from exc
        return ScoreMap(probs=_validate_probs(payload, len(tokens)))
