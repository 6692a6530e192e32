import itertools
import json
import math
import sys
import warnings

import numpy as np
import pytest

from hilite.errors import ProtocolError, StructureError
from hilite.policy import (
    FEATURE_DIM,
    HTTPScorer,
    ScoreMap,
    ScorerParams,
    SubprocessScorer,
    TokenFeatures,
    build_idf_table,
    entropy,
    featurize,
    init_params,
    log_prob,
    log_prob_grad,
    score,
)
from hilite.tokenization import tokenize


def identity_params(w, b=0.0, tau=1.0):
    w = np.asarray(w, dtype=np.float64)
    return ScorerParams(
        w=w,
        b=b,
        tau=tau,
        norm_mean=np.zeros_like(w),
        norm_var=np.ones_like(w),
    )


def feats_of(matrix):
    return TokenFeatures(matrix=np.asarray(matrix, dtype=np.float64))


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------


def test_query_overlap_feature_is_definitional():
    ctx = tokenize("the raven settled")
    f = featurize("where is the raven", ctx, {})
    assert f.matrix[1, 0] == 1.0  # "raven" appears in the query
    assert f.matrix[2, 0] == 0.0  # "settled" does not


def test_first_token_relative_position_zero():
    ctx = tokenize("alpha beta")
    f = featurize("", ctx, {})
    assert f.matrix[0, 3] == 0.0


def test_relative_position_midpoint():
    ctx = tokenize("a b c d")  # 4 tokens; index 2 -> 2/4
    f = featurize("", ctx, {})
    assert f.matrix[2, 3] == pytest.approx(0.5)


def test_missing_idf_entries_use_ceiling():
    ctx = tokenize("zyxwv")
    f = featurize("", ctx, {}, idf_ceiling=6.0)
    assert f.matrix[0, 2] == 6.0


def test_bigram_numeric_and_sentence_initial_features():
    ctx = tokenize("Code 417. Next line")
    f = featurize("the code 417 please", ctx, {})
    assert f.matrix[0, 1] == 1.0  # "code 417" bigram matches
    assert f.matrix[1, 5] == 1.0  # 417 is numeric
    assert f.matrix[0, 6] == 1.0  # first token is sentence-initial
    assert f.matrix[3, 6] == 1.0  # "Next" follows a period
    assert f.matrix[4, 6] == 0.0


def test_build_idf_table_counts_documents():
    ctxs = [tokenize("a b"), tokenize("a c")]
    table = build_idf_table(ctxs)
    assert table["a"] == pytest.approx(math.log(3 / 3))
    assert table["b"] == pytest.approx(math.log(3 / 2))


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_zero_params_give_half_everywhere():
    f = feats_of(np.random.default_rng(0).normal(size=(5, 3)))
    params = identity_params(np.zeros(3))
    s = score(f, params)
    assert np.allclose(s.probs, 0.5)


def test_zero_logit_is_half_for_any_tau():
    f = feats_of(np.zeros((4, 2)))
    for tau in (0.5, 1.0, 3.0):
        params = identity_params(np.zeros(2), tau=tau)
        assert np.allclose(score(f, params).probs, 0.5)


def test_logistic_spot_value():
    f = feats_of([[1.0, 0.0]])
    params = identity_params([2.0, 0.0])
    assert score(f, params).probs[0] == pytest.approx(0.8807970779778823, abs=1e-6)


def test_score_dim_mismatch_rejected():
    f = feats_of(np.zeros((3, 4)))
    params = identity_params(np.zeros(2))
    with pytest.raises(StructureError):
        score(f, params)


def test_temperature_pulls_probabilities_toward_half():
    f = feats_of([[1.0], [-2.0]])
    dist = []
    for tau in (0.5, 1.0, 2.0, 5.0):
        p = score(f, identity_params([1.0], tau=tau)).probs
        dist.append(np.abs(p - 0.5))
    for a, b in zip(dist, dist[1:]):
        assert np.all(b < a)


def test_clamping_keeps_probs_interior():
    f = feats_of([[1000.0], [-1000.0]])
    p = score(f, identity_params([1.0])).probs
    assert p[0] == pytest.approx(1.0 - 1e-6)
    assert p[1] == pytest.approx(1e-6)


# ---------------------------------------------------------------------------
# log_prob / entropy
# ---------------------------------------------------------------------------


def test_uniform_log_prob():
    n = 7
    s = ScoreMap(probs=np.full(n, 0.5))
    mask = np.zeros(n, dtype=np.uint8)
    assert log_prob(mask, s, range(n)) == pytest.approx(-n * math.log(2))


def test_log_prob_decomposes_per_token():
    s = ScoreMap(probs=np.array([0.9, 0.1]))
    mask = np.array([1, 0], dtype=np.uint8)
    assert log_prob(mask, s, [0, 1]) == pytest.approx(
        math.log(0.9) + math.log(0.9), abs=1e-12
    )
    assert log_prob(mask, s, [0, 1]) == pytest.approx(-0.2107, abs=1e-4)


def test_log_prob_ignores_bits_outside_omega():
    s = ScoreMap(probs=np.array([0.9, 0.5]))
    m1 = np.array([1, 1], dtype=np.uint8)
    m0 = np.array([1, 0], dtype=np.uint8)
    assert log_prob(m1, s, [0]) == log_prob(m0, s, [0])


def test_entropy_bounds_and_values():
    n = 4
    assert entropy(ScoreMap(probs=np.full(n, 0.5)), range(n)) == pytest.approx(
        math.log(2)
    )
    assert entropy(ScoreMap(probs=np.full(n, 1e-6)), range(n)) == pytest.approx(
        0.0, abs=1e-4
    )
    assert entropy(ScoreMap(probs=np.full(n, 0.25)), range(n)) == pytest.approx(
        0.5623351446188083, abs=1e-12
    )


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_single_token_gradient_values():
    f = feats_of([[1.0]])
    params = identity_params([0.0])
    gw, gb = log_prob_grad(np.array([1], dtype=np.uint8), f, params, [0])
    assert gw[0] == pytest.approx(0.5)
    assert gb == pytest.approx(0.5)
    gw, gb = log_prob_grad(np.array([0], dtype=np.uint8), f, params, [0])
    assert gw[0] == pytest.approx(-0.5)
    assert gb == pytest.approx(-0.5)


def test_score_function_identity_expected_gradient_zero():
    # sum over all 2^n masks of pi(mask) * grad log pi(mask) == 0
    rng = np.random.default_rng(3)
    n, d = 6, 3
    f = feats_of(rng.normal(size=(n, d)))
    params = identity_params(rng.normal(scale=0.5, size=d), b=0.1, tau=1.3)
    p = score(f, params).probs
    omega = list(range(n))
    total_w = np.zeros(d)
    total_b = 0.0
    for bits in itertools.product([0, 1], repeat=n):
        mask = np.array(bits, dtype=np.uint8)
        prob = float(np.prod(np.where(mask, p, 1 - p)))
        gw, gb = log_prob_grad(mask, f, params, omega)
        total_w += prob * gw
        total_b += prob * gb
    assert np.allclose(total_w, 0.0, atol=1e-12)
    assert total_b == pytest.approx(0.0, abs=1e-12)


def finite_diff_log_prob(mask, feats, params, omega, h=1e-6):
    gw = np.zeros_like(params.w)
    for i in range(params.dim):
        up = params.copy()
        up.w = up.w.copy()
        up.w[i] += h
        down = params.copy()
        down.w = down.w.copy()
        down.w[i] -= h
        gw[i] = (
            log_prob(mask, score(feats, up), omega)
            - log_prob(mask, score(feats, down), omega)
        ) / (2 * h)
    up = params.copy()
    up.b += h
    down = params.copy()
    down.b -= h
    gb = (
        log_prob(mask, score(feats, up), omega)
        - log_prob(mask, score(feats, down), omega)
    ) / (2 * h)
    return gw, gb


@pytest.mark.parametrize("seed", range(8))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    d = int(rng.integers(1, 8))
    feats = feats_of(rng.normal(size=(n, d)))
    params = ScorerParams(
        w=rng.normal(scale=0.5, size=d),
        b=float(rng.normal(scale=0.3)),
        tau=float(rng.uniform(0.5, 2.0)),
        norm_mean=rng.normal(scale=0.2, size=d),
        norm_var=rng.uniform(0.5, 2.0, size=d),
    )
    mask = (rng.random(n) < 0.5).astype(np.uint8)
    omega = sorted(rng.choice(n, size=max(1, n // 2), replace=False).tolist())
    gw, gb = log_prob_grad(mask, feats, params, omega)
    fw, fb = finite_diff_log_prob(mask, feats, params, omega)
    ref = np.concatenate([fw, [fb]])
    got = np.concatenate([gw, [gb]])
    denom = max(np.linalg.norm(ref), 1e-8)
    assert np.linalg.norm(got - ref) / denom < 1e-4


def test_gradient_at_extreme_logits_is_finite_and_ignores_clamped_tokens():
    # z = 1000 x: tokens 0, 1, 3, 4 are clamped (|z| >= 800), token 2 (z = 1) is not
    params = identity_params([1000.0])
    f = feats_of([[-1.0], [-0.8], [0.001], [0.8], [1.0]])
    mask = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gw, gb = log_prob_grad(mask, f, params, range(5))
        gw_2, gb_2 = log_prob_grad(mask, f, params, [2])
    assert np.all(np.isfinite(gw)) and math.isfinite(gb)
    assert gw.tolist() == gw_2.tolist() and gb == gb_2
    assert gb == pytest.approx(1.0 - 1.0 / (1.0 + math.exp(-1.0)))


# ---------------------------------------------------------------------------
# budget-matched initialization
# ---------------------------------------------------------------------------


def test_init_params_freezes_stats_and_budget_bias():
    rng = np.random.default_rng(0)
    stacked = rng.normal(loc=2.0, scale=3.0, size=(100, FEATURE_DIM))
    params = init_params(stacked, tau=1.0, init_prob=0.15)
    assert np.allclose(params.norm_mean, stacked.mean(axis=0))
    assert np.allclose(params.norm_var, stacked.var(axis=0))
    assert params.b == pytest.approx(math.log(0.15 / 0.85))
    # initial policy selects at the requested rate
    f = feats_of(stacked[:10])
    assert np.allclose(score(f, params).probs, 0.15, atol=1e-2)


# ---------------------------------------------------------------------------
# external scorer protocol
# ---------------------------------------------------------------------------

ECHO_SCORER = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    n = len(req['tokens'])\n"
    "    print(json.dumps({'probs': [0.25] * n}), flush=True)\n"
)

BAD_JSON_SCORER = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print('not json', flush=True)\n"
)

WRONG_LENGTH_SCORER = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    print(json.dumps({'probs': [0.5] * (len(req['tokens']) - 1)}), flush=True)\n"
)


def test_subprocess_scorer_round_trip():
    with SubprocessScorer([sys.executable, "-c", ECHO_SCORER]) as scorer:
        s = scorer.score_tokens("q", ["a", "b", "c"])
        assert np.allclose(s.probs, 0.25)


def test_subprocess_scorer_malformed_response():
    with SubprocessScorer([sys.executable, "-c", BAD_JSON_SCORER]) as scorer:
        with pytest.raises(ProtocolError):
            scorer.score_tokens("q", ["a"])


def test_subprocess_scorer_wrong_length():
    with SubprocessScorer([sys.executable, "-c", WRONG_LENGTH_SCORER]) as scorer:
        with pytest.raises(ProtocolError):
            scorer.score_tokens("q", ["a", "b"])


def test_http_scorer(scripted_server):
    url, handler = scripted_server
    handler.script.append((200, {"probs": [0.1, 0.2, 0.3]}))
    scorer = HTTPScorer(url)
    s = scorer.score_tokens("q", ["a", "b", "c"])
    assert np.allclose(s.probs, [0.1, 0.2, 0.3])
    assert handler.requests_seen[0]["op"] == "score"


def test_http_scorer_wrong_length(scripted_server):
    url, handler = scripted_server
    handler.script.append((200, {"probs": [0.1]}))
    with pytest.raises(ProtocolError):
        HTTPScorer(url).score_tokens("q", ["a", "b"])
