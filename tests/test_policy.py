import copy
import itertools
import json
import math
import signal
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilite import policy
from hilite.errors import ProtocolError, StructureError
from hilite.policy import (
    FEATURE_DIM,
    ScorerParams,
    SubprocessScorer,
    build_idf_table,
    entropy,
    featurize,
    init_params,
    log_prob,
    score,
)
from hilite.tokenization import tokenize
from hilite.trainer import TrainConfig, objective


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
    return np.asarray(matrix, dtype=np.float64)


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------


def test_query_overlap_feature_is_definitional():
    ctx = tokenize("the raven settled")
    f = featurize("where is the raven", ctx, {})
    assert f[1, 0] == 1.0  # "raven" appears in the query
    assert f[2, 0] == 0.0  # "settled" does not


def test_first_token_relative_position_zero():
    ctx = tokenize("alpha beta")
    f = featurize("", ctx, {})
    assert f[0, 3] == 0.0


def test_relative_position_midpoint():
    ctx = tokenize("a b c d")  # 4 tokens; index 2 -> 2/4
    f = featurize("", ctx, {})
    assert f[2, 3] == pytest.approx(0.5)


def test_missing_idf_entries_use_ceiling():
    ctx = tokenize("zyxwv")
    f = featurize("", ctx, {}, idf_ceiling=6.0)
    assert f[0, 2] == 6.0


def test_bigram_numeric_and_sentence_initial_features():
    ctx = tokenize("Code 417. Next line")
    f = featurize("the code 417 please", ctx, {})
    assert f[0, 1] == 1.0  # "code 417" bigram matches
    assert f[1, 5] == 1.0  # 417 is numeric
    assert f[0, 6] == 1.0  # first token is sentence-initial
    assert f[3, 6] == 1.0  # "Next" follows a period
    assert f[4, 6] == 0.0


def test_build_idf_table_counts_documents():
    ctxs = [tokenize("a b"), tokenize("a c")]
    table = build_idf_table(ctxs)
    assert table["a"] == pytest.approx(math.log(3 / 3))
    assert table["b"] == pytest.approx(math.log(3 / 2))


def reference_featurize(query, ctx, idf_table, idf_ceiling):
    """The seven features computed one token at a time from the token texts."""
    texts = [t.text for t in ctx.tokens]
    words = [t.casefold() for t in texts]
    q_words = [t.text.casefold() for t in tokenize(query).tokens]
    q_bigrams = set(zip(q_words, q_words[1:]))
    n = len(texts)
    rows = []
    for i, text in enumerate(texts):
        rows.append([
            words[i] in q_words,
            (i > 0 and (words[i - 1], words[i]) in q_bigrams)
            or (i + 1 < n and (words[i], words[i + 1]) in q_bigrams),
            idf_table.get(words[i], idf_ceiling),
            i / n,
            min(len(text), 20) / 20,
            text.isdigit(),
            i == 0 or texts[i - 1] in {".", "!", "?"},
        ])
    return np.array(rows, dtype=np.float64).reshape(n, FEATURE_DIM)


# repeated words, casefold collisions (Straße/STRASSE, ǅ/Ǆ/ǆ, İ), digits of
# two scripts and the sentence-final characters, glued or spaced
FEATURE_TEXTS = st.lists(
    st.sampled_from(["Straße", "STRASSE", "strasse", "İ", "i̇", "i", "ǅ", "Ǆ", "ǆ",
                     "the", "The", "417", "٤١٧", "x9", ".", "!", "?", " ", " ", "\n"]),
    max_size=40,
).map("".join)


@given(FEATURE_TEXTS, FEATURE_TEXTS, st.lists(FEATURE_TEXTS, max_size=3))
@settings(max_examples=300, deadline=None)
def test_featurize_matches_per_token_reference(context, query, documents):
    ctx = tokenize(context)
    idf_table = build_idf_table([tokenize(d) for d in documents])
    got = featurize(query, ctx, idf_table, idf_ceiling=6.0)
    assert np.array_equal(got, reference_featurize(query, ctx, idf_table, 6.0))


@given(FEATURE_TEXTS, FEATURE_TEXTS, st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_standardized_parts_give_standardized_rows_bit_for_bit(context, query, seed):
    # a table standardized once per vocabulary entry, gathered, equals the
    # standardized rows; written over a buffer that holds other rows
    ctx = tokenize(context)
    rng = np.random.default_rng(seed)
    params = identity_params(np.zeros(FEATURE_DIM))
    params.norm_mean, params.norm_var = rng.normal(size=FEATURE_DIM), rng.random(FEATURE_DIM)
    parts = policy.feature_parts(query, ctx, {"the": 0.25})
    raw = featurize(query, ctx, {"the": 0.25})
    buf = rng.normal(size=(len(ctx) + 3, FEATURE_DIM))
    got = parts.standardized(params).rows(buf[:len(ctx)])
    assert got.base is buf
    assert got.tobytes() == policy.standardize(raw, params).tobytes()
    assert parts.table.shape == (len(ctx.vocab), FEATURE_DIM) and parts.text_ids is ctx.text_ids
    assert parts.bigram.dtype == parts.initial.dtype == bool


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_zero_params_give_half_everywhere():
    f = feats_of(np.random.default_rng(0).normal(size=(5, 3)))
    params = identity_params(np.zeros(3))
    s = score(f, params)
    assert np.allclose(s, 0.5)


def test_zero_logit_is_half_for_any_tau():
    f = feats_of(np.zeros((4, 2)))
    for tau in (0.5, 1.0, 3.0):
        params = identity_params(np.zeros(2), tau=tau)
        assert np.allclose(score(f, params), 0.5)


def test_logistic_spot_value():
    f = feats_of([[1.0, 0.0]])
    params = identity_params([2.0, 0.0])
    assert score(f, params)[0] == pytest.approx(0.8807970779778823, abs=1e-6)


def two_branch_sigmoid(z):
    """The sigmoid as two masked branches, kept as the reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@given(st.lists(st.floats(width=64), max_size=40))
@settings(max_examples=300, deadline=None)
@example([0.0, -0.0, math.inf, -math.inf, math.nan, 709.0, -709.0, 745.0, -745.0])
def test_sigmoid_equals_the_two_branch_formula(values):
    z = np.array(values, dtype=np.float64)
    got = policy._sigmoid(z)
    assert got.dtype == np.float64
    assert np.array_equal(got, two_branch_sigmoid(z), equal_nan=True)


def test_score_dim_mismatch_rejected():
    f = feats_of(np.zeros((3, 4)))
    params = identity_params(np.zeros(2))
    with pytest.raises(StructureError):
        score(f, params)


def test_score_rejects_non_matrix_features():
    params = identity_params(np.zeros(2))
    with pytest.raises(StructureError):
        score(np.zeros(2), params)


def test_temperature_pulls_probabilities_toward_half():
    f = feats_of([[1.0], [-2.0]])
    dist = []
    for tau in (0.5, 1.0, 2.0, 5.0):
        p = score(f, identity_params([1.0], tau=tau))
        dist.append(np.abs(p - 0.5))
    for a, b in zip(dist, dist[1:]):
        assert np.all(b < a)


def test_clamping_keeps_probs_interior():
    f = feats_of([[1000.0], [-1000.0]])
    p = score(f, identity_params([1.0]))
    assert p[0] == pytest.approx(1.0 - 1e-6)
    assert p[1] == pytest.approx(1e-6)


# ---------------------------------------------------------------------------
# log_prob / entropy
# ---------------------------------------------------------------------------


def test_uniform_log_prob():
    n = 7
    s = np.full(n, 0.5)
    mask = np.zeros(n, dtype=np.uint8)
    assert log_prob(mask[None], s)[0] == pytest.approx(-n * math.log(2))


def test_log_prob_decomposes_per_token():
    s = np.array([0.9, 0.1])
    mask = np.array([1, 0], dtype=np.uint8)
    assert log_prob(mask[None], s)[0] == pytest.approx(
        math.log(0.9) + math.log(0.9), abs=1e-12
    )
    assert log_prob(mask[None], s)[0] == pytest.approx(-0.2107, abs=1e-4)


def test_log_prob_ignores_bits_outside_omega():
    s = np.array([0.9, 0.5])
    m1 = np.array([1, 1], dtype=np.uint8)
    m0 = np.array([1, 0], dtype=np.uint8)
    omega = [0]
    assert log_prob(m1[None, omega], s[omega]) == log_prob(m0[None, omega], s[omega])


@pytest.mark.parametrize("n", [2_000, 16_000])
def test_log_prob_picks_the_terms_of_the_product_form_bit_for_bit(n):
    # random 0/1 stacks, with probabilities drawn across (0, 1) and pinned at the clamps
    rng = np.random.default_rng(n)
    probs = rng.random(n)
    probs[: n // 4] = policy.PROB_CLAMP
    probs[n // 4 : n // 2] = 1.0 - policy.PROB_CLAMP
    probs = np.clip(probs, policy.PROB_CLAMP, 1.0 - policy.PROB_CLAMP)
    masks = (rng.random((4, n)) < 0.5).astype(np.uint8)
    m = masks.astype(np.float64)
    terms = m * np.log(probs) + (1.0 - m) * np.log1p(-probs)
    expected = np.array([np.sum(row) for row in terms])
    assert log_prob(masks, probs).tobytes() == expected.tobytes()


def test_given_logs_give_the_same_bits():
    p = np.random.default_rng(1).uniform(1e-6, 1 - 1e-6, size=500)
    masks = (np.random.default_rng(2).random((4, 500)) < 0.3).astype(np.uint8)
    logs = policy.bernoulli_logs(p)
    assert log_prob(masks, p, logs).tobytes() == log_prob(masks, p).tobytes()
    assert entropy(p, logs) == entropy(p)


def test_entropy_bounds_and_values():
    n = 4
    assert entropy(np.full(n, 0.5)) == pytest.approx(
        math.log(2)
    )
    assert entropy(np.full(n, 1e-6)) == pytest.approx(
        0.0, abs=1e-4
    )
    assert entropy(np.full(n, 0.25)) == pytest.approx(
        0.5623351446188083, abs=1e-12
    )


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def pg_term_grad(mask, feats, params, omega):
    """Gradient of log pi(mask) restricted to omega with respect to (w, b),
    read off the training objective over omega's rows: its L_PG term for one
    mask with advantage -1, no length or entropy term."""
    masks = np.asarray(mask, dtype=np.uint8)[None, omega]
    cfg = TrainConfig(steps=0, lambda_len=0.0, beta_ent=0.0)
    fwd = policy.forward(policy.standardize(feats, params)[omega], params)
    terms = objective(masks, np.array([-1.0]), fwd, params, cfg)
    return terms.grad_w, terms.grad_b


def test_single_token_gradient_values():
    f = feats_of([[1.0]])
    params = identity_params([0.0])
    gw, gb = pg_term_grad(np.array([1], dtype=np.uint8), f, params, [0])
    assert gw[0] == pytest.approx(0.5)
    assert gb == pytest.approx(0.5)
    gw, gb = pg_term_grad(np.array([0], dtype=np.uint8), f, params, [0])
    assert gw[0] == pytest.approx(-0.5)
    assert gb == pytest.approx(-0.5)


def test_score_function_identity_expected_gradient_zero():
    # sum over all 2^n masks of pi(mask) * grad log pi(mask) == 0
    rng = np.random.default_rng(3)
    n, d = 6, 3
    f = feats_of(rng.normal(size=(n, d)))
    params = identity_params(rng.normal(scale=0.5, size=d), b=0.1, tau=1.3)
    p = score(f, params)
    omega = list(range(n))
    total_w = np.zeros(d)
    total_b = 0.0
    for bits in itertools.product([0, 1], repeat=n):
        mask = np.array(bits, dtype=np.uint8)
        prob = float(np.prod(np.where(mask, p, 1 - p)))
        gw, gb = pg_term_grad(mask, f, params, omega)
        total_w += prob * gw
        total_b += prob * gb
    assert np.allclose(total_w, 0.0, atol=1e-12)
    assert total_b == pytest.approx(0.0, abs=1e-12)


def finite_diff_log_prob(mask, feats, params, omega, h=1e-6):
    masks = np.asarray(mask)[None, omega]
    gw = np.zeros_like(params.w)
    for i in range(params.dim):
        up = copy.deepcopy(params)
        up.w[i] += h
        down = copy.deepcopy(params)
        down.w[i] -= h
        gw[i] = (
            log_prob(masks, score(feats, up)[omega])[0]
            - log_prob(masks, score(feats, down)[omega])[0]
        ) / (2 * h)
    up = copy.deepcopy(params)
    up.b += h
    down = copy.deepcopy(params)
    down.b -= h
    gb = (
        log_prob(masks, score(feats, up)[omega])[0]
        - log_prob(masks, score(feats, down)[omega])[0]
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
    gw, gb = pg_term_grad(mask, feats, params, omega)
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
        gw, gb = pg_term_grad(mask, f, params, range(5))
        gw_2, gb_2 = pg_term_grad(mask, f, params, [2])
    assert np.all(np.isfinite(gw)) and math.isfinite(gb)
    assert gw.tolist() == gw_2.tolist() and gb == gb_2
    assert gb == pytest.approx(1.0 - 1.0 / (1.0 + math.exp(-1.0)))


# ---------------------------------------------------------------------------
# budget-matched initialization
# ---------------------------------------------------------------------------


def test_init_params_freezes_stats_and_budget_bias():
    rng = np.random.default_rng(0)
    raw = rng.normal(loc=2.0, scale=3.0, size=(100, FEATURE_DIM))
    params = init_params([raw], tau=1.0, init_prob=0.15)
    assert np.allclose(params.norm_mean, raw.mean(axis=0))
    assert np.allclose(params.norm_var, raw.var(axis=0))
    assert params.b == pytest.approx(math.log(0.15 / 0.85))
    # initial policy selects at the requested rate
    f = feats_of(raw[:10])
    assert np.allclose(score(f, params), 0.15, atol=1e-2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e4]))
@example(n=policy._VAR_BLOCK - 1, seed=1, scale=1.0)
@example(n=policy._VAR_BLOCK, seed=2, scale=1.0)
@example(n=policy._VAR_BLOCK + 1, seed=3, scale=1.0)
@example(n=3 * policy._VAR_BLOCK + 17, seed=4, scale=1.0)
def test_init_params_statistics_and_rows_equal_numpy_bit_for_bit(n, seed, scale):
    # running sums in numpy's axis-0 order give numpy's mean and var, not
    # just close values, and leave the rows as they were; the examples cross
    # the edges of init_params' summing blocks
    rng = np.random.default_rng(seed)
    raw = rng.normal(loc=scale * rng.normal(size=FEATURE_DIM), scale=scale, size=(n, FEATURE_DIM))
    raw[:, 1] = rng.random(n) < 0.1  # a 0/1 column, like the overlap flags
    raw[:, 5] = 0.0  # a constant column: variance 0
    matrix = raw.copy()
    params = init_params([matrix])
    assert params.norm_mean.tobytes() == raw.mean(axis=0).tobytes()
    assert params.norm_var.tobytes() == raw.var(axis=0).tobytes()
    assert matrix.tobytes() == raw.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2 * policy._VAR_BLOCK + 5), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
@example(sizes=[policy._VAR_BLOCK - 1, 2, policy._VAR_BLOCK], seed=1)
@example(sizes=[0, policy._VAR_BLOCK + 1, 0], seed=2)
@example(sizes=[1] * 5 + [2 * policy._VAR_BLOCK + 3], seed=3)
def test_init_params_statistics_over_any_block_split_equal_numpy_bit_for_bit(sizes, seed):
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(loc=rng.normal(size=FEATURE_DIM), size=(size, FEATURE_DIM))
              for size in sizes]
    stacked = np.vstack(blocks)
    if not len(stacked):
        with pytest.raises(StructureError, match="at least one row"):
            init_params(blocks)
        return
    params = init_params(blocks)
    assert params.norm_mean.tobytes() == stacked.mean(axis=0).tobytes()
    assert params.norm_var.tobytes() == stacked.var(axis=0).tobytes()


def test_init_params_rejects_a_one_shot_iterator():
    rows = np.ones((3, FEATURE_DIM))
    with pytest.raises(StructureError, match="one-shot"):
        init_params(iter([rows]))
    with pytest.raises(StructureError, match="does not stack"):
        init_params([rows, np.ones((2, FEATURE_DIM - 1))])


def test_init_params_makes_no_full_size_temporary():
    # numpy reports its buffers to tracemalloc; a copy of the stacked rows
    # would make the traced peak as large as the matrix itself
    matrix = np.random.default_rng(0).normal(size=(200_000, FEATURE_DIM))
    tracemalloc.start()
    try:
        init_params([matrix])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix.nbytes / 4


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


def test_scorer_probabilities_zero_and_one_are_accepted_and_clamped():
    probs = policy._validate_probs({"probs": [0.0, 1.0, 0, 1, 0.5]}, 5)
    lo, hi = policy.PROB_CLAMP, 1.0 - policy.PROB_CLAMP
    assert probs.tolist() == [lo, hi, lo, hi, 0.5]


def test_subprocess_scorer_round_trip():
    with SubprocessScorer([sys.executable, "-c", ECHO_SCORER]) as scorer:
        s = scorer.score_tokens("q", ["a", "b", "c"])
        assert np.allclose(s, 0.25)


def test_subprocess_scorer_sends_one_score_request_per_call():
    # the child answers p = 0.5 only to a well-formed request naming q's tokens
    child = (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    ok = req['op'] == 'score' and req['query'] == 'q?' and req['tokens'] == ['a', 'é']\n"
        "    print(json.dumps({'probs': [0.5 if ok else 0.1] * len(req['tokens'])}), flush=True)\n"
    )
    with SubprocessScorer([sys.executable, "-c", child], timeout=5.0) as scorer:
        assert scorer.score_tokens("q?", ["a", "é"]).tolist() == [0.5, 0.5]


def test_subprocess_scorer_malformed_response():
    with SubprocessScorer([sys.executable, "-c", BAD_JSON_SCORER]) as scorer:
        with pytest.raises(ProtocolError):
            scorer.score_tokens("q", ["a"])


def test_subprocess_scorer_wrong_length():
    with SubprocessScorer([sys.executable, "-c", WRONG_LENGTH_SCORER]) as scorer:
        with pytest.raises(ProtocolError):
            scorer.score_tokens("q", ["a", "b"])


STUBBORN_SCORER = (
    "import json, signal, sys, time\n"
    "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
    "for line in sys.stdin:\n"
    "    n = len(json.loads(line)['tokens'])\n"
    "    print(json.dumps({'probs': [0.5] * n}), flush=True)\n"
    "time.sleep(60)\n"
)


def test_subprocess_scorer_close_kills_child_ignoring_sigterm(monkeypatch):
    monkeypatch.setattr(policy, "CLOSE_GRACE_S", 0.2)
    scorer = SubprocessScorer([sys.executable, "-c", STUBBORN_SCORER])
    scorer.score_tokens("q", ["a"])  # the child ignores SIGTERM from here on
    start = time.monotonic()
    scorer.close()
    assert time.monotonic() - start < 5.0
    assert scorer._proc.returncode == -signal.SIGKILL


SILENT_SCORER = (
    "import sys, time\n"
    "sys.stdin.readline()\n"
    "time.sleep(60)\n"
)
DEAF_SCORER = "import time\ntime.sleep(60)\n"


@pytest.mark.parametrize("child, n_tokens", [
    (SILENT_SCORER, 3),  # takes the request, never answers
    (DEAF_SCORER, 200_000),  # never reads a request larger than the pipe buffer
], ids=["silent", "deaf"])
def test_subprocess_scorer_times_out(child, n_tokens):
    with SubprocessScorer([sys.executable, "-c", child], timeout=0.2) as scorer:
        start = time.monotonic()
        with pytest.raises(ProtocolError):
            scorer.score_tokens("q", ["tok"] * n_tokens)
        assert time.monotonic() - start < 5.0


def test_subprocess_scorer_reads_replies_split_and_joined():
    child = (
        "import sys, json, time\n"
        "for line in sys.stdin:\n"
        "    n = len(json.loads(line)['tokens'])\n"
        "    reply = json.dumps({'probs': [0.25] * n}) + '\\n'\n"
        "    sys.stdout.write(reply[:3]); sys.stdout.flush(); time.sleep(0.05)\n"
        "    sys.stdout.write(reply[3:] + reply); sys.stdout.flush()\n"
    )
    with SubprocessScorer([sys.executable, "-c", child], timeout=5.0) as scorer:
        assert np.allclose(scorer.score_tokens("q", ["a", "b"]), 0.25)
        assert np.allclose(scorer.score_tokens("q", ["a", "b"]), 0.25)  # queued copy


@pytest.mark.parametrize(
    "probs", [["a"], [[0.1, 0.2]], [[0.1], 0.2], [None], [math.nan], [True], [1.5], [-0.5],
              [False, 0.5], [math.inf]]
)
def test_subprocess_scorer_off_contract_probabilities(probs):
    # json writes NaN as a bare NaN, which json.loads reads back as a float
    reply = json.dumps({"probs": probs})
    child = f"import sys\nfor line in sys.stdin:\n    print({reply!r}, flush=True)\n"
    with SubprocessScorer([sys.executable, "-c", child], timeout=5.0) as scorer:
        with pytest.raises(ProtocolError):
            scorer.score_tokens("q", ["t"] * len(probs))
