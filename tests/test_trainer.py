import copy
import dataclasses
import hashlib
import itertools
import json
import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CORRUPT_CHECKPOINT_FIELDS,
    gold_token_indices,
    make_instance,
    spans_to_mask,
    write_checkpoint,
)
from hilite.data import gen_dataset
from hilite.errors import ConfigError, IntegrityError, SolverUnavailableError, StructureError
from hilite.markup import get_format
from hilite.policy import (
    FEATURE_DIM,
    Forward,
    ScorerParams,
    featurize,
    forward,
    init_params,
    score,
    standardize,
)
from hilite.rewards import RewardSpec
from hilite.solver import (
    ANSWER_TAG,
    TEMPLATES,
    EndpointConfig,
    HTTPSolver,
    OracleSolver,
    OracleSolverConfig,
    ScriptedSolver,
    SolverOutput,
)
from hilite.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Episode,
    LossTerms,
    OptimizerState,
    TrainConfig,
    advantages,
    episode,
    evaluate,
    grad_step,
    highlight,
    init_from_dataset,
    load_checkpoint,
    objective,
    reward_regressed,
    save_checkpoint,
    train,
)


def small_config(**kwargs):
    defaults = dict(group_size=2, steps=0, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def identity_params(w, b=0.0, tau=1.0):
    w = np.asarray(w, dtype=np.float64)
    return ScorerParams(
        w=w, b=b, tau=tau,
        norm_mean=np.zeros_like(w), norm_var=np.ones_like(w),
    )


def group_from(prelim_masks, rewards, advform=None):
    """The (mask stack, advantages) that :func:`objective` reads: the
    advantages of ``rewards``, or ``advform`` when given."""
    adv = advantages(rewards) if advform is None else advform
    return np.asarray(prelim_masks, dtype=np.uint8), np.asarray(adv, dtype=np.float64)


def terms_at(group, probs, cfg):
    """Objective terms for a forward pass whose probabilities are ``probs``
    (every token interior, one all-zero feature column)."""
    probs = np.asarray(probs, dtype=np.float64)
    fwd = Forward(x=np.zeros((probs.size, 1)), p=probs, interior=np.ones(probs.size, bool))
    return objective(*group, fwd, identity_params([0.0]), cfg)


def objective_on(group, feats, params, cfg, omega=slice(None)):
    """Objective terms over the rows ``omega`` (every row by default) of the
    raw features ``feats``: the loss reads the forward pass and the masks of
    those rows only."""
    masks, adv = group
    return objective(masks[:, omega], adv, forward(standardize(feats, params)[omega], params),
                     params, cfg)


# ---------------------------------------------------------------------------
# advantages
# ---------------------------------------------------------------------------


def test_advantages_symmetric_group():
    adv = advantages([1.0, 0.0, 0.0, 1.0])
    assert adv == pytest.approx([1.0, -1.0, -1.0, 1.0], abs=1e-6)


def test_advantages_zero_variance_is_exactly_zero():
    assert np.all(advantages([0.7, 0.7, 0.7]) == 0.0)


def test_advantages_pair():
    adv = advantages([1.0, 0.0])
    assert adv[0] == pytest.approx(1.0, abs=1e-6)
    assert adv[1] == pytest.approx(-1.0, abs=1e-6)


def test_advantages_population_std_and_mean():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = int(rng.integers(2, 9))
        r = rng.random(g)
        if r.std() == 0:
            continue
        adv = advantages(r)
        assert abs(adv.mean()) < 1e-9
        # ordering preserved
        assert np.all(np.argsort(adv) == np.argsort(r))
        # population std used: adv * (std + eps) + mean reproduces rewards
        assert np.allclose(adv * (r.std() + 1e-8) + r.mean(), r)


def test_advantages_require_group():
    with pytest.raises(ConfigError):
        advantages([1.0])


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------


def test_pg_loss_hand_evaluated():
    group = group_from(
        prelim_masks=[[1, 0], [0, 1]],
        rewards=[1.0, 0.0],
        advform=[1.0, -1.0],
    )
    # log pi([1, 0]) = ln 0.8 + ln 0.6 and log pi([0, 1]) = ln 0.2 + ln 0.4, so
    # L_PG = -(1/2) (ln 0.48 - ln 0.08) = -(1/2) ln 6
    scores = np.array([0.8, 0.4])
    cfg = small_config(lambda_len=0.0, beta_ent=0.0)
    terms = terms_at(group, scores, cfg)
    assert terms.l_pg == pytest.approx(-0.5 * math.log(6))
    assert terms.total == pytest.approx(-0.5 * math.log(6))


def test_len_loss_zero_on_budget():
    group = group_from([[0, 0], [0, 0]], [0.0, 0.0], advform=[0.0, 0.0])
    cfg = small_config(gamma=0.25)
    scores = np.array([0.25, 0.25])
    terms = terms_at(group, scores, cfg)
    assert terms.l_len == 0.0


def test_entropy_loss_at_half():
    group = group_from([[0, 0], [0, 0]], [0.0, 0.0], advform=[0.0, 0.0])
    cfg = small_config()
    scores = np.array([0.5, 0.5])
    terms = terms_at(group, scores, cfg)
    assert terms.l_ent == pytest.approx(-math.log(2))


def test_objective_on_empty_omega_adds_no_length_entropy_or_gradient():
    masks, adv = group_from([[1, 0], [0, 1]], [1.0, 0.0])
    omega = []  # the loss over no token: the masks and probabilities of no row
    terms = terms_at((masks[:, omega], adv), np.array([0.9, 0.1])[omega], small_config(gamma=0.3))
    assert (terms.l_len, terms.l_ent, terms.mean_p, terms.grad_b) == (0.0, 0.0, 0.0, 0.0)
    assert terms.grad_w.tolist() == [0.0]
    assert terms.total == terms.l_pg


# ---------------------------------------------------------------------------
# gradient assembly vs finite differences
# ---------------------------------------------------------------------------


def total_loss_given(params, feats, group, omega, cfg):
    return objective_on(group, feats, params, cfg, omega).total


def finite_diff_total(params, feats, group, omega, cfg, h=1e-6):
    gw = np.zeros_like(params.w)
    for i in range(params.dim):
        up = copy.deepcopy(params); up.w[i] += h
        dn = copy.deepcopy(params); dn.w[i] -= h
        gw[i] = (
            total_loss_given(up, feats, group, omega, cfg)
            - total_loss_given(dn, feats, group, omega, cfg)
        ) / (2 * h)
    up = copy.deepcopy(params); up.b += h
    dn = copy.deepcopy(params); dn.b -= h
    gb = (
        total_loss_given(up, feats, group, omega, cfg)
        - total_loss_given(dn, feats, group, omega, cfg)
    ) / (2 * h)
    return gw, gb


@pytest.mark.parametrize("seed", range(10))
def test_total_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    d = int(rng.integers(1, 9))
    feats = rng.normal(size=(n, d))
    params = ScorerParams(
        w=rng.normal(scale=0.4, size=d),
        b=float(rng.normal(scale=0.3)),
        tau=float(rng.uniform(0.7, 1.5)),
        norm_mean=rng.normal(scale=0.2, size=d),
        norm_var=rng.uniform(0.5, 2.0, size=d),
    )
    g = int(rng.integers(2, 5))
    masks = [(rng.random(n) < 0.5).astype(np.uint8) for _ in range(g)]
    rewards = rng.random(g)
    omega = sorted(rng.choice(n, size=max(2, n // 2), replace=False).tolist())
    cfg = small_config(gamma=0.3, lambda_len=0.01, beta_ent=1.0)
    group = group_from(masks, rewards)
    terms = objective_on(group, feats, params, cfg, omega)
    gw, gb = terms.grad_w, terms.grad_b
    fw, fb = finite_diff_total(params, feats, group, omega, cfg)
    ref = np.concatenate([fw, [fb]])
    got = np.concatenate([gw, [gb]])
    assert np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-8) < 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_policy_gradient_term_matches_per_mask_loop(seed):
    # reference: -(1/G) sum_j A_j sum_{i in omega} (m_ji - p_i) x~_i / tau, one
    # mask and one token at a time
    rng = np.random.default_rng(seed)
    n, d, g = 12, 3, 4
    feats = rng.normal(size=(n, d))
    params = identity_params(rng.normal(scale=0.5, size=d), b=0.1, tau=0.8)
    masks = [(rng.random(n) < 0.5).astype(np.uint8) for _ in range(g)]
    stack, adv = group_from(masks, rng.random(g))
    omega = sorted(rng.choice(n, size=8, replace=False).tolist())
    p = score(feats, params)
    assert np.all((p > 1e-3) & (p < 1 - 1e-3))  # no token near the clamp
    x = standardize(feats, params)
    ref_w, ref_b = np.zeros(d), 0.0
    for a, m in zip(adv, masks):
        for i in omega:
            ref_w -= a * (m[i] - p[i]) * x[i] / (g * params.tau)
            ref_b -= a * (m[i] - p[i]) / (g * params.tau)
    cfg = small_config(group_size=g, lambda_len=0.0, beta_ent=0.0)
    terms = objective_on((stack, adv), feats, params, cfg, omega)
    gw, gb = terms.grad_w, terms.grad_b
    assert np.allclose(gw, ref_w, rtol=1e-12, atol=1e-14)
    assert gb == pytest.approx(ref_b, rel=1e-12, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_pg_loss_equals_per_mask_log_prob_sum_exactly(g, n, seed):
    # pinned with ==: L_PG sums each mask's log-likelihood with its own 1-D
    # sum, which golden_metrics.json digests; a batched row sum may move the
    # last ulp.  The reference is the per-mask log-likelihood over omega,
    # written out; the loss over omega reads omega's rows.
    rng = np.random.default_rng(seed)
    p = rng.uniform(1e-6, 1 - 1e-6, size=n)
    omega = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
    masks = (rng.random((g, n)) < rng.random()).astype(np.uint8)
    adv = rng.normal(size=g)
    terms = terms_at((masks[:, omega], adv), p[omega], small_config(group_size=g))

    def per_mask_log_prob(mask):
        m, q = np.asarray(mask, dtype=np.float64)[omega], p[omega]
        return float(np.sum(m * np.log(q) + (1.0 - m) * np.log1p(-q)))

    assert terms.l_pg == float(-(adv * np.array([per_mask_log_prob(m) for m in masks])).mean())


def omega_objective(masks, advantages, fwd, params, omega, cfg):
    """Reference: the loss over the token subset ``omega`` computed the
    direct way, with every per-token array gathered through omega's index,
    one log-likelihood per mask and the entropy on its own.  On omega =
    every token, :func:`objective` must match it bit for bit."""
    g = advantages.size
    idx = np.asarray(omega, dtype=np.int64)
    x, p, interior = fwd.x[idx], fwd.p[idx], fwd.interior[idx]
    n, tau = idx.size, params.tau

    def log_prob(mask):
        m = np.asarray(mask, dtype=np.float64)[idx]
        return float(np.sum(m * np.log(p) + (1.0 - m) * np.log1p(-p)))

    log_probs = np.array([log_prob(m) for m in masks])
    with np.errstate(invalid="ignore"):
        l_pg = float(-(advantages * log_probs).mean())
    dz_pg = -(advantages @ (masks[:, idx] - p)) / (g * tau)
    mean_p = float(p.mean()) if n else 0.0
    l_len = float((mean_p - cfg.gamma) ** 2) if n else 0.0
    dp_dz = p * (1.0 - p)
    dz_len = 2.0 * (mean_p - cfg.gamma) * dp_dz / (n * tau)
    entropy = float((-(p * np.log(p) + (1.0 - p) * np.log1p(-p))).mean()) if n else 0.0
    l_ent = float(-entropy)
    dz_ent = -np.log((1.0 - p) / p) * dp_dz / (n * tau)
    dz = np.where(interior, dz_pg + cfg.lambda_len * dz_len + cfg.beta_ent * dz_ent, 0.0)
    return LossTerms(
        l_pg=l_pg,
        l_len=l_len,
        l_ent=l_ent,
        total=l_pg + cfg.lambda_len * l_len + cfg.beta_ent * l_ent,
        grad_w=dz @ x,
        grad_b=float(dz.sum()),
        mean_p=mean_p,
    )


@settings(max_examples=200, deadline=None)
@given(
    g=st.integers(1, 6),
    n=st.one_of(st.integers(0, 400), st.integers(8000, 20000)),  # 2K and 16K contexts
    d=st.integers(1, FEATURE_DIM),
    scale=st.sampled_from([0.1, 1.0, 30.0, 1e3]),  # the larger ones clamp p at either end
    inf_advantages=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_objective_equals_the_omega_gathering_loss_on_every_token(
    g, n, d, scale, inf_advantages, seed
):
    # training's omega is every token (arange(n), as tokenize sets it): there
    # the loss over every row must keep every bit of every term and gradient
    rng = np.random.default_rng(seed)
    params = identity_params(rng.normal(scale=scale, size=d), b=float(rng.normal()),
                             tau=float(rng.uniform(0.5, 2.0)))
    fwd = forward(rng.normal(size=(n, d)), params)
    masks = (rng.random((g, n)) < rng.random()).astype(np.uint8)
    adv = rng.normal(size=g)
    if inf_advantages:
        adv[rng.integers(g)] = rng.choice([np.inf, -np.inf])
    cfg = small_config(group_size=max(g, 2), gamma=float(rng.uniform(0.05, 0.5)),
                       lambda_len=float(rng.uniform(0, 1)), beta_ent=float(rng.uniform(0, 2)))
    with np.errstate(invalid="ignore"):  # +-inf advantages make NaN gradients
        got = objective(masks, adv, fwd, params, cfg)
        want = omega_objective(masks, adv, fwd, params, np.arange(n, dtype=np.int64), cfg)
    for field in dataclasses.fields(LossTerms):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


def test_total_gradient_at_extreme_logits_is_finite_and_ignores_clamped_tokens():
    # z = 1000 x: tokens 0, 1, 3, 4 are clamped (|z| >= 800), token 2 (z = 1) is not
    params = identity_params([1000.0])
    a = np.array([[-1.0], [-0.8], [0.001], [0.8], [1.0]])
    b = np.array([[-3.0], [-0.9], [0.001], [2.0], [0.9]])
    masks_a = [[1, 0, 1, 1, 0], [0, 0, 0, 1, 1], [1, 1, 1, 0, 0]]
    masks_b = [[0, 1, 1, 0, 1], [1, 1, 0, 0, 0], [0, 0, 1, 1, 1]]  # clamped bits differ
    rewards = [1.0, 0.0, 0.5]
    cfg = small_config(group_size=3, gamma=0.3, lambda_len=0.5, beta_ent=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terms_a = objective_on(group_from(masks_a, rewards), a, params, cfg)
        terms_b = objective_on(group_from(masks_b, rewards), b, params, cfg)
    gw, gb, gw_b, gb_b = terms_a.grad_w, terms_a.grad_b, terms_b.grad_w, terms_b.grad_b
    assert np.all(np.isfinite(gw)) and math.isfinite(gb)
    assert gw.tolist() == gw_b.tolist() and gb == gb_b
    assert gw[0] != 0.0 and gb != 0.0


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_zero_gradient_step_only_decays_weights():
    d = 3
    params = identity_params([0.5, -0.5, 1.0], b=0.3)
    opt = OptimizerState.zeros(d)
    feats = np.zeros((2, d))
    group = group_from([[0, 0], [0, 0]], [0.5, 0.5])  # zero advantages
    cfg = small_config(lambda_len=0.0, beta_ent=0.0, weight_decay=1e-2,
                       learning_rate=1e-4)
    w_before = params.w.copy()
    b_before = params.b
    grad_step(*group, forward(standardize(feats, params), params), params, opt, cfg)
    assert np.allclose(params.w, w_before * (1 - 1e-4 * 1e-2))
    assert params.b == b_before  # decay is decoupled and applies to w only


def test_grad_step_deterministic():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(5, 3))
    masks = [(rng.random(5) < 0.5).astype(np.uint8) for _ in range(3)]
    rewards = [1.0, 0.0, 0.5]

    def run():
        params = identity_params([0.1, 0.2, 0.3], b=0.0)
        opt = OptimizerState.zeros(3)
        group = group_from(masks, rewards)
        cfg = small_config(group_size=3)
        for _ in range(5):
            grad_step(*group, forward(standardize(feats, params), params), params, opt, cfg)
        return params.w.tobytes(), params.b

    assert run() == run()


def test_non_finite_gradient_skips_step(caplog):
    params = identity_params([0.1])
    opt = OptimizerState.zeros(1)
    feats = np.array([[1.0]])
    group = group_from([[1], [0]], [1.0, 0.0], advform=[np.inf, -np.inf])
    cfg = small_config()
    w_before = params.w.copy()
    grad_step(*group, forward(standardize(feats, params), params), params, opt, cfg)
    assert np.array_equal(params.w, w_before)
    assert opt.step == 0


def two_branch_adamw(terms, params, ref, cfg):
    """The AdamW step as it was written before (w, b) became one vector: a
    weight branch on arrays and a bias branch on Python floats.  ``ref``
    holds the moments as ``m_w``, ``v_w``, ``m_b``, ``v_b`` and ``step``."""
    grad_w, grad_b = terms.grad_w, terms.grad_b
    if not (np.all(np.isfinite(grad_w)) and math.isfinite(grad_b)):
        return
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    ref["step"] += 1
    t = ref["step"]
    ref["m_w"] = b1 * ref["m_w"] + (1 - b1) * grad_w
    ref["v_w"] = b2 * ref["v_w"] + (1 - b2) * grad_w**2
    ref["m_b"] = b1 * ref["m_b"] + (1 - b1) * grad_b
    ref["v_b"] = b2 * ref["v_b"] + (1 - b2) * grad_b**2
    m_w_hat = ref["m_w"] / (1 - b1**t)
    v_w_hat = ref["v_w"] / (1 - b2**t)
    m_b_hat = ref["m_b"] / (1 - b1**t)
    v_b_hat = ref["v_b"] / (1 - b2**t)
    lr = cfg.learning_rate
    params.w = params.w - lr * m_w_hat / (np.sqrt(v_w_hat) + eps) - lr * cfg.weight_decay * params.w
    params.b = float(params.b - lr * m_b_hat / (math.sqrt(v_b_hat) + eps))


def test_grad_step_equals_the_two_branch_update_bit_for_bit():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(40, FEATURE_DIM))
    params = identity_params(rng.normal(size=FEATURE_DIM) * 1e-3, b=1e-3)
    ref_params = copy.deepcopy(params)
    opt = OptimizerState.zeros(FEATURE_DIM)
    ref = {"m_w": np.zeros(FEATURE_DIM), "v_w": np.zeros(FEATURE_DIM),
           "m_b": 0.0, "v_b": 0.0, "step": 0}
    cfg = small_config(group_size=4, learning_rate=3e-2, weight_decay=5e-2)
    steps_taken = 0
    for k in range(24):
        masks = (rng.random((4, 40)) < 0.4).astype(np.uint8)
        skipped = k == 11
        steps_taken += not skipped
        group = group_from(masks, rng.random(4),
                           advform=[np.inf, -np.inf, 0.0, 0.0] if skipped else None)
        with np.errstate(invalid="ignore"):  # the skipped step's gradient sums inf - inf
            ref_terms = objective(*group, forward(standardize(feats, ref_params), ref_params),
                                  ref_params, cfg)
            two_branch_adamw(ref_terms, ref_params, ref, cfg)
            grad_step(*group, forward(standardize(feats, params), params), params, opt, cfg)
        assert opt.step == ref["step"] == steps_taken
        assert params.w.tobytes() == ref_params.w.tobytes()
        assert np.float64(params.b).tobytes() == np.float64(ref_params.b).tobytes()
        assert opt.m.tobytes() == np.append(ref["m_w"], ref["m_b"]).tobytes()
        assert opt.v.tobytes() == np.append(ref["v_w"], ref["v_b"]).tobytes()
        assert opt.to_dict() == {name: (value.tolist() if isinstance(value, np.ndarray)
                                        else value) for name, value in ref.items()}
    assert ref["step"] == 23 and ref["m_b"] != 0.0 and params.b != 1e-3


def test_objective_rejects_masks_of_the_wrong_shape():
    cfg = small_config()
    terms_at(group_from([[1, 0], [0, 1]], [1.0, 0.0]), [0.5, 0.5], cfg)
    with pytest.raises(StructureError):  # one mask for two advantages
        terms_at(group_from([[1, 0]], [1.0, 0.0], advform=[1.0, -1.0]), [0.5, 0.5], cfg)
    with pytest.raises(StructureError):  # masks over one token, forward pass over two
        terms_at(group_from([[1], [0]], [1.0, 0.0]), [0.5, 0.5], cfg)


# ---------------------------------------------------------------------------
# train / evaluate
# ---------------------------------------------------------------------------


def oracle_dataset(n=6, target=120, seed=0):
    return gen_dataset(n, target_tokens=target, seed=seed, n_clusters=2,
                       cluster_size=3, filler_gap=2)


def test_zero_steps_checkpoint_equals_initialization(tmp_path):
    data = oracle_dataset()
    solver = OracleSolver(OracleSolverConfig())
    cfg = TrainConfig(steps=0, seed=1)
    result = train(data, solver, cfg, out_dir=tmp_path)
    assert np.allclose(result.params.w, 0.0)
    assert result.params.b == pytest.approx(math.log(0.15 / 0.85))
    params, opt, cfg2, idf = load_checkpoint(result.checkpoint_path)
    assert np.allclose(params.w, result.params.w)
    assert opt.step == 0
    assert cfg2.to_dict() == cfg.to_dict()


def test_training_is_reproducible(tmp_path):
    data = oracle_dataset()
    cfg = TrainConfig(steps=12, seed=7, group_size=2)

    def run(sub):
        solver = OracleSolver(OracleSolverConfig())
        out = tmp_path / sub
        result = train(data, solver, cfg, out_dir=out)
        return (out / "metrics.jsonl").read_text(), result.params.w.tobytes()

    log_a, w_a = run("a")
    log_b, w_b = run("b")
    assert log_a == log_b
    assert w_a == w_b


def test_metrics_log_schema(tmp_path):
    data = oracle_dataset()
    solver = OracleSolver(OracleSolverConfig())
    result = train(data, solver, TrainConfig(steps=3, seed=0), out_dir=tmp_path)
    lines = result.metrics_path.read_text().strip().splitlines()
    assert len(lines) == 3
    record = json.loads(lines[0])
    assert set(record) == {"step", "rewards", "L_PG", "L_LEN", "L_ENT",
                           "mean_p", "k", "seed", "solver_attempts",
                           "solver_latency_ms", "covered_fraction", "spans"}
    assert len(record["rewards"]) == 4


def test_metrics_covered_fraction_and_spans_match_coalesced_masks(monkeypatch):
    from hilite import trainer
    from hilite.tokenization import tokenize

    data = oracle_dataset(n=3)
    cfg = TrainConfig(steps=5, seed=0, delta=3)
    groups = []
    original = trainer.rollout_group

    def recording(*args, **kwargs):
        group, failures = original(*args, **kwargs)
        groups.append(group)
        return group, failures

    monkeypatch.setattr(trainer, "rollout_group", recording)
    result = train(data, OracleSolver(OracleSolverConfig()), cfg)
    assert len(groups) == len(result.history) == 5
    for step, (group, record) in enumerate(zip(groups, result.history)):
        ctx = tokenize(data[step % len(data)].context)
        spans = group.spans
        covered = [spans_to_mask(s, len(ctx)).sum() / len(ctx) for s in spans]
        assert record["covered_fraction"] == pytest.approx(np.mean(covered))
        assert record["spans"] == pytest.approx(np.mean([len(s) for s in spans]))


def test_training_mutates_only_scorer_state():
    data = oracle_dataset()
    oracle_cfg = OracleSolverConfig(coverage_threshold=0.8)
    solver = OracleSolver(oracle_cfg)
    train(data, solver, TrainConfig(steps=4, seed=0))
    assert solver.cfg is oracle_cfg
    assert oracle_cfg.coverage_threshold == 0.8


def test_solver_failure_budget_aborts_with_partial_checkpoint(tmp_path):
    data = oracle_dataset(n=2)
    solver = ScriptedSolver(["<answer>x</answer>"], fail_first=10**6)
    cfg = TrainConfig(steps=50, seed=0, solver_failure_budget=5)
    with pytest.raises(SolverUnavailableError):
        train(data, solver, cfg, out_dir=tmp_path)
    assert (tmp_path / "checkpoint.json").exists()  # partial checkpoint written


def test_unparseable_solver_output_is_zero_reward_episode():
    data = oracle_dataset(n=2)
    solver = ScriptedSolver(["no tags at all"])
    result = train(data, solver, TrainConfig(steps=2, seed=0))
    for record in result.history:
        assert record["rewards"] == [0.0, 0.0, 0.0, 0.0]


def test_protocol_error_is_flagged_episode_not_crash():
    from hilite.errors import ProtocolError

    class BrokenSolver:
        output_contract = "answer-tag"

        def solve(self, query, emphasized, instance=None):
            raise ProtocolError("garbage payload")

    data = oracle_dataset(n=2)
    cfg = TrainConfig(steps=1, seed=0, solver_failure_budget=100)
    result = train(data, BrokenSolver(), cfg)
    assert result.history[0]["rewards"] == [0.0, 0.0, 0.0, 0.0]


def test_episode_leaves_an_unparsed_reply_as_the_solver_returned_it():
    reply = SolverOutput(raw_text="no tags at all", latency=0.25, attempt_count=2)

    class OneReplySolver:
        def solve(self, query, emphasized, instance=None):
            return reply

    inst = oracle_dataset(n=1)[0]
    ep = episode(OneReplySolver(), inst, inst.context, ANSWER_TAG, RewardSpec((("em", 1.0),)))
    assert ep == Episode(reply, 0.0, True) and ep.output is reply
    assert dataclasses.asdict(reply) == {"raw_text": "no tags at all", "latency": 0.25,
                                         "attempt_count": 2}


def test_train_builds_one_thread_pool_per_call(monkeypatch):
    from hilite import trainer

    built = []

    class CountingPool(trainer.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(trainer, "ThreadPoolExecutor", CountingPool)
    train(oracle_dataset(n=3), OracleSolver(OracleSolverConfig()),
          TrainConfig(steps=6, seed=0))
    assert built == [4]


def test_rollout_pool_threads_are_capped(monkeypatch):
    from hilite import trainer

    built = []

    class RecordingPool(trainer.ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(trainer, "ThreadPoolExecutor", RecordingPool)
    train(oracle_dataset(n=1), OracleSolver(OracleSolverConfig()),
          TrainConfig(steps=1, seed=0, group_size=40))
    assert built == [32]


class ThreadRecordingSolver:
    """Answers every call correctly and records, in call order, the thread
    that made it and the emphasized text it got.  Replies report
    ``latency`` seconds, after sleeping that long; calls whose index is in
    ``raising`` raise instead.  ``in_flight_at_start[c]`` counts the calls
    in flight when call c began, itself included."""

    output_contract = ANSWER_TAG

    def __init__(self, latency=0.0, raising=()):
        self.latency = latency
        self.raising = set(raising)
        self.threads, self.texts, self.in_flight_at_start = [], [], []
        self.in_flight = 0
        self.lock = threading.Lock()

    def solve(self, query, emphasized_context, instance=None):
        with self.lock:
            call = len(self.threads)
            self.threads.append(threading.get_ident())
            self.texts.append(emphasized_context)
            self.in_flight += 1
            self.in_flight_at_start.append(self.in_flight)
        try:
            if call in self.raising:
                raise SolverUnavailableError("scripted failure")
            time.sleep(self.latency)
            return SolverOutput(f"<answer>{instance.gold}</answer>", latency=self.latency)
        finally:
            with self.lock:
                self.in_flight -= 1


def recording_inject(monkeypatch) -> list[str]:
    """Every text ``markup.inject`` returns from now on, in call order."""
    from hilite import markup

    injected = []
    original = markup.inject

    def recording(*args, **kwargs):
        injected.append(original(*args, **kwargs))
        return injected[-1]

    monkeypatch.setattr(markup, "inject", recording)
    return injected


def test_zero_latency_rollouts_run_in_order_on_the_training_thread(monkeypatch):
    injected = recording_inject(monkeypatch)
    solver = ThreadRecordingSolver()
    cfg = TrainConfig(steps=5, seed=0)
    train(oracle_dataset(n=2), solver, cfg)
    g = cfg.group_size
    assert len(solver.threads) == 5 * g
    # the first step overlaps its calls on the pool; its replies took no time
    assert threading.get_ident() not in solver.threads[:g]
    assert solver.threads[g:] == [threading.get_ident()] * (4 * g)
    assert solver.texts[g:] == injected[g:]  # rollout order j = 0..G-1, step by step


def test_rollouts_that_report_latency_overlap_on_every_step():
    solver = ThreadRecordingSolver(latency=0.02)
    cfg = TrainConfig(steps=3, seed=0)
    train(oracle_dataset(n=2), solver, cfg)
    g = cfg.group_size
    assert threading.get_ident() not in solver.threads
    for step in range(cfg.steps):
        assert max(solver.in_flight_at_start[step * g:(step + 1) * g]) >= 2


def test_a_step_whose_calls_all_raised_is_followed_by_an_overlapped_step():
    g = TrainConfig().group_size
    solver = ThreadRecordingSolver(raising=range(g, 2 * g))  # every call of step 1
    cfg = TrainConfig(steps=4, seed=0, solver_failure_budget=g)
    train(oracle_dataset(n=2), solver, cfg)
    main = threading.get_ident()
    on_main = [[t == main for t in solver.threads[s * g:(s + 1) * g]] for s in range(4)]
    assert on_main == [[False] * g, [True] * g, [False] * g, [True] * g]


def test_train_at_gamma_one_is_rejected_before_any_featurizing_or_call(monkeypatch):
    from hilite import trainer

    data = oracle_dataset(n=2)
    result = train(data, OracleSolver(OracleSolverConfig()), TrainConfig(steps=0, seed=0))
    cfg = TrainConfig(steps=2, seed=0, gamma=1.0)
    featurized = []
    with monkeypatch.context() as patch:
        patch.setattr(trainer, "feature_parts", lambda *args: featurized.append(args))
        solver = ScriptedSolver(["<answer>x</answer>"])
        with pytest.raises(ConfigError, match="gamma"):
            train(data, solver, cfg)
    assert solver.calls == 0 and featurized == []
    report = evaluate(data, result.params, OracleSolver(OracleSolverConfig()), cfg,
                      result.idf_table)
    assert report["mean_highlight_fraction"] == 1.0


def test_duplicate_ranking_ids_are_zero_reward_episodes():
    data = [make_instance(gold="beta")]
    spec = RewardSpec((("hr", 1.0),), k=10)
    cfg = TrainConfig(steps=2, seed=0, solver_failure_budget=100)

    def rewards_for(reply):
        solver = ScriptedSolver([reply], output_contract="final-json")
        return [r["rewards"] for r in train(data, solver, cfg, reward_spec=spec).history]

    ok = '[{"id": "beta", "score": 2}, {"id": "gamma", "score": 1}]'
    dup = '[{"id": "beta", "score": 2}, {"id": "beta", "score": 1}]'
    assert rewards_for(f"<FINAL_JSON>{ok}</FINAL_JSON>") == [[1.0] * 4] * 2
    assert rewards_for(f"<FINAL_JSON>{dup}</FINAL_JSON>") == [[0.0] * 4] * 2


def test_ranking_reward_on_an_answer_tag_solver_is_rejected_before_any_call():
    data = [make_instance(gold="beta")]
    spec = RewardSpec((("hr", 1.0),))
    cfg = TrainConfig(steps=2, seed=0)
    result = train(data, ScriptedSolver(["<answer>beta</answer>"]), dataclasses.replace(cfg, steps=0))
    solver = ScriptedSolver(["<answer>beta</answer>"], output_contract=ANSWER_TAG)
    with pytest.raises(ConfigError, match="'hr'.*'answer-tag'"):
        train(data, solver, cfg, reward_spec=spec)
    with pytest.raises(ConfigError, match="'hr'.*'answer-tag'"):
        evaluate(data, result.params, solver, cfg, result.idf_table, reward_spec=spec)
    assert solver.calls == 0


def test_instances_sharing_an_id_each_train_on_their_own_context(monkeypatch):
    from hilite.markup import DEFAULT_FORMAT, strip

    first, second = oracle_dataset(n=2)
    second = dataclasses.replace(second, id=first.id)
    data = [first, second]
    injected = recording_inject(monkeypatch)
    cfg = TrainConfig(steps=6, seed=0)
    train(data, OracleSolver(OracleSolverConfig()), cfg)
    assert len(injected) == 6 * cfg.group_size
    for i, text in enumerate(injected):  # rollout_group injects in step order
        assert strip(text, DEFAULT_FORMAT) == data[i // cfg.group_size % 2].context


def test_source_holding_a_marker_is_a_flagged_episode_not_crash():
    inst = oracle_dataset(n=1)[0]
    inst = dataclasses.replace(inst, context=inst.context + " see <end_important> here")
    solver = OracleSolver(OracleSolverConfig())
    cfg = TrainConfig(steps=3, seed=0, solver_failure_budget=0)
    result = train([inst], solver, cfg)  # flagged episodes are not failures
    assert len(result.history) == 3
    report = evaluate([inst], result.params, solver, cfg, result.idf_table)
    assert report["flagged"] == 1
    assert report["rewards"] == [0.0]


class HashedRateSolver:
    """Answers correctly at a scripted rate: call c uses
    ``rates[c // calls_per_rate]`` (the last rate once they run out), and a
    hash of the emphasized text decides each answer."""

    output_contract = ANSWER_TAG

    def __init__(self, rates, calls_per_rate):
        self.rates = rates
        self.calls_per_rate = calls_per_rate
        self.calls = itertools.count()

    def solve(self, query, emphasized, instance=None):
        phase = next(self.calls) // self.calls_per_rate
        rate = self.rates[min(phase, len(self.rates) - 1)]
        draw = hashlib.sha256(emphasized.encode("utf-8")).digest()[0] / 256
        answer = instance.gold if draw < rate else "wrong"
        return SolverOutput(raw_text=f"<answer>{answer}</answer>")


def test_reward_collapse_raises_the_regression_flag(tmp_path):
    # 50 steps x G=4 calls per window: two windows near 0.8, then near 0.1
    solver = HashedRateSolver([0.8, 0.8, 0.1], calls_per_rate=200)
    result = train(oracle_dataset(), solver, TrainConfig(steps=150, seed=0),
                   out_dir=tmp_path)
    records = [json.loads(line) for line in result.metrics_path.read_text().splitlines()]
    flags = {r["step"]: r["reward_regressed"] for r in records if "reward_regressed" in r}
    assert flags == {49: False, 99: False, 149: True}


def test_reward_noise_does_not_raise_the_regression_flag():
    # a steady 0.4 success rate; at this seed the window ending at step 649
    # sits 0.1 below the one before it, a 2.4-sigma dip of the difference
    solver = HashedRateSolver([0.4], calls_per_rate=1)
    result = train(oracle_dataset(), solver, TrainConfig(steps=1000, seed=1))
    means = [np.mean(r["rewards"]) for r in result.history]
    assert np.mean(means[600:650]) < np.mean(means[550:600]) - 0.1
    assert not any(r.get("reward_regressed") for r in result.history)


def test_regression_flag_on_windows_without_spread():
    steady = np.full(50, 0.5)
    assert reward_regressed(steady, steady - 0.01)
    assert not reward_regressed(steady, steady)
    assert not reward_regressed(steady, steady + 0.01)


def test_empty_dataset_rejected():
    with pytest.raises(ConfigError):
        train([], ScriptedSolver(["x"]), TrainConfig(steps=1))


def test_group_size_floor():
    with pytest.raises(ConfigError):
        TrainConfig(group_size=1)


@pytest.mark.parametrize("name", ["lambda_len", "beta_ent", "learning_rate", "weight_decay",
                                  "idf_ceiling", "tau"])
def test_non_finite_config_value_rejected(name):
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: value})


@pytest.mark.parametrize("name,value", [
    ("gamma", True), ("delta", 2.5), ("seed", "x"), ("steps", 1.5), ("group_size", 2.5),
    ("steps", False), ("sampler", 1), ("marker_format", None), ("gamma", 10**400),
    ("seed", np.int64(3)),
])
def test_config_value_of_the_wrong_json_type_rejected(name, value):
    with pytest.raises(ConfigError, match=name):
        TrainConfig(**{name: value})
    with pytest.raises(ConfigError, match=name):
        TrainConfig.from_dict({name: value})


def test_config_float_field_takes_an_integer_as_a_float():
    cfg = TrainConfig(gamma=1, beta_ent=0)
    assert (type(cfg.gamma), type(cfg.beta_ent)) == (float, float)
    assert cfg.to_dict() == TrainConfig(gamma=1.0, beta_ent=0.0).to_dict()


def step_rows(parts, data):
    """Each instance's standardized rows as train builds them, one after the
    other in one shared buffer, copied out."""
    buf = np.empty((max(len(inst.tokens) for inst in data), FEATURE_DIM))
    return [part.rows(buf[:len(inst.tokens)]).copy()
            for part, inst in zip(parts, data)]


def test_training_rows_equal_standardized_features_bit_for_bit():
    # an empty and a one-token context among the needles, each after a
    # longer instance whose rows are still in the buffer
    data = oracle_dataset()
    data[2:2] = [make_instance(context="", inst_id="empty")]
    data[4:4] = [make_instance(context="beta", inst_id="one")]
    cfg = TrainConfig()
    params, idf_table, parts = init_from_dataset(data, cfg)
    raw = [featurize(inst.query, inst.tokens, idf_table, cfg.idf_ceiling) for inst in data]
    stacked = np.vstack(raw)
    assert params.norm_mean.tobytes() == stacked.mean(axis=0).tobytes()
    assert params.norm_var.tobytes() == stacked.var(axis=0).tobytes()
    assert params.to_dict() == init_params(raw, tau=cfg.tau, init_prob=cfg.gamma).to_dict()
    rows = step_rows(parts, data)
    assert [len(r) for r in rows[2:5]] == [0, len(data[3].tokens), 1]
    for got, inst_feats in zip(rows, raw):
        assert got.tobytes() == standardize(inst_feats, params).tobytes()


def test_init_from_dataset_keeps_less_than_a_quarter_of_the_feature_rows():
    # numpy reports its buffers to tracemalloc; (n, 7) float64 rows would
    # take 56 bytes per token
    data = gen_dataset(40, target_tokens=2000, seed=3)
    n_tokens = sum(len(inst.tokens) for inst in data)  # tokenized before tracing
    tracemalloc.start()
    try:
        kept = init_from_dataset(data, TrainConfig())
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept[2]) == len(data)
    assert current < n_tokens * FEATURE_DIM * 8 / 4


def test_training_forward_pass_equals_inference_scores():
    data = oracle_dataset()
    cfg = TrainConfig()
    params, idf_table, parts = init_from_dataset(data, cfg)
    params.w = np.random.default_rng(5).normal(size=FEATURE_DIM)  # so p varies by token
    for inst, rows in zip(data, step_rows(parts, data)):
        inference = score(featurize(inst.query, inst.tokens, idf_table, cfg.idf_ceiling), params)
        assert np.array_equal(forward(rows, params).p, inference)


def test_training_split_without_tokens_rejected():
    for data in ([], [make_instance(context="")]):
        with pytest.raises(ConfigError, match="no tokens"):
            init_from_dataset(data, TrainConfig())


def test_oracle_reading_another_marker_format_rejected_before_any_call():
    class CountingOracle(OracleSolver):
        calls = 0

        def solve(self, *args):
            CountingOracle.calls += 1
            return super().solve(*args)

    data = oracle_dataset(n=2)
    cfg = TrainConfig(steps=2, seed=0, marker_format="brace")
    solver = CountingOracle(OracleSolverConfig())
    with pytest.raises(ConfigError, match="'default'.*'brace'"):
        train(data, solver, cfg)
    assert CountingOracle.calls == 0
    result = train(data, CountingOracle(OracleSolverConfig(), get_format("brace")), cfg)
    CountingOracle.calls = 0
    with pytest.raises(ConfigError, match="'default'.*'brace'"):
        evaluate(data, result.params, solver, cfg, result.idf_table)
    assert CountingOracle.calls == 0


def test_evaluate_smoke_and_identity_cases(tmp_path):
    data = oracle_dataset(n=3)
    solver = OracleSolver(OracleSolverConfig())
    cfg = TrainConfig(steps=0, seed=0)
    result = train(data, solver, cfg)
    report = evaluate(data, result.params, solver, cfg, result.idf_table)
    assert report["n"] == 3
    assert 0.0 <= report["mean_reward"] <= 1.0
    assert 0.0 <= report["mean_highlight_fraction"] <= 1.0
    assert "evidence" in report


def test_evaluate_reports_covered_fraction_and_span_count():
    from hilite.markup import coalesce
    from hilite.policy import featurize
    from hilite.selection import Budget, topk
    from hilite.tokenization import tokenize

    data = oracle_dataset(n=4)
    solver = OracleSolver(OracleSolverConfig())
    result = train(data, solver, TrainConfig(steps=0, seed=0))
    for delta in (0, 4):
        cfg = TrainConfig(steps=0, seed=0, delta=delta)
        covered, n_spans = [], []
        for inst in data:
            ctx = tokenize(inst.context)
            probs = score(featurize(inst.query, ctx, result.idf_table, cfg.idf_ceiling),
                          result.params)
            mask = topk(probs, ctx.omega, Budget.for_omega(cfg.gamma, len(ctx.omega)).k)
            spans = coalesce(mask, ctx, delta)
            covered.append(spans_to_mask(spans, len(ctx)).sum() / len(ctx))
            n_spans.append(len(spans))
        reports = {variant: evaluate(data, result.params, solver, cfg, result.idf_table,
                                     variant=variant)
                   for variant in ("hilite", "pruned", "random", "no-highlight")}
        for variant in ("hilite", "pruned"):
            assert reports[variant]["mean_covered_fraction"] == pytest.approx(np.mean(covered))
            assert reports[variant]["mean_spans"] == pytest.approx(np.mean(n_spans))
        assert reports["no-highlight"]["mean_covered_fraction"] == 0.0
        assert reports["no-highlight"]["mean_spans"] == 0.0
        for report in reports.values():
            # without bridging the spans cover exactly the selected tokens
            if delta == 0:
                assert report["mean_covered_fraction"] == pytest.approx(
                    report["mean_highlight_fraction"])
            assert report["mean_covered_fraction"] >= report["mean_highlight_fraction"]
    random = reports["random"]  # at delta 4 a random mask's spans bridge gaps
    assert random["mean_covered_fraction"] > random["mean_highlight_fraction"]
    assert random["mean_spans"] >= 1.0


def test_evidence_report_identity():
    # scorer that puts all gold tokens above threshold and others below
    # yields evidence F1 = 1 through the evaluate path
    from hilite.data import evidence_overlap
    from hilite.tokenization import tokenize

    inst = oracle_dataset(n=1)[0]
    ctx = tokenize(inst.context)
    gold = gold_token_indices(ctx, inst.evidence_spans)
    probs = np.full(len(ctx.tokens), 0.1)
    probs[list(gold)] = 0.9
    p, r, f1 = evidence_overlap(probs, 0.5, inst.evidence_spans, ctx)
    assert (p, r, f1) == (1.0, 1.0, 1.0)


def test_evidence_half_coverage_values():
    from hilite.data import evidence_overlap
    from hilite.tokenization import tokenize

    inst = oracle_dataset(n=1)[0]
    ctx = tokenize(inst.context)
    gold = sorted(gold_token_indices(ctx, inst.evidence_spans))
    probs = np.full(len(ctx.tokens), 0.1)
    half = gold[: len(gold) // 2]
    probs[half] = 0.9
    p, r, f1 = evidence_overlap(probs, 0.5, inst.evidence_spans, ctx)
    assert p == 1.0
    assert r == pytest.approx(len(half) / len(gold))
    assert f1 == pytest.approx(2 * r / (1 + r))


def test_evaluate_variants(tmp_path):
    data = oracle_dataset(n=3)
    solver = OracleSolver(OracleSolverConfig())
    cfg = TrainConfig(steps=0, seed=0)
    result = train(data, solver, cfg)
    for variant in ("hilite", "random", "pruned", "no-highlight"):
        report = evaluate(data, result.params, solver, cfg, result.idf_table,
                          variant=variant)
        assert report["variant"] == variant
    # no-highlight and pruned inputs carry no tags: oracle yields zero reward
    plain = evaluate(data, result.params, solver, cfg, result.idf_table,
                     variant="no-highlight")
    assert plain["mean_reward"] == 0.0


class TimedSolver:
    """Answers with fixed transport bookkeeping; the first call raises."""

    output_contract = ANSWER_TAG

    def __init__(self):
        self.calls = 0
        self.lock = threading.Lock()

    def solve(self, query, emphasized_context, instance=None):
        with self.lock:  # the trainer calls from its pool threads
            self.calls += 1
            call = self.calls
        if call == 1:
            raise SolverUnavailableError("scripted failure")
        return SolverOutput("<answer>x</answer>", latency=call / 1000, attempt_count=2)


def test_metrics_record_solver_attempts_and_latency(tmp_path):
    data = oracle_dataset(n=2)
    cfg = TrainConfig(steps=2, seed=0, group_size=4)
    result = train(data, TimedSolver(), cfg, out_dir=tmp_path)
    records = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert records == result.history
    # step 0: calls 1-4, the first raised; step 1: calls 5-8
    assert [r["solver_attempts"] for r in records] == [6, 8]
    assert [r["solver_latency_ms"] for r in records] == pytest.approx([4.0, 8.0])


def test_evaluate_reports_solver_attempts(scripted_server, fast_backoff):
    url, handler = scripted_server
    inst = oracle_dataset(n=1)[0]
    cfg = TrainConfig(steps=0, seed=0)
    result = train([inst], OracleSolver(OracleSolverConfig()), cfg)
    handler.script.extend([(429, {"err": "slow down"}), (200, {"text": "<answer>x</answer>"})])
    solver = HTTPSolver(EndpointConfig(url=url, timeout=5.0), TEMPLATES["qa"])
    report = evaluate([inst], result.params, solver, cfg, result.idf_table)
    assert report["solver_attempts"] == 2
    latency = report["solver_latency_ms"]
    assert 0.0 < latency["p50"] <= latency["p99"]
    oracle = evaluate([inst], result.params, OracleSolver(OracleSolverConfig()), cfg,
                      result.idf_table)
    assert oracle["solver_attempts"] == 1
    assert oracle["solver_latency_ms"] == {"p50": 0.0, "p99": 0.0}


def test_evaluate_aborts_once_solver_failures_exceed_the_budget():
    data = oracle_dataset(n=4)
    cfg = TrainConfig(steps=0, seed=0, solver_failure_budget=2)
    result = train(data, OracleSolver(OracleSolverConfig()), cfg)
    solver = ScriptedSolver(["<answer>x</answer>"], fail_first=10**6)
    with pytest.raises(SolverUnavailableError, match="3 solver failures"):
        evaluate(data, result.params, solver, cfg, result.idf_table)
    assert solver.calls == 3  # the pass stops at the failure over budget


def test_evaluate_within_the_failure_budget_flags_the_failed_episodes():
    data = oracle_dataset(n=4)
    cfg = TrainConfig(steps=0, seed=0, solver_failure_budget=2)
    result = train(data, OracleSolver(OracleSolverConfig()), cfg)
    solver = ScriptedSolver(["<answer>x</answer>"], fail_first=2)
    report = evaluate(data, result.params, solver, cfg, result.idf_table)
    assert report["n"] == 4 and report["flagged"] == 2
    assert report["rewards"][:2] == [0.0, 0.0]


def test_evaluate_counts_protocol_errors_as_flagged_failures_and_aborts_over_budget():
    from hilite.errors import ProtocolError

    class BrokenSolver:
        output_contract = "answer-tag"
        calls = 0

        def solve(self, query, emphasized, instance=None):
            self.calls += 1
            raise ProtocolError("garbage payload")

    data = oracle_dataset(n=4)
    cfg = TrainConfig(steps=0, seed=0, solver_failure_budget=4)
    result = train(data, OracleSolver(OracleSolverConfig()), cfg)
    report = evaluate(data, result.params, BrokenSolver(), cfg, result.idf_table)
    assert report["flagged"] == 4 and report["rewards"] == [0.0] * 4
    assert report["solver_attempts"] == 0  # a call that raised left no reply
    solver = BrokenSolver()
    with pytest.raises(SolverUnavailableError, match="3 solver failures"):
        evaluate(data, result.params, solver, dataclasses.replace(cfg, solver_failure_budget=2),
                 result.idf_table)
    assert solver.calls == 3  # the pass stops at the failure over budget


# ---------------------------------------------------------------------------
# inference rule
# ---------------------------------------------------------------------------

HIGHLIGHT_WORDS = ["alpha", "Straße", "ΣΑΣ", "42", ",", ".", "vault", "日本語", "key"]


@settings(max_examples=200, deadline=None)
@given(words=st.lists(st.sampled_from(HIGHLIGHT_WORDS), max_size=40),
       gamma=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True)),
       delta=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_highlight_selects_the_budget_on_omega_and_coalesces_it(words, gamma, delta, seed):
    from hilite.markup import coalesce
    from hilite.tokenization import tokenize

    rng = np.random.default_rng(seed)
    ctx = tokenize(" ".join(words))  # omega is every token
    probs = rng.random(len(ctx))
    mask, spans = highlight(probs, ctx, gamma, delta)
    assert mask.sum() == (math.floor(gamma * len(ctx.omega)) if gamma else 0)
    selected = np.flatnonzero(mask)
    assert np.isin(selected, ctx.omega).all()
    unselected = np.setdiff1d(ctx.omega, selected)
    if selected.size and unselected.size:  # the largest p on omega
        assert probs[selected].min() >= probs[unselected].max()
    assert np.array_equal(spans, coalesce(mask, ctx, delta))
    assert spans.dtype == np.int64 and spans.shape[1:] == (2,)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    params = identity_params(np.arange(FEATURE_DIM, dtype=np.float64), b=-0.5)
    rng = np.random.default_rng(2)
    opt = OptimizerState(m=rng.normal(size=FEATURE_DIM + 1),
                         v=rng.random(FEATURE_DIM + 1) * 1e-7, step=9)
    cfg = TrainConfig(steps=5)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, opt, cfg, {"word": 1.5})
    p2, o2, c2, idf = load_checkpoint(path)
    assert np.array_equal(p2.w, params.w)
    assert p2.b == params.b
    assert o2.m.tobytes() == opt.m.tobytes() and o2.v.tobytes() == opt.v.tobytes()
    assert o2.step == 9
    assert idf == {"word": 1.5}
    assert c2.to_dict() == cfg.to_dict()


# TrainConfig fields that became module constants, with the values they held
RETIRED_CONFIG = {"adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8,
                  "advantage_eps": 1e-8, "eval_threshold": 0.5, "prune_joiner": " ... "}


def test_checkpoint_with_retired_config_keys_loads_unchanged(tmp_path):
    result = train(oracle_dataset(n=2), OracleSolver(OracleSolverConfig()),
                   TrainConfig(steps=3, seed=1), out_dir=tmp_path)
    record = json.loads(result.checkpoint_path.read_text())
    record["config"].update(RETIRED_CONFIG)
    # older checkpoints also carried a config digest and a copy of idf_ceiling
    record["config_hash"] = "0" * 64
    record["featurizer"]["idf_ceiling"] = record["config"]["idf_ceiling"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(record))
    params, opt, cfg, idf = load_checkpoint(result.checkpoint_path)
    old_params, old_opt, old_cfg, old_idf = load_checkpoint(old)
    assert old_cfg == cfg
    assert old_params.to_dict() == params.to_dict() == result.params.to_dict()
    assert old_opt.to_dict() == opt.to_dict() == result.opt.to_dict()
    assert old_idf == idf


def key_paths(record, path=()):
    """Every key path of a checkpoint record, the ``config`` section's and
    the idf table's words excepted."""
    for key, value in record.items():
        yield (*path, key)
        if isinstance(value, dict) and (*path, key) not in {("config",),
                                                            ("featurizer", "idf_table")}:
            yield from key_paths(value, (*path, key))


def test_every_checkpoint_value_outside_config_is_needed(tmp_path):
    # config is exempt: TrainConfig.from_dict gives a missing field its default
    path = tmp_path / "ck.json"
    write_checkpoint(path)
    record = json.loads(path.read_text())
    assert record.keys() == {"version", "params", "opt_state", "config", "featurizer"}
    assert record["featurizer"].keys() == {"idf_table"}
    for *keys, last in key_paths(record):
        broken = copy.deepcopy(record)
        section = broken
        for key in keys:
            section = section[key]
        del section[last]
        path.write_text(json.dumps(broken))
        with pytest.raises(IntegrityError):
            load_checkpoint(path)


@pytest.mark.parametrize("case", ["config-list", "config-string", "config-null"])
def test_checkpoint_whose_config_is_not_an_object_is_corrupt(tmp_path, case):
    path = tmp_path / "ck.json"
    write_checkpoint(path, corrupt=case)
    with pytest.raises(IntegrityError, match="config must be a JSON object"):
        load_checkpoint(path)
    with pytest.raises(ConfigError):
        TrainConfig.from_dict(json.loads(path.read_text())["config"])


@pytest.mark.parametrize("case, reason", [
    ("m-w-short", rf"opt_state\.m_w and opt_state\.v_w must each hold {FEATURE_DIM} finite"),
    ("v-w-nan", rf"opt_state\.m_w and opt_state\.v_w must each hold {FEATURE_DIM} finite"),
    ("v-b-negative", r"opt_state\.v_w and opt_state\.v_b must be >= 0"),
    ("step-negative", r"opt_state\.step must be a non-negative integer, not -3"),
    ("step-bool", r"opt_state\.step must be a non-negative integer, not True"),
], ids=["m-w-short", "v-w-nan", "v-b-negative", "step-negative", "step-bool"])
def test_checkpoint_with_a_corrupt_optimizer_state_is_rejected(tmp_path, case, reason):
    path = tmp_path / "ck.json"
    write_checkpoint(path, corrupt=case)
    with pytest.raises(IntegrityError, match=reason):
        load_checkpoint(path)


@pytest.mark.parametrize("case, field", [
    ("b-true", r"params\.b must be a finite number, not true"),
    ("tau-string", r'params\.tau must be a finite number, not "1"'),
    ("w-numeric-string", r'params\.w\[0\] must be a finite number, not "0\.5"'),
    ("m-b-string", r'opt_state\.m_b must be a finite number, not "2"'),
    ("v-w-false", r"opt_state\.v_w\[0\] must be a finite number, not false"),
], ids=["b-true", "tau-string", "w-numeric-string", "m-b-string", "v-w-false"])
def test_checkpoint_number_that_is_not_a_json_number_is_corrupt(tmp_path, case, field):
    # booleans and numeric strings convert to floats, so only the JSON type rule stops them
    path = tmp_path / "ck.json"
    write_checkpoint(path, corrupt=case)
    with pytest.raises(IntegrityError, match=field):
        load_checkpoint(path)


def test_corrupt_checkpoint_rejected(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text("{ not json")
    with pytest.raises(IntegrityError):
        load_checkpoint(path)
    path.write_text(json.dumps({"version": 99}))
    with pytest.raises(IntegrityError):
        load_checkpoint(path)
    with pytest.raises(IntegrityError):
        load_checkpoint(tmp_path / "missing.json")
    write_checkpoint(path)
    load_checkpoint(path)
    for case in CORRUPT_CHECKPOINT_FIELDS:
        write_checkpoint(path, corrupt=case)
        with pytest.raises(IntegrityError):
            load_checkpoint(path)
