"""Grouped policy-gradient training against a frozen solver.

One training step on one instance:

1. score all context tokens, giving the Bernoulli policy p;
2. sample G preliminary masks, project each to the budget
   k = floor(gamma * n) of the context's n tokens (largest p first),
   coalesce with gap delta,
   inject markers, and query the solver with the emphasized text;
3. normalize the G rewards into advantages A_j = (r_j - mean) / (std + eps)
   using the population standard deviation (all-equal rewards give all-zero
   advantages);
4. minimize  L = L_PG + lambda_len * L_LEN + beta_ent * L_ENT  where

       L_PG  = -(1/G) sum_j A_j log pi(prelim mask_j)
       L_LEN = (mean_i p_i - gamma)^2
       L_ENT = -(mean Bernoulli entropy over the tokens)

   with one AdamW step (decoupled weight decay on the weight vector) over
   the analytic gradient; :func:`objective` computes both.
   Log-probabilities are always evaluated on the pre-projection masks; the
   projected mask only shapes the emphasized text.

Sampling, budgets and the loss run over the context's tokens, the paper's
index set omega with no token excluded.
:func:`init_from_dataset` keeps each training instance's features as a
per-vocabulary table, standardized once per entry, and two per-token flag
arrays.  Each step gathers the instance's standardized rows into one buffer
that lives for the run and runs one forward pass of the scorer on them,
used for both sampling and the update.
:func:`objective` computes every term, value and gradient, from that
forward pass, the (G, n) stack of pre-projection masks and the G
advantages; a :class:`GroupSample` keeps no projected mask.  The solver is
frozen: training mutates scorer parameters and optimizer state, nothing
else.  One pool of min(G, :data:`MAX_ROLLOUT_WORKERS`) threads lives for
the whole run, and a step maps the solver over its G emphasized texts on it
only when the calls wait on a transport (see :func:`train`); an in-process
solver, which holds the interpreter lock anyway, is called in rollout order
on the training thread.  Episodes are assembled by rollout index either
way, so no output depends on the choice, and the parameter update is
single-writer.  Every run is reproducible from
(config, seed): sampling streams derive from (seed, instance id, group
index, step).
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import markup, policy
from .data import Instance, evidence_overlap
from .errors import (
    ConfigError,
    HiliteError,
    IntegrityError,
    ParseError,
    ProtocolError,
    SolverUnavailableError,
    StructureError,
)
from .markup import BUILTIN_FORMATS, MarkerFormat, Mask, Spans, get_format
from .policy import FeatureParts, ScorerParams, build_idf_table, feature_parts
from .rewards import DEFAULT_REWARD_SPEC, RANKING_METRICS, RewardSpec, composite
from .selection import Budget, SamplerKind, random_mask, rng_stream, sample_mask, topk
from .solver import FINAL_JSON, FREE_TEXT, SolverOutput, parse_output
# unused here, but perfbench/run.py's install_tracing wraps trainer.featurize,
# trainer.score and trainer.tokenize
from .policy import featurize, score  # noqa: F401
from .tokenization import tokenize  # noqa: F401

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1


# AdamW moment decay rates and the epsilon of its update's denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# added to the group's reward standard deviation in :func:`advantages`
ADVANTAGE_EPS = 1e-8
# :func:`evaluate` counts a token as predicted evidence at p >= this
EVIDENCE_THRESHOLD = 0.5
# :func:`evaluate` joins the span texts of the "pruned" variant with this
PRUNE_JOINER = " ... "
# most threads :func:`train` runs rollouts on, ThreadPoolExecutor's default ceiling
MAX_ROLLOUT_WORKERS = 32

JSON_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
                   str: "a string", dict: "a JSON object"}


def json_typed(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind``, a float kind's number as a
    float; ConfigError naming ``what`` otherwise.  Neither ``true`` nor
    ``false`` is a number, and a number must fit a float: NaN and Infinity
    do not."""
    fits = (isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
            if kind is float else isinstance(value, kind))
    if fits and isinstance(value, bool) == (kind is bool):
        return float(value) if kind is float else value
    raise ConfigError(f"{what} must be {JSON_TYPE_NAMES[kind]}, "
                      f"not {json.dumps(value, default=repr)}")


@dataclass
class TrainConfig:
    """Hyperparameters for grouped policy-gradient training.

    The paper's (G, gamma, delta, lambda_len, beta_ent, tau, and AdamW's
    learning rate and weight decay) plus run settings; values that no run
    varies are module constants.  Every field must have the JSON type in
    :data:`CONFIG_FIELD_TYPES`, whether it comes from Python, a config file
    or a checkpoint.  :meth:`from_dict` ignores unknown keys, so checkpoints
    that still carry retired fields load.
    """

    group_size: int = 4
    gamma: float = 0.15
    delta: int = 10
    lambda_len: float = 0.01
    beta_ent: float = 1.0
    learning_rate: float = 1e-4
    weight_decay: float = 1e-2
    steps: int = 1000
    seed: int = 0
    sampler: SamplerKind = SamplerKind.BERNOULLI_PROJECT
    marker_format: str = "default"
    tau: float = 1.0
    idf_ceiling: float = 6.0
    solver_failure_budget: int = 10

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name,
                    json_typed(getattr(self, f.name), CONFIG_FIELD_TYPES[f.name], f.name))
        if self.group_size < 2:
            raise ConfigError("group_size must be >= 2 (advantages need variance)")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("gamma must lie in (0, 1]")
        if self.delta < 0:
            raise ConfigError("delta must be >= 0")
        for name in ("lambda_len", "beta_ent", "learning_rate", "weight_decay", "idf_ceiling"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, not {value!r}")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        try:
            self.sampler = SamplerKind(self.sampler)
        except ValueError:
            raise ConfigError(f"unknown sampler {self.sampler!r} (expected one of "
                              f"{', '.join(kind.value for kind in SamplerKind)})") from None
        if self.marker_format not in BUILTIN_FORMATS:
            raise ConfigError(f"unknown marker_format {self.marker_format!r} "
                              f"(expected one of {', '.join(BUILTIN_FORMATS)})")
        if self.tau <= 0:
            raise ConfigError(f"tau must be > 0, not {self.tau!r}")
        if self.solver_failure_budget < 0:
            raise ConfigError("solver_failure_budget must be >= 0")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["sampler"] = self.sampler.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be a JSON object, not {type(d).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})


# every TrainConfig field -> the JSON type of its value: its default's type,
# except the sampler enum, which config files and checkpoints name by string
CONFIG_FIELD_TYPES = {f.name: type(f.default) for f in fields(TrainConfig)} | {"sampler": str}


@dataclass
class GroupSample:
    """What one instance's G rollouts leave for the update and the step
    record.  ``prelim_masks`` is the (G, n) ``uint8`` stack of
    pre-projection masks, row j for rollout j, that :func:`objective` reads
    with ``advantages``; ``episodes`` holds each rollout's :class:`Episode`
    and ``spans`` its projected mask's coalesced spans.  The projected
    masks and the G emphasized texts are not kept."""

    prelim_masks: np.ndarray
    episodes: list[Episode]
    advantages: np.ndarray
    spans: list[np.ndarray]


@dataclass
class OptimizerState:
    """AdamW moment accumulators over the parameter vector (w, b): ``m``
    and ``v`` hold one entry per weight and the bias last.  Checkpoints keep
    them as ``m_w``/``v_w`` lists and ``m_b``/``v_b`` numbers.  ``v`` is
    never negative and ``step`` is a non-negative ``int``."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    def __post_init__(self):
        if np.any(self.v < 0):
            raise StructureError("opt_state.v_w and opt_state.v_b must be >= 0")
        if type(self.step) is not int or self.step < 0:  # bool is no step count
            raise StructureError(
                f"opt_state.step must be a non-negative integer, not {self.step!r}")

    @classmethod
    def zeros(cls, dim: int) -> "OptimizerState":
        return cls(m=np.zeros(dim + 1), v=np.zeros(dim + 1))

    def to_dict(self) -> dict:
        return {
            "m_w": self.m[:-1].tolist(),
            "v_w": self.v[:-1].tolist(),
            "m_b": float(self.m[-1]),
            "v_b": float(self.v[-1]),
            "step": self.step,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerState":
        """The state a checkpoint's ``opt_state`` holds, ``step`` as
        stored."""
        return cls(
            m=np.concatenate((np.asarray(d["m_w"], dtype=np.float64), [float(d["m_b"])])),
            v=np.concatenate((np.asarray(d["v_w"], dtype=np.float64), [float(d["v_b"])])),
            step=d["step"],
        )


def advantages(rewards) -> np.ndarray:
    """Group-normalized advantages with population standard deviation.

    All-equal rewards give exactly zero advantages (0 / (0 + eps)).
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < 2:
        raise ConfigError("advantage normalization needs a group of >= 2")
    if np.all(r == r[0]):  # exact zeros, not fp residue of mean subtraction
        return np.zeros_like(r)
    return (r - r.mean()) / (r.std() + ADVANTAGE_EPS)


@dataclass
class LossTerms:
    """One step's loss terms, their weighted sum ``total``, and the sum's
    gradient (``grad_w``, ``grad_b``).  ``mean_p`` is the mean probability
    over the tokens (0.0 when there are none)."""

    l_pg: float
    l_len: float
    l_ent: float
    total: float
    grad_w: np.ndarray
    grad_b: float
    mean_p: float


def objective(
    masks: np.ndarray,
    advantages: np.ndarray,
    fwd: policy.Forward,
    params: ScorerParams,
    cfg: TrainConfig,
) -> LossTerms:
    """L = L_PG + lambda_len * L_LEN + beta_ent * L_ENT and its analytic
    gradient with respect to (w, b), from the pre-projection ``masks``, the
    ``advantages`` and ``fwd``, the step's forward pass: the G
    log-likelihoods log pi(mask_j) are evaluated here, on ``fwd.p``.  The
    loss runs over every row of ``fwd``; a caller that wants a subset of
    the tokens passes the forward pass and masks of those rows.  ``masks``
    must be a (G, n) stack with one row per advantage and one column per
    row of ``fwd``; any other shape raises StructureError.

    The gradient holds masks and advantages fixed and matches central finite
    differences of ``total``; clamped tokens contribute zero everywhere,
    like the clamped forward pass they correspond to.  A forward pass over
    no tokens adds no length penalty, entropy or gradient.
    """
    g = advantages.size
    x, p, interior = fwd.x, fwd.p, fwd.interior
    n, tau = p.size, params.tau
    if masks.shape != (g, n):
        raise StructureError(f"masks of shape {masks.shape} for {g} advantages "
                             f"over {n} tokens")

    # policy gradient: L_PG = -(1/G) sum_j A_j log pi(m_j), dz = -(1/G) sum_j A_j (m_j - p) / tau;
    # the mask term's product over the Fortran-ordered stack gives the bits the
    # golden metrics record; over the C-ordered stack the last bits differ
    logs = policy.bernoulli_logs(p)  # read by the log-likelihoods and the entropy
    log_probs = policy.log_prob(masks, p, logs)
    with np.errstate(invalid="ignore"):  # +-inf advantages give NaN; grad_step skips the step
        l_pg = float(-(advantages * log_probs).mean())
    dz_pg = -(advantages @ (np.asfortranarray(masks) - p)) / (g * tau)

    # length: L_LEN = (mean p - gamma)^2, dz = 2 (mean p - gamma) * dp/dz / (n tau)
    mean_p = float(p.mean()) if n else 0.0
    l_len = float((mean_p - cfg.gamma) ** 2) if n else 0.0
    dp_dz = p * (1.0 - p)
    dz_len = 2.0 * (mean_p - cfg.gamma) * dp_dz / (n * tau)

    # entropy bonus: L_ENT = -H, dz = -ln((1-p)/p) * dp/dz / (n tau)
    l_ent = float(-policy.entropy(p, logs))
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


def grad_step(
    masks: np.ndarray,
    advantages: np.ndarray,
    fwd: policy.Forward,
    params: ScorerParams,
    opt: OptimizerState,
    cfg: TrainConfig,
) -> LossTerms:
    """Evaluate :func:`objective` and apply one AdamW update, in place on
    ``params`` and ``opt``, to the vector (w, b): ``grad_b`` is appended to
    ``grad_w``.  Decoupled weight decay applies to the weight vector only.
    A non-finite gradient skips the update (logged)."""
    terms = objective(masks, advantages, fwd, params, cfg)
    grad = np.append(terms.grad_w, terms.grad_b)
    if not np.all(np.isfinite(grad)):
        log.warning("non-finite gradient at optimizer step %d; skipped", opt.step + 1)
        return terms
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    opt.step += 1
    t = opt.step
    opt.m = b1 * opt.m + (1 - b1) * grad
    opt.v = b2 * opt.v + (1 - b2) * grad**2
    m_hat = opt.m / (1 - b1**t)
    v_hat = opt.v / (1 - b2**t)
    lr = cfg.learning_rate
    update = lr * m_hat / (np.sqrt(v_hat) + eps)
    params.w = params.w - update[:-1] - lr * cfg.weight_decay * params.w
    params.b = float(params.b - update[-1])
    return terms


# ---------------------------------------------------------------------------
# End-to-end training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: ScorerParams
    opt: OptimizerState
    idf_table: dict[str, float]
    history: list[dict]
    checkpoint_path: Path | None = None
    metrics_path: Path | None = None


class _RawRows:
    """The raw feature rows of each training instance, one block per
    instance, built afresh into one shared buffer on every pass: what
    :func:`policy.init_params` reads twice."""

    def __init__(self, parts: list[FeatureParts]):
        self.parts = parts

    def __iter__(self):
        buf = np.empty((max(len(part.text_ids) for part in self.parts), policy.FEATURE_DIM))
        for part in self.parts:
            yield part.rows(buf[:len(part.text_ids)])


def init_from_dataset(
    dataset: list[Instance], cfg: TrainConfig
) -> tuple[ScorerParams, dict[str, float], list[FeatureParts]]:
    """Featurize the training split and freeze initialization state.

    Contexts come from :attr:`Instance.tokens`, so they stay with the
    instances after the run.  Each instance's features are kept as
    :class:`policy.FeatureParts`, aligned with ``dataset`` (instance ids
    need not be unique): a table with one row per vocabulary entry and two
    flag bytes per token, not its (n, 7) rows.  Standardization statistics
    come from the raw rows, built one instance at a time into one buffer;
    then each table is standardized once, and ``parts[i].rows()`` gives the
    standardized rows :func:`policy.forward` reads for instance i.  The bias
    starts at tau * logit(gamma) so the initial expected highlight fraction
    sits on budget.
    """
    idf_table = build_idf_table([inst.tokens for inst in dataset])
    if not any(len(inst.tokens) for inst in dataset):
        raise ConfigError("training split contains no tokens")
    parts = [feature_parts(inst.query, inst.tokens, idf_table, cfg.idf_ceiling)
             for inst in dataset]
    params = policy.init_params(_RawRows(parts), tau=cfg.tau, init_prob=cfg.gamma)
    for i, part in enumerate(parts):  # in place: one raw table at a time is let go
        parts[i] = part.standardized(params)
    return params, idf_table, parts


def solver_contract(solver, reward_spec: RewardSpec, fmt: MarkerFormat) -> str:
    """``solver``'s output contract, once every term of ``reward_spec``
    fits it: ``hr`` and ``ndcg`` score a ranking, which only the final-json
    contract yields, and the string terms need any other contract.  A
    solver that reads markers (its ``fmt``, as the oracle has) must read
    those of ``fmt``, the run's format."""
    read = getattr(solver, "fmt", fmt)
    if (read.open, read.close) != (fmt.open, fmt.close):
        raise ConfigError(f"the solver reads the {read.name or 'custom'!r} marker format, "
                          f"but marker_format is {fmt.name!r}")
    contract = getattr(solver, "output_contract", FREE_TEXT)
    for name, _ in reward_spec.terms:
        if (name in RANKING_METRICS) != (contract == FINAL_JSON):
            raise ConfigError(f"reward term {name!r} does not fit the solver's {contract!r} "
                              f"output contract: hr and ndcg need {FINAL_JSON!r}, the rest "
                              f"any other")
    return contract


class Episode(NamedTuple):
    """One solver call's outcome.  ``output`` is None when the call raised
    a transport or protocol error; such a call, and a reply that does not
    parse, is ``flagged`` with reward 0."""

    output: SolverOutput | None
    reward: float
    flagged: bool


def episode(
    solver, inst: Instance, text: str, contract: str, reward_spec: RewardSpec
) -> Episode:
    """One solver call on ``text``, its reply parsed under ``contract`` and
    scored against the instance's gold answer; never a crash.  The reply is
    left as the solver returned it."""
    try:
        out = solver.solve(inst.query, text, inst)
    except (SolverUnavailableError, ProtocolError):
        return Episode(None, 0.0, True)
    try:
        parsed = parse_output(out.raw_text, contract)
    except ParseError:
        return Episode(out, 0.0, True)
    return Episode(out, composite(parsed, inst.gold, reward_spec), False)


def rollout_group(
    inst: Instance,
    probs: np.ndarray,
    solver,
    contract: str,
    cfg: TrainConfig,
    fmt: MarkerFormat,
    reward_spec: RewardSpec,
    step: int,
    mapper: Callable,
) -> tuple[GroupSample, tuple[int, int, list[float]]]:
    """Sample G masks over ``inst.tokens``, query the solver on the G
    emphasized texts through ``mapper`` (a pool's ``map`` to overlap the
    calls, the builtin ``map`` to make them in rollout order on this
    thread), parse its replies under ``contract``, and assemble the group
    in rollout order.

    Returns the group plus :func:`solver_usage` of its episodes: a call
    that raised a transport or protocol error counts as failed, against the
    failure budget, and a reply that does not parse is flagged only.
    """
    ctx = inst.tokens
    k = Budget(cfg.gamma, len(ctx)).k
    prelim_masks = np.empty((cfg.group_size, probs.size), dtype=np.uint8)
    spans, emphasized = [], []
    for j in range(cfg.group_size):
        rng = rng_stream(cfg.seed, inst.id, j, step)
        prelim_masks[j], proj = sample_mask(probs, k, cfg.sampler, rng)
        spans.append(markup.coalesce(proj, ctx, cfg.delta))
        emphasized.append(markup.inject(ctx, spans[-1], fmt))

    episodes = list(mapper(
        lambda text: episode(solver, inst, text, contract, reward_spec), emphasized
    ))
    group = GroupSample(prelim_masks, episodes, advantages([ep.reward for ep in episodes]), spans)
    return group, solver_usage(episodes)


def covered_fraction(spans: np.ndarray, n_tokens: int) -> float:
    """Share of all tokens inside the coalesced spans, bridged ones included."""
    return (spans[:, 1] - spans[:, 0] + 1).sum() / max(1, n_tokens)


def solver_usage(episodes: list[Episode]) -> tuple[int, int, list[float]]:
    """The failed calls among ``episodes`` (they left no reply), the
    attempts summed over the replies, and each reply's latency in ms."""
    replies = [ep.output for ep in episodes if ep.output is not None]
    return (len(episodes) - len(replies), sum(out.attempt_count for out in replies),
            [out.latency * 1e3 for out in replies])


REGRESSION_WINDOW = 50


def reward_regressed(previous: np.ndarray, current: np.ndarray) -> bool:
    """True when the current window's mean per-step reward lies more than 3
    standard errors of the difference below the previous window's, each
    window's variance taken from its per-step mean rewards."""
    se = math.sqrt(previous.var(ddof=1) / previous.size + current.var(ddof=1) / current.size)
    return bool(current.mean() < previous.mean() - 3.0 * se)


def train(
    dataset: list[Instance],
    solver,
    cfg: TrainConfig,
    reward_spec: RewardSpec = DEFAULT_REWARD_SPEC,
    out_dir: str | Path | None = None,
) -> TrainResult:
    """Algorithm: cycle the dataset with batch size 1, one grouped update
    per step.  Writes a metrics log and a final checkpoint when ``out_dir``
    is given; aborts with a partial checkpoint once the solver calls that
    raised a transport or protocol error exceed the failure budget (a reply
    that does not parse is flagged only).  Needs gamma < 1.

    The rollouts of the first step overlap on a pool of min(G,
    :data:`MAX_ROLLOUT_WORKERS`) threads built once per run.  Each later
    step overlaps them only if the step before waited on its solver: a
    reply reported ``latency > 0``, or no reply came back because every
    call raised.  Otherwise its G calls run in rollout order on the calling
    thread, which for an in-process solver saves the hand-offs to and from
    the pool."""
    if not dataset:
        raise ConfigError("training dataset is empty")
    if cfg.gamma == 1.0:
        raise ConfigError("training needs gamma < 1: the initial bias tau * logit(gamma) "
                          "is infinite at gamma = 1, where every token is selected")
    fmt = get_format(cfg.marker_format)
    contract = solver_contract(solver, reward_spec, fmt)
    params, idf_table, parts = init_from_dataset(dataset, cfg)
    opt = OptimizerState.zeros(params.dim)
    # each step's standardized rows, written over the rows of the step before
    rows = np.empty((max(len(inst.tokens) for inst in dataset), params.dim))

    out_dir = Path(out_dir) if out_dir is not None else None
    metrics_path = None
    metrics_fh = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics_path = out_dir / "metrics.jsonl"
        metrics_fh = metrics_path.open("w", encoding="utf-8")

    history: list[dict] = []
    total_failures = 0
    prev_window: np.ndarray | None = None
    pool = ThreadPoolExecutor(max_workers=min(cfg.group_size, MAX_ROLLOUT_WORKERS))
    overlap = True
    try:
        for step in range(cfg.steps):
            i = step % len(dataset)
            inst = dataset[i]
            ctx = inst.tokens
            fwd = policy.forward(parts[i].rows(rows[:len(ctx)]), params)
            group, (failures, attempts, latencies_ms) = rollout_group(
                inst, fwd.p, solver, contract, cfg, fmt, reward_spec, step,
                pool.map if overlap else map,
            )
            # the next step overlaps its calls only if this one waited on them
            overlap = not latencies_ms or max(latencies_ms) > 0
            total_failures += failures
            terms = grad_step(group.prelim_masks, group.advantages, fwd, params, opt, cfg)
            # means over the G rollouts, from their spans stacked in one array
            spans = np.concatenate(group.spans)
            record = {
                "step": step,
                "rewards": [ep.reward for ep in group.episodes],
                "L_PG": terms.l_pg,
                "L_LEN": terms.l_len,
                "L_ENT": terms.l_ent,
                "mean_p": terms.mean_p,
                "k": Budget(cfg.gamma, len(ctx)).k,
                "seed": cfg.seed,
                "solver_attempts": attempts,
                "solver_latency_ms": max(latencies_ms, default=0.0),
                "covered_fraction": float(covered_fraction(spans, len(ctx))) / cfg.group_size,
                "spans": len(spans) / cfg.group_size,
            }
            history.append(record)
            # sanity flag (never a hard failure): the mean reward of each
            # 50-step window should not fall below the previous window's
            if (step + 1) % REGRESSION_WINDOW == 0:
                window = np.array([np.mean(r["rewards"]) for r in history[-REGRESSION_WINDOW:]])
                regressed = prev_window is not None and reward_regressed(prev_window, window)
                record["reward_regressed"] = regressed
                if regressed:
                    log.warning(
                        "smoothed reward regressed at step %d (%.4f < %.4f)",
                        step, window.mean(), prev_window.mean(),
                    )
                prev_window = window
            if metrics_fh is not None:
                metrics_fh.write(json.dumps(record) + "\n")
            if total_failures > cfg.solver_failure_budget:
                log.error(
                    "solver failure budget exceeded (%d failures); aborting at step %d",
                    total_failures, step,
                )
                break
    finally:
        pool.shutdown()
        if metrics_fh is not None:
            metrics_fh.close()

    checkpoint_path = None
    if out_dir is not None:
        checkpoint_path = out_dir / "checkpoint.json"
        save_checkpoint(checkpoint_path, params, opt, cfg, idf_table)
    if total_failures > cfg.solver_failure_budget:
        raise SolverUnavailableError(
            f"training aborted after {total_failures} solver failures"
        )
    return TrainResult(
        params=params,
        opt=opt,
        idf_table=idf_table,
        history=history,
        checkpoint_path=checkpoint_path,
        metrics_path=metrics_path,
    )


# ---------------------------------------------------------------------------
# Inference and evaluation
# ---------------------------------------------------------------------------

VARIANTS = ("hilite", "random", "pruned", "no-highlight")


def highlight(probs: np.ndarray, ctx, gamma: float, delta: int) -> tuple[Mask, Spans]:
    """The inference rule, (mask, spans): the k = floor(gamma * n) of the
    context's n tokens with the largest ``probs``, from any scorer (k = 0 at
    gamma = 0), coalesced with gap ``delta``."""
    k = Budget(gamma, len(ctx)).k if gamma != 0 else 0
    mask = topk(probs, np.arange(len(ctx)), k)
    return mask, markup.coalesce(mask, ctx, delta)


def evaluate(
    dataset: list[Instance],
    params: ScorerParams,
    solver,
    cfg: TrainConfig,
    idf_table: dict[str, float],
    reward_spec: RewardSpec = DEFAULT_REWARD_SPEC,
    variant: str = "hilite",
    mask_sampler: SamplerKind | None = None,
) -> dict:
    """Deterministic evaluation pass: :func:`highlight` selects, one solver
    call per instance, task reward, mean highlight fraction (selected tokens
    over all tokens), mean covered fraction (tokens inside the coalesced
    spans, bridged ones included, over all tokens) and span count, the
    solver's attempts (summed) and reply latency (p50/p99, ms), and (when
    gold spans exist) evidence precision/recall/F1 at
    ``EVIDENCE_THRESHOLD``.

    Variants: "hilite" injects markers around the top-k spans, "random"
    does the same for a seeded random mask of equal budget, "pruned" feeds
    only the selected span texts, "no-highlight" passes the context through
    untouched.  ``mask_sampler`` swaps the deterministic top-k rule for one
    of the sampler kinds (seeded per instance), for sampler-sensitivity
    sweeps.  Like :func:`train`, the pass aborts with
    SolverUnavailableError once the calls that raised a transport or
    protocol error exceed ``cfg.solver_failure_budget``; a reply that does
    not parse is flagged only.

    Contexts come from :attr:`Instance.tokens`, computed once per instance
    per process: training on the same instances and repeated passes over
    them (ablation variants, sweep grid points) tokenize nothing again, and
    the tokens stay alive with the instances (about 16 bytes per token on
    2K-token needles; see :attr:`Instance.tokens`).  Probabilities take
    training's route: the instance's :class:`policy.FeatureParts`, its table
    standardized once per vocabulary entry, give the rows
    :func:`policy.forward` reads.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown eval variant {variant!r}")
    fmt = get_format(cfg.marker_format)
    contract = solver_contract(solver, reward_spec, fmt)

    episodes = []
    fractions = []
    covered = []
    n_spans = []
    overlaps = []
    failures = 0
    for inst in dataset:
        ctx = inst.tokens
        parts = feature_parts(inst.query, ctx, idf_table, cfg.idf_ceiling)
        probs = policy.forward(parts.standardized(params).rows(), params).p
        if variant != "random" and mask_sampler is None:
            mask, spans = highlight(probs, ctx, cfg.gamma, cfg.delta)
        else:
            k = Budget(cfg.gamma, len(ctx)).k
            if variant == "random":
                mask = random_mask(ctx, k, rng_stream(cfg.seed, f"eval-random-{inst.id}"))
            else:
                _, mask = sample_mask(probs, k, mask_sampler,
                                      rng_stream(cfg.seed, f"eval-{inst.id}"))
            spans = markup.coalesce(mask, ctx, cfg.delta)
        fraction = mask.sum() / max(1, len(ctx))
        if variant == "no-highlight":
            emphasized, fraction = inst.context, 0.0
            spans = spans[:0]  # the solver sees no span
        elif variant == "pruned":
            emphasized = markup.prune(ctx, spans, PRUNE_JOINER)
        else:
            emphasized = markup.inject(ctx, spans, fmt)
        fractions.append(fraction)
        covered.append(covered_fraction(spans, len(ctx)))
        n_spans.append(len(spans))

        episodes.append(episode(solver, inst, emphasized, contract, reward_spec))
        failures += episodes[-1].output is None
        if failures > cfg.solver_failure_budget:
            raise SolverUnavailableError(f"evaluation aborted after {failures} solver failures")

        if inst.evidence_spans:
            overlaps.append(
                evidence_overlap(probs, EVIDENCE_THRESHOLD, inst.evidence_spans, ctx)
            )

    _, attempts, latencies_ms = solver_usage(episodes)
    p50, p99 = np.percentile(latencies_ms, [50, 99]) if latencies_ms else (0.0, 0.0)
    report = {
        "variant": variant,
        "n": len(dataset),
        "mean_reward": float(np.mean([ep.reward for ep in episodes])) if episodes else 0.0,
        "mean_highlight_fraction": float(np.mean(fractions)) if fractions else 0.0,
        "mean_covered_fraction": float(np.mean(covered)) if covered else 0.0,
        "mean_spans": float(np.mean(n_spans)) if n_spans else 0.0,
        "flagged": sum(ep.flagged for ep in episodes),
        "rewards": [float(ep.reward) for ep in episodes],
        "solver_attempts": attempts,
        "solver_latency_ms": {"p50": float(p50), "p99": float(p99)},
    }
    if overlaps:
        arr = np.asarray(overlaps)
        report["evidence"] = {
            "precision": float(arr[:, 0].mean()),
            "recall": float(arr[:, 1].mean()),
            "f1": float(arr[:, 2].mean()),
        }
    return report


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(
    path: str | Path,
    params: ScorerParams,
    opt: OptimizerState,
    cfg: TrainConfig,
    idf_table: dict[str, float],
) -> None:
    """Versioned checkpoint, written atomically (write + rename).  It holds
    ``version``, ``params``, ``opt_state``, ``config`` and
    ``featurizer.idf_table``, each value once."""
    path = Path(path)
    record = {
        "version": CHECKPOINT_VERSION,
        "params": params.to_dict(),
        "opt_state": opt.to_dict(),
        "config": cfg.to_dict(),
        "featurizer": {"idf_table": idf_table},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


# the number fields of a checkpoint's sections: (lists of FEATURE_DIM numbers, numbers)
_CHECKPOINT_NUMBERS = {
    "params": (("w", "norm_mean", "norm_var"), ("b", "tau")),
    "opt_state": (("m_w", "v_w"), ("m_b", "v_b")),
}


def _typed_numbers(record: dict, name: str) -> dict:
    """The checkpoint section ``record[name]`` with each number of
    :data:`_CHECKPOINT_NUMBERS` read by :func:`json_typed`'s float rule, and
    its other keys as stored; ConfigError names the field that breaks it."""
    lists, scalars = _CHECKPOINT_NUMBERS[name]
    section = dict(json_typed(record[name], dict, name))
    rule = (" and ".join(f"{name}.{key}" for key in lists)
            + f" must each hold {policy.FEATURE_DIM} finite numbers")
    for key in lists:
        values = section[key]
        if not isinstance(values, list) or len(values) != policy.FEATURE_DIM:
            raise ConfigError(f"{rule}: {name}.{key} is {json.dumps(values, default=repr)}")
        section[key] = [json_typed(v, float, f"{rule}: {name}.{key}[{i}]")
                        for i, v in enumerate(values)]
    for key in scalars:
        section[key] = json_typed(section[key], float, f"{name}.{key}")
    return section


def load_checkpoint(path: str | Path):
    """Load and validate a checkpoint; corruption raises IntegrityError."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise IntegrityError(f"checkpoint {path} unreadable: {exc}") from exc
    if not isinstance(record, dict) or record.get("version") != CHECKPOINT_VERSION:
        raise IntegrityError(f"unsupported checkpoint version in {path}")
    try:
        params = ScorerParams.from_dict(_typed_numbers(record, "params"))
        opt = OptimizerState.from_dict(_typed_numbers(record, "opt_state"))
        cfg = TrainConfig.from_dict(record["config"])
        table = json_typed(record["featurizer"]["idf_table"], dict, "featurizer.idf_table")
        idf_table = {word: json_typed(value, float, f"featurizer.idf_table[{word!r}]")
                     for word, value in table.items()}
    except (KeyError, TypeError, ValueError, HiliteError) as exc:
        raise IntegrityError(f"checkpoint {path} is corrupt: {exc}") from exc
    return params, opt, cfg, idf_table
