"""Budgeted mask production: no mask holds more than k = floor(gamma * |omega|)
tokens.

Every sampler but the random baseline keeps the k tokens with the largest
per-token key, and every exact-k draw, the baseline's included, passes one
k > |omega| check:

- ``greedy_topk`` and :func:`topk`, the inference rule, key on p itself;
- ``softmax_wor`` and ``gumbel_topk`` are one keyed exact-k sampler.  The
  Efraimidis-Spirakis key log(u)/p, u ~ U(0, 1), orders tokens exactly as
  log p + Gumbel(0, 1) noise does, and its top k is a draw of k tokens
  sequentially without replacement with probability proportional to p
  (Kool et al., "Stochastic Beams and Where to Find Them", ICML 2019);
- ``bernoulli_project``, the training default, draws a preliminary mask
  m_i ~ Bernoulli(p_i) and projects it to the budget by keeping the drawn
  tokens with the largest p (projection only ever deselects; no gradient
  flows through it);
- :func:`random_mask`, the evaluation baseline, draws k tokens of omega
  uniformly without replacement.

Known approximation: training scores every mask by its Bernoulli
log-likelihood.  For the exact-k samplers that is not the probability of
the drawn set; exact estimators exist (Kool et al., "Estimating Gradients
for Discrete Random Variables by Sampling without Replacement", ICLR 2020),
but the exact-k samplers still reach held-out reward 1.0 on the oracle task.

Ties are broken by lowest token index everywhere, so identical inputs and
seeds reproduce identical masks.  Randomized call sites derive their
generator from (seed, instance id, group index, step) via
:func:`rng_stream`.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, StructureError
from .markup import Mask
from .tokenization import TokenizedContext

GUMBEL_FLOOR = 1e-12


@dataclass(frozen=True)
class Budget:
    """Highlight budget: at most k = floor(gamma * omega_size) of omega_size
    tokens."""

    gamma: float
    omega_size: int

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise StructureError("gamma must lie in (0, 1]")
        if self.omega_size < 0:
            raise StructureError("omega_size must be >= 0")

    @property
    def k(self) -> int:
        return math.floor(self.gamma * self.omega_size)

    @classmethod
    def for_omega(cls, gamma: float, omega_size: int) -> "Budget":
        return cls(gamma=gamma, omega_size=omega_size)


class SamplerKind(str, enum.Enum):
    BERNOULLI_PROJECT = "bernoulli_project"
    GREEDY_TOPK = "greedy_topk"
    SOFTMAX_WOR = "softmax_wor"
    GUMBEL_TOPK = "gumbel_topk"


def rng_stream(seed: int, instance_id: str = "", group_index: int = 0, step: int = 0):
    """Independent, reproducible generator for one rollout.

    Derivation goes through SHA-256 so string instance ids hash stably
    across processes (unlike builtin hash()).
    """
    key = f"{seed}|{instance_id}|{group_index}|{step}".encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(rng)
    return rng


def _omega_index(omega) -> np.ndarray:
    """omega as an int64 index array (no copy when it already is one)."""
    return np.asarray(omega, dtype=np.int64)


def _mask_from_indices(n: int, indices: np.ndarray) -> Mask:
    mask = np.zeros(n, dtype=np.uint8)
    mask[indices] = 1
    return mask


def _budget_index(omega, k: int) -> np.ndarray:
    """omega as an index array, once k is known to fit in it."""
    idx = _omega_index(omega)
    if k > idx.size:
        raise BudgetError(f"k={k} exceeds |omega|={idx.size}")
    return idx


def _topk_indices(keys: np.ndarray, idx: np.ndarray, k: int) -> np.ndarray:
    # The k tokens of idx with the largest keys, ties by lowest token index,
    # in no particular order (callers only build masks from them): every
    # token keyed above the k-th largest key, then the lowest-indexed tokens
    # keyed at it.  np.partition finds that key without sorting all of idx.
    if k == 0:
        return idx[:0]
    if k == idx.size:
        return idx
    kth = np.partition(keys, idx.size - k)[idx.size - k]
    above = idx[keys > kth]
    tied = np.sort(idx[keys == kth])
    return np.concatenate((above, tied[: k - above.size]))


def sample_bernoulli(probs: np.ndarray, omega, rng) -> Mask:
    """Preliminary mask: m_i ~ Bernoulli(p_i) on omega, zero elsewhere."""
    rng = _as_rng(rng)
    idx = _omega_index(omega)
    mask = np.zeros(len(probs), dtype=np.uint8)
    if idx.size:
        draws = rng.random(idx.size)
        mask[idx[draws < probs[idx]]] = 1
    return mask


def project_k(mask: Mask, probs: np.ndarray, k: int) -> Mask:
    """Deselect down to at most k tokens, keeping the largest p_i.

    Output bits are a subset of input bits; idempotent; already-feasible
    masks pass through unchanged.
    """
    selected = np.flatnonzero(mask)
    if selected.size <= k:
        return mask.copy()
    return _mask_from_indices(len(mask), _topk_indices(probs[selected], selected, k))


def topk(probs: np.ndarray, omega, k: int) -> Mask:
    """Deterministic inference-time selection: the k largest p_i on omega."""
    idx = _budget_index(omega, k)
    return _mask_from_indices(len(probs), _topk_indices(probs[idx], idx, k))


def random_mask(ctx: TokenizedContext, k: int, rng: np.random.Generator | int) -> Mask:
    """Select exactly k tokens uniformly without replacement from omega."""
    idx = _budget_index(ctx.omega, k)
    return _mask_from_indices(len(ctx), _as_rng(rng).choice(idx, size=k, replace=False))


def sample_mask(
    probs: np.ndarray,
    omega,
    k: int,
    kind: SamplerKind,
    rng,
) -> tuple[Mask, Mask]:
    """Draw a mask with the configured sampler.

    Returns (preliminary mask, budget-feasible mask).  For
    bernoulli_project the two differ when projection truncates; the exact-k
    samplers are their own pre-projection masks, so the log-probability in
    the policy-gradient loss is evaluated on the same bits that were
    selected.  greedy_topk ignores the generator and equals :func:`topk`.
    """
    kind = SamplerKind(kind)
    if kind == SamplerKind.BERNOULLI_PROJECT:
        prelim = sample_bernoulli(probs, omega, rng)
        return prelim, project_k(prelim, probs, k)
    if kind == SamplerKind.GREEDY_TOPK:
        mask = topk(probs, omega, k)
    else:  # softmax_wor and gumbel_topk: Efraimidis-Spirakis keys
        idx = _budget_index(omega, k)
        u = _as_rng(rng).random(idx.size)
        keys = np.log(np.maximum(u, GUMBEL_FLOOR)) / probs[idx]
        mask = _mask_from_indices(len(probs), _topk_indices(keys, idx, k))
    return mask, mask
