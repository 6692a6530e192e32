"""Budgeted mask production.

Training draws a preliminary Bernoulli mask from the probability vector and projects
it down to the budget k = floor(gamma * |omega|), keeping the selected
tokens with the largest probabilities (projection only ever deselects; no
gradient flows through it).  Inference uses deterministic top-k.  Two
alternative exact-k samplers are provided for ablations: sequential
without-replacement sampling proportional to p, and top-k over
Gumbel-perturbed log-probabilities.

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
from .policy import omega_index

GUMBEL_FLOOR = 1e-12


@dataclass(frozen=True)
class Budget:
    """Highlight budget: fraction gamma and the derived count k."""

    gamma: float
    k: int

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise StructureError("gamma must lie in (0, 1]")
        if self.k < 0:
            raise StructureError("k must be >= 0")

    @classmethod
    def for_omega(cls, gamma: float, omega_size: int) -> "Budget":
        if not 0.0 < gamma <= 1.0:
            raise StructureError("gamma must lie in (0, 1]")
        return cls(gamma=gamma, k=int(math.floor(gamma * omega_size)))


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


def _mask_from_indices(n: int, indices: np.ndarray) -> Mask:
    mask = np.zeros(n, dtype=np.uint8)
    mask[indices] = 1
    return mask


def _topk_indices(values: np.ndarray, idx: np.ndarray, k: int) -> np.ndarray:
    # stable: sort by value descending, ties by lowest token index
    order = np.lexsort((idx, -values))
    return idx[order[:k]]


def sample_bernoulli(probs: np.ndarray, omega, rng) -> Mask:
    """Preliminary mask: m_i ~ Bernoulli(p_i) on omega, zero elsewhere."""
    rng = _as_rng(rng)
    idx = omega_index(omega)
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
    keep = _topk_indices(probs[selected], selected, k)
    return _mask_from_indices(len(mask), keep)


def topk(probs: np.ndarray, omega, k: int) -> Mask:
    """Deterministic inference-time selection: the k largest p_i on omega."""
    idx = omega_index(omega)
    if k > idx.size:
        raise BudgetError(f"k={k} exceeds |omega|={idx.size}")
    keep = _topk_indices(probs[idx], idx, k)
    return _mask_from_indices(len(probs), keep)


def sample_alternative(
    probs: np.ndarray,
    omega,
    k: int,
    kind: SamplerKind,
    rng,
    noise_scale: float = 1.0,
) -> Mask:
    """Exact-k ablation samplers.

    greedy_topk ignores the generator and equals :func:`topk`.  softmax_wor
    draws k items sequentially without replacement with probability
    proportional to p (implemented one-shot via exponential keys, which is
    distributionally equivalent).  gumbel_topk takes the top k of
    log(p) + noise_scale * Gumbel(0, 1); at noise_scale 0 it reduces to
    plain top-k.
    """
    rng = _as_rng(rng)
    idx = omega_index(omega)
    if k > idx.size:
        raise BudgetError(f"k={k} exceeds |omega|={idx.size}")
    p = probs[idx]
    kind = SamplerKind(kind)
    if kind == SamplerKind.GREEDY_TOPK:
        keys = p
    elif kind == SamplerKind.SOFTMAX_WOR:
        # Efraimidis-Spirakis keys: top-k of log(u)/p_i reproduces sequential
        # without-replacement sampling with weights p_i.
        u = rng.random(idx.size)
        keys = np.log(np.maximum(u, GUMBEL_FLOOR)) / p
    elif kind == SamplerKind.GUMBEL_TOPK:
        u = rng.random(idx.size)
        gumbel = -np.log(-np.log(np.maximum(u, GUMBEL_FLOOR)))
        keys = np.log(p) + noise_scale * gumbel
    else:
        raise StructureError(f"{kind} is not an alternative sampler")
    return _mask_from_indices(len(probs), _topk_indices(keys, idx, k))


def sample_mask(
    probs: np.ndarray,
    omega,
    k: int,
    kind: SamplerKind,
    rng,
    noise_scale: float = 1.0,
) -> tuple[Mask, Mask]:
    """Route to the configured sampler.

    Returns (preliminary mask, budget-feasible mask).  For
    bernoulli_project the two differ when projection truncates; the exact-k
    samplers are their own pre-projection masks, so the log-probability in
    the policy-gradient loss is evaluated on the same bits that were
    selected.
    """
    kind = SamplerKind(kind)
    if kind == SamplerKind.BERNOULLI_PROJECT:
        prelim = sample_bernoulli(probs, omega, rng)
        return prelim, project_k(prelim, probs, k)
    mask = sample_alternative(probs, omega, k, kind, rng, noise_scale)
    return mask, mask
