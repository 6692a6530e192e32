"""Token-importance scoring and budgeted mask production.

Builds feature vectors for each context token, scores them through the
logistic/temperature head, and shows the different ways of turning scores
into a budget-feasible mask: Bernoulli sampling plus projection (training),
deterministic top-k (inference, ``highlight``), and the keyed exact-k
sampler for ablations.  Every sampler is a top-k over per-token keys: p
itself for top-k, log(u)/p with u ~ U(0, 1) for the keyed sampler, which
``softmax_wor`` and ``gumbel_topk`` both name.
"""

import numpy as np

from hilite import (
    Budget,
    SamplerKind,
    featurize,
    highlight,
    init_params,
    sample_mask,
    score,
    tokenize,
)
from hilite.policy import FEATURE_NAMES, feature_parts

query = "What is the access code for project kestrel?"
context = (
    "The quiet harbor slept. Project kestrel uses access code 4417 "
    "for the vault. The amber lantern faded near the crossing."
)
ctx = tokenize(context)
texts = [ctx.vocab[i] for i in ctx.text_ids]  # token i's text
feats = featurize(query, ctx, idf_table={}, idf_ceiling=6.0)

print("feature names:", FEATURE_NAMES)
print("feature matrix:", feats.shape)

# standardization statistics come from whatever split you train on; here we
# just freeze them from this single context (init_params takes the raw
# FeatureParts of each context)
params = init_params([feature_parts(query, ctx, idf_table={})], tau=1.0, init_prob=0.25)
params.w = np.array([0.4, 1.2, 0.8, 0.0, 0.1, 1.0, 0.0])  # hand-set for the demo
probs = score(feats, params)

ranked = np.argsort(-probs)[:6]
print("\nhighest-scoring tokens:")
for i in ranked:
    print(f"  p={probs[i]:.3f}  {texts[i]!r}")

# =============================================================================
# Budgeted selection
# =============================================================================

budget = Budget(gamma=0.25, omega_size=len(ctx))  # k over the context's tokens
print(f"\nbudget: gamma=0.25 over {len(ctx)} tokens -> k={budget.k}")

# the inference rule: top-k on p under the budget, then coalesce (gap delta)
mask, _ = highlight(probs, ctx, gamma=0.25, delta=0)
chosen = [texts[i] for i in np.flatnonzero(mask)]
print("top-k selection:", chosen)

for kind in SamplerKind:
    prelim, final = sample_mask(probs, budget.k, kind, rng=42)
    print(f"{kind.value:18s} selected {int(final.sum()):2d} tokens "
          f"(pre-projection {int(prelim.sum())})")
# every sampler respects popcount <= k; bernoulli_project may come in under
