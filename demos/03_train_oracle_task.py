"""End-to-end training against the deterministic coverage oracle.

Generates a small synthetic needle benchmark, trains the native scorer with
grouped policy gradient for a few hundred steps, and compares the trained
policy against the untrained ablation variants.  The oracle answers
correctly only when the injected markers enclose at least 80% of the gold
evidence bytes, so reward directly measures evidence surfacing.
"""

import numpy as np

from hilite import (
    OracleSolver,
    OracleSolverConfig,
    TrainConfig,
    evaluate,
    gen_dataset,
    train,
)

# =============================================================================
# Data: needle sentences hidden among templated distractors
# =============================================================================

train_set = gen_dataset(40, target_tokens=400, seed=0,
                        n_clusters=3, cluster_size=4, filler_gap=3)
held_out = gen_dataset(10, target_tokens=400, seed=500,
                       n_clusters=3, cluster_size=4, filler_gap=3)

inst = train_set[0]
print("query:   ", inst.query[:70], "...")
print("gold:    ", inst.gold)
print("evidence:", inst.evidence_spans[:3], "...")

# =============================================================================
# Train: grouped rollouts against the frozen oracle
# =============================================================================

cfg = TrainConfig(steps=2000, seed=0, gamma=0.15, delta=10, group_size=4)
solver = OracleSolver(OracleSolverConfig(coverage_threshold=0.8))
result = train(train_set, solver, cfg)

early = np.mean([np.mean(r["rewards"]) for r in result.history[:50]])
late = np.mean([np.mean(r["rewards"]) for r in result.history[-50:]])
print(f"\nmean group reward: first 50 steps {early:.2f} -> last 50 steps {late:.2f}")
print(f"learned weights: {np.round(result.params.w, 3)}")

# =============================================================================
# Evaluate: trained emphasis vs the ablation variants
# =============================================================================

print(f"\n{'variant':14s} {'reward':>7s}")
reports = {}
for variant in ("hilite", "random", "pruned", "no-highlight"):
    reports[variant] = evaluate(held_out, result.params, solver, cfg,
                                result.idf_table, variant=variant)
    print(f"{variant:14s} {reports[variant]['mean_reward']:7.3f}")

# the trained policy should be the only variant with high reward: random
# tags rarely cover enough evidence, and pruned/no-highlight inputs carry no
# tags at all

print(f"\nevidence F1 of thresholded scores: {reports['hilite']['evidence']['f1']:.3f}")
# note: reward saturates well before the threshold-0.5 classification does;
# the per-step parameter movement is capped by the learning rate, so the
# ordering (which drives top-k reward) converges first
