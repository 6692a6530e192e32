"""Recommendation preprocessing: co-visitation candidates and ranking rewards.

Builds the item-item co-occurrence graph from user histories, generates
recency-decayed candidates, renders the re-ranking prompt, parses a
FINAL_JSON response, and scores it with the composite reward used for
ranking tasks.
"""

from hilite import (
    RewardSpec,
    build_covis,
    candidates,
    composite,
    parse_final_json,
    render_prompt,
)
from hilite.data import popularity_from_histories
from hilite.solver import TEMPLATES

# =============================================================================
# Co-visitation graph from interaction histories
# =============================================================================

histories = [
    [101, 102, 103, 104],
    [102, 103, 105],
    [101, 103, 104],
    [105, 101],
]
graph = build_covis(histories, window=2)
print("neighbors of 103:", graph[103])

# =============================================================================
# Recency-decayed candidate generation
# =============================================================================

user_history = [105, 101, 102]
pool = candidates(
    user_history,
    graph,
    alpha=0.85,
    M=10,
    K=5,
    popularity=popularity_from_histories(histories),
)
print(f"history {user_history} -> candidates {pool}")
assert not set(pool) & set(user_history)

# =============================================================================
# Rerank prompt + FINAL_JSON contract
# =============================================================================

candidate_block = "\n".join(
    f'id={i} | title="item {c}" | brand="acme" | rating=4.1(12)'
    for i, c in enumerate(pool, start=1)
)
prompt = render_prompt(candidate_block, "user loved items 101 and 102",
                       TEMPLATES["rerank"])
print("\nprompt tail:")
print("\n".join(prompt.splitlines()[-6:]))

raw_response = (
    "<FINAL_JSON>"
    '[{"id": 2, "score": 8.5}, {"id": 1, "score": 6.0}, {"id": 3, "score": 0.7}]'
    "</FINAL_JSON>"
)
ranking = parse_final_json(raw_response)
print("\nparsed ranking:", ranking)

# Amazon-style composite: 0.7 x HR@10 + 0.3 x NDCG@10
spec = RewardSpec((("hr", 0.7), ("ndcg", 0.3)), k=10)
gold_item = 1  # the candidate the user actually picked next
reward = composite(ranking, gold_item, spec)
print(f"reward for gold id {gold_item}: {reward:.3f}")
