"""Plugging an external scorer into the selection pipeline.

Any process that speaks the line-delimited JSON protocol can replace the
native scorer at inference time: it reads
``{"op": "score", "query": ..., "tokens": [...]}`` per line and answers
``{"probs": [...]}`` with one probability per token.  Here the "external
model" is a child Python process scoring tokens by query overlap; its
probabilities go through :func:`hilite.highlight`, the selection rule the
native scorer uses, and then marker injection.
"""

import sys

import numpy as np

from hilite import SubprocessScorer, highlight, inject, tokenize
from hilite.markup import DEFAULT_FORMAT

# A stand-in for a real scoring backend: score 0.9 for tokens that appear in
# the query, 0.1 otherwise.
CHILD = r"""
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    query_words = {w.lower() for w in req["query"].split()}
    probs = [0.9 if t.lower() in query_words else 0.1 for t in req["tokens"]]
    print(json.dumps({"probs": probs}), flush=True)
"""

query = "Where is the hidden vault key?"
context = "The garden slept. The vault key waits beneath the old mill stone."
ctx = tokenize(context)
texts = [ctx.vocab[i] for i in ctx.text_ids]  # the protocol sends one string per token

with SubprocessScorer([sys.executable, "-c", CHILD]) as scorer:
    probs = scorer.score_tokens(query, texts)

print("token scores from the child process:")
for text, p in zip(texts, probs):
    marker = "*" if p > 0.5 else " "
    print(f"  {marker} p={p:.1f}  {text!r}")

_, spans = highlight(probs, ctx, gamma=0.3, delta=2)
print("\nemphasized with the external scorer's selections:")
print(inject(ctx, spans, DEFAULT_FORMAT))

# wrong-length or malformed responses raise ProtocolError; see
# tests/test_policy.py for the negative cases
assert len(probs) == len(ctx)
assert np.all((probs > 0) & (probs < 1))
