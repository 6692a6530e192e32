"""Tokenization with byte offsets, span coalescence, and non-destructive markup.

Walks the core pipeline on a small piece of text: split it into
offset-annotated tokens, pick some tokens, merge them into spans (bridging
small gaps), wrap the spans in marker strings, and strip the markers back
out to recover the original bytes.
"""

import numpy as np

from hilite import BUILTIN_FORMATS, coalesce, inject, strip, tokenize

# =============================================================================
# Tokens carry exact byte offsets into the source
# =============================================================================

text = "The brush cleaner works, but it needs grips on the back."
ctx = tokenize(text)

print(f"Source: {text!r}")
print(f"{len(ctx.tokens)} tokens:")
for i, tok in enumerate(ctx.tokens[:8]):
    print(f"  [{i}] {tok.text!r} bytes {tok.char_start}..{tok.char_end}")
print("  ...")

# The offsets always slice back to the token text, even for multi-byte input.
raw = ctx.source_bytes
assert all(raw[t.char_start:t.char_end].decode() == t.text for t in ctx.tokens)

# =============================================================================
# Masks coalesce into spans; small gaps get bridged
# =============================================================================

mask = np.zeros(len(ctx), dtype=np.uint8)  # one uint8 per token
mask[[8, 9, 11]] = 1  # "grips", "on", "back"

for delta in (0, 2):
    spans = coalesce(mask, ctx, delta=delta)
    ranges = [tuple(s) for s in spans.tolist()]
    print(f"delta={delta}: spans over token ranges {ranges}")
# delta=2 merges across the 2-token gap, delta=0 keeps two spans

# =============================================================================
# Marker injection is non-destructive
# =============================================================================

spans = coalesce(mask, ctx, delta=2)
for name in ("default", "markdown-bold", "html-b"):
    fmt = BUILTIN_FORMATS[name]
    emphasized = inject(ctx, spans, fmt)
    print(f"{name:14s} {emphasized}")
    assert strip(emphasized, fmt) == text  # byte-for-byte round trip

print("round-trip intact for every format")
