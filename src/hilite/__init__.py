"""Budgeted, non-destructive evidence highlighting for long contexts.

A lightweight scorer assigns each context token a selection probability,
a budgeted sampler turns probabilities into a token mask, and a markup
operator coalesces the mask into spans and wraps them in marker strings
without touching any source byte.  A frozen black-box solver consumes the
emphasized text; grouped policy-gradient training optimizes the scorer from
the solver's task reward alone.
"""

from .data import (
    Instance,
    SynthSpec,
    build_covis,
    candidates,
    evidence_overlap,
    gen_dataset,
    gen_needle,
    load_jsonl,
    save_jsonl,
)
from .errors import (
    BudgetError,
    ConfigError,
    DataError,
    HiliteError,
    IntegrityError,
    ParseError,
    ProtocolError,
    SolverUnavailableError,
    StructureError,
    TemplateError,
)
from .markup import (
    BUILTIN_FORMATS,
    DEFAULT_FORMAT,
    MarkerFormat,
    byte_ranges,
    coalesce,
    get_format,
    inject,
    prune,
    strip,
)
from .policy import (
    FEATURE_NAMES,
    ScorerParams,
    SubprocessScorer,
    build_idf_table,
    entropy,
    featurize,
    init_params,
    log_prob,
    score,
)
from .rewards import (
    RewardSpec,
    accuracy,
    composite,
    em,
    hr_at_k,
    macro_f1,
    ndcg_at_k,
    normalize_answer,
    token_f1,
)
from .selection import (
    Budget,
    SamplerKind,
    project_k,
    random_mask,
    rng_stream,
    sample_bernoulli,
    sample_mask,
    topk,
)
from .solver import (
    EndpointConfig,
    HTTPSolver,
    OracleSolver,
    OracleSolverConfig,
    PromptTemplate,
    ScriptedSolver,
    SolverOutput,
    TEMPLATES,
    call_http,
    parse_answer,
    parse_final_json,
    render_prompt,
)
from .tokenization import Token, TokenizedContext, tokenize
from .trainer import (
    OptimizerState,
    TrainConfig,
    TrainResult,
    advantages,
    evaluate,
    grad_step,
    highlight,
    load_checkpoint,
    objective,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
