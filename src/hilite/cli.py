"""Operator surface: train | highlight | eval | sweep | gen-synth.

Runs are driven by a flat JSON config file mirroring the run options;
command-line flags override file values.  A file may hold TrainConfig's
fields and the keys of :data:`RUN_KEYS`, nothing else, each with its JSON
type (:data:`KEY_TYPES`), so a numeric string such as ``"timeout": "30"``
is a config error.  train, eval and sweep check the same keys; eval and
sweep take the training values from the checkpoint.  Each command closes
its solver.  Exit codes: 0 success, 2 config error, 3 solver unavailable,
4 data error.

Solver backends are selected by the ``solver`` key: "oracle" (the
deterministic coverage fixture; needs gold evidence spans) or "http" (a
generation endpoint; URL and auth token fall back to the HILITE_ENDPOINT
and HILITE_AUTH_TOKEN environment variables).  Every solver key is checked
whichever backend is selected.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import click

from . import markup
from .data import gen_dataset, load_jsonl, save_jsonl
from .errors import (
    ConfigError,
    DataError,
    HiliteError,
    IntegrityError,
    SolverUnavailableError,
)
from .markup import get_format
from .policy import feature_parts, forward
from .rewards import DEFAULT_REWARD_SPEC, RewardSpec
from .solver import (
    EndpointConfig,
    HTTPSolver,
    OracleSolver,
    OracleSolverConfig,
    TEMPLATES,
    split_endpoint,
)
from .tokenization import tokenize
from .trainer import (
    CONFIG_FIELD_TYPES,
    TrainConfig,
    evaluate,
    highlight,
    json_typed,
    load_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DATA = 4


def _exit_code(exc: HiliteError) -> int:
    if isinstance(exc, SolverUnavailableError):
        return EXIT_SOLVER
    if isinstance(exc, (DataError, IntegrityError)):
        return EXIT_DATA
    return EXIT_CONFIG


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except HiliteError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_exit_code(exc))

    return wrapper


# config keys read beyond TrainConfig's fields -> the JSON type of the value
RUN_KEYS = {
    "dataset": str, "output_dir": str, "reward_terms": str, "reward_k": int,
    "solver": str, "coverage_threshold": float, "require_connective": bool,
    "endpoint": str, "auth_token": str, "template": str, "timeout": float,
    "max_retries": int, "max_tokens": int, "temperature": float,
}

# every config key -> its JSON type
KEY_TYPES = {**CONFIG_FIELD_TYPES, **RUN_KEYS}


def _typed(key: str, value, path: str):
    """``value`` under :func:`json_typed`'s rule for ``key``'s JSON type."""
    kind = KEY_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r} in {path}")
    return json_typed(value, kind, f"config key {key!r} in {path}")


def load_config(path: str | None, overrides: dict) -> tuple[dict, TrainConfig]:
    """The run's options and the TrainConfig of their training fields.

    The config file's values, each checked by :func:`_typed`, give way to
    the ``overrides`` that are set.  Building the TrainConfig checks the
    training values for every command, also those that take them from a
    checkpoint."""
    options = {}
    if path is not None:
        try:
            cfg = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"config file {path} must hold a flat JSON object")
        options = {key: _typed(key, value, path) for key, value in cfg.items()}
    options.update({k: v for k, v in overrides.items() if v is not None})
    return options, TrainConfig.from_dict(options)


def _given(options: dict, *keys: str) -> dict:
    """The options among ``keys`` that are set; the rest keep their
    dataclass defaults."""
    return {key: options[key] for key in keys if key in options}


def build_solver(options: dict, cfg: TrainConfig):
    """The selected solver, once every solver key is checked, whichever
    solver is selected; only the http solver reads the environment."""
    kind = options.get("solver", "oracle")
    if kind not in ("oracle", "http"):
        raise ConfigError(f"unknown solver backend {kind!r} (expected oracle|http)")
    oracle_cfg = OracleSolverConfig(
        **_given(options, "coverage_threshold", "require_connective"))
    endpoint = EndpointConfig(
        url=options.get("endpoint", ""), auth_token=options.get("auth_token", ""),
        **_given(options, "timeout", "max_retries", "max_tokens", "temperature"))
    if endpoint.url:
        split_endpoint(endpoint.url)
    template_name = options.get("template", "qa")
    if template_name not in TEMPLATES:
        raise ConfigError(f"unknown prompt template {template_name!r}")
    if kind == "oracle":
        return OracleSolver(oracle_cfg, get_format(cfg.marker_format))
    url = endpoint.url or os.environ.get("HILITE_ENDPOINT", "")
    if not url:
        raise ConfigError("http solver needs 'endpoint' (or HILITE_ENDPOINT)")
    auth_token = endpoint.auth_token or os.environ.get("HILITE_AUTH_TOKEN", "")
    endpoint = dataclasses.replace(endpoint, url=url, auth_token=auth_token)
    return HTTPSolver(endpoint, TEMPLATES[template_name])


def build_reward_spec(options: dict) -> RewardSpec:
    k = options.get("reward_k", 10)
    if "reward_terms" in options:
        return RewardSpec.parse(options["reward_terms"], k=k)
    return dataclasses.replace(DEFAULT_REWARD_SPEC, k=k)


@click.group()
def main():
    """Budgeted evidence highlighting: train, apply, evaluate, sweep."""


@main.command("train")
@click.option("--config", "config_path", type=str, default=None, help="Flat JSON config file.")
@click.option("--dataset", type=str, default=None, help="Training JSONL path.")
@click.option("--out", "out_dir", type=str, default=None, help="Output directory.")
@click.option("--steps", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--delta", type=int, default=None)
@click.option("--group-size", type=int, default=None)
@click.option("--sampler", type=str, default=None)
@click.option("--format", "marker_format", type=str, default=None)
@handle_errors
def cmd_train(config_path, dataset, out_dir, steps, seed, gamma, delta,
              group_size, sampler, marker_format):
    """Train the native scorer against the configured frozen solver."""
    options, cfg = load_config(config_path, {
        "dataset": dataset, "output_dir": out_dir, "steps": steps, "seed": seed,
        "gamma": gamma, "delta": delta, "group_size": group_size,
        "sampler": sampler, "marker_format": marker_format,
    })
    if not options.get("dataset"):
        raise ConfigError("missing required option 'dataset'")
    if not options.get("output_dir"):
        raise ConfigError("missing required option 'output_dir' (--out)")
    data = load_jsonl(options["dataset"])
    reward_spec = build_reward_spec(options)
    with contextlib.closing(build_solver(options, cfg)) as solver:
        result = train(data, solver, cfg, reward_spec=reward_spec,
                       out_dir=options["output_dir"])
    click.echo(f"checkpoint: {result.checkpoint_path}")
    click.echo(f"metrics:    {result.metrics_path}")


@main.command("highlight")
@click.option("--checkpoint", "checkpoint_path", type=str, required=True)
@click.option("--input", "input_path", type=str, default=None, help="Read text from file.")
@click.option("--text", type=str, default=None, help="Inline text.")
@click.option("--query", type=str, default="")
@click.option("--gamma", type=float, default=None)
@click.option("--delta", type=int, default=None)
@click.option("--format", "format_name", type=str, default=None)
@click.option("--spans", "print_spans", is_flag=True, default=False,
              help="Also print selected byte spans as JSON.")
@handle_errors
def cmd_highlight(checkpoint_path, input_path, text, query, gamma, delta,
                  format_name, print_spans):
    """Apply a trained checkpoint: emphasize what :func:`trainer.highlight` selects."""
    if (input_path is None) == (text is None):
        raise ConfigError("provide exactly one of --input or --text")
    if input_path is not None:
        try:
            text = Path(input_path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read input file {input_path}: {exc}") from exc
    params, _, cfg, idf_table = load_checkpoint(checkpoint_path)
    gamma = cfg.gamma if gamma is None else gamma
    delta = cfg.delta if delta is None else delta
    fmt = get_format(format_name or cfg.marker_format)

    ctx = tokenize(text)
    parts = feature_parts(query, ctx, idf_table, cfg.idf_ceiling)
    probs = forward(parts.standardized(params).rows(), params).p
    _, spans = highlight(probs, ctx, gamma, delta)
    click.echo(markup.inject(ctx, spans, fmt))
    if print_spans:
        click.echo(json.dumps({"spans": markup.byte_ranges(ctx, spans)}))


# the --config help of the commands that evaluate a checkpoint
CHECKPOINT_CONFIG_HELP = ("Flat JSON config file.  Its training keys, solver_failure_budget "
                          "included, are checked, but the checkpoint's values are used.")


@main.command("eval")
@click.option("--checkpoint", "checkpoint_path", type=str, required=True)
@click.option("--dataset", type=str, required=True)
@click.option("--config", "config_path", type=str, default=None, help=CHECKPOINT_CONFIG_HELP)
@click.option("--out", "report_path", type=str, default=None, help="Report JSON path.")
@click.option("--pruned", "run_pruned", is_flag=True, default=False)
@click.option("--random", "run_random", is_flag=True, default=False)
@click.option("--no-highlight", "run_plain", is_flag=True, default=False)
@click.option("--bridging", is_flag=True, default=False,
              help="Oracle variant requiring connective context.")
@handle_errors
def cmd_eval(checkpoint_path, dataset, config_path, report_path,
             run_pruned, run_random, run_plain, bridging):
    """Evaluate a checkpoint; extra flags add the ablation variants."""
    options, _ = load_config(config_path, {"require_connective": bridging or None})
    params, _, cfg, idf_table = load_checkpoint(checkpoint_path)
    data = load_jsonl(dataset)
    reward_spec = build_reward_spec(options)

    variants = ["hilite"]
    if run_random:
        variants.append("random")
    if run_pruned:
        variants.append("pruned")
    if run_plain:
        variants.append("no-highlight")
    report = {"dataset": str(dataset), "variants": {}}
    with contextlib.closing(build_solver(options, cfg)) as solver:
        for variant in variants:
            report["variants"][variant] = evaluate(
                data, params, solver, cfg, idf_table,
                reward_spec=reward_spec, variant=variant,
            )
            row = report["variants"][variant]
            click.echo(
                f"{variant:13s} reward={row['mean_reward']:.4f} "
                f"fraction={row['mean_highlight_fraction']:.4f}"
            )
    if report_path:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(json.dumps(report, indent=2), encoding="utf-8")
        click.echo(f"report: {report_path}")


# sweep axis -> (TrainConfig field, conversion of one grid value); every
# grid point is checked before the first one is evaluated
SWEEP_AXES = {
    "budget": ("gamma", float),
    "width": ("delta", int),
    "marker": ("marker_format", str),
    "sampler": ("sampler", str),
}

# evaluate() report keys written as sweep CSV columns, after axis_value
SWEEP_COLUMNS = ("mean_reward", "mean_highlight_fraction", "mean_covered_fraction",
                 "mean_spans")


@main.command("sweep")
@click.option("--checkpoint", "checkpoint_path", type=str, required=True)
@click.option("--dataset", type=str, required=True)
@click.option("--config", "config_path", type=str, default=None, help=CHECKPOINT_CONFIG_HELP)
@click.option("--axis", type=click.Choice(list(SWEEP_AXES)),
              required=True)
@click.option("--grid", type=str, required=True,
              help="Comma-separated grid values for the axis.")
@click.option("--out", "csv_path", type=str, required=True)
@handle_errors
def cmd_sweep(checkpoint_path, dataset, config_path, axis, grid, csv_path):
    """One evaluation row per grid point along the chosen axis.

    The marker sweep reuses the checkpoint's selections and swaps only the
    marker strings.
    """
    values = [v.strip() for v in grid.split(",") if v.strip()]
    if not values:
        raise ConfigError("empty sweep grid")
    options, _ = load_config(config_path, {})
    params, _, cfg, idf_table = load_checkpoint(checkpoint_path)
    data = load_jsonl(dataset)
    reward_spec = build_reward_spec(options)

    field, conv = SWEEP_AXES[axis]
    try:
        run_cfgs = [dataclasses.replace(cfg, **{field: conv(value)}) for value in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {axis} grid value: {exc}") from exc

    rows = []
    for value, run_cfg in zip(values, run_cfgs):
        with contextlib.closing(build_solver(options, run_cfg)) as solver:
            report = evaluate(data, params, solver, run_cfg, idf_table,
                              reward_spec=reward_spec, variant="hilite",
                              mask_sampler=run_cfg.sampler if axis == "sampler" else None)
        rows.append({"axis_value": value, **{key: report[key] for key in SWEEP_COLUMNS}})
        click.echo(f"{axis}={value}: reward={report['mean_reward']:.4f}")

    Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["axis_value", *SWEEP_COLUMNS])
        writer.writeheader()
        writer.writerows(rows)
    click.echo(f"csv: {csv_path}")


@main.command("gen-synth")
@click.option("--n", type=int, required=True)
@click.option("--target-tokens", type=int, default=2000)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", type=str, required=True)
@click.option("--clusters", type=int, default=6, help="Codeword clusters per needle.")
@click.option("--cluster-size", type=int, default=5)
@click.option("--filler-gap", type=int, default=5)
@handle_errors
def cmd_gen_synth(n, target_tokens, seed, out_path, clusters, cluster_size, filler_gap):
    """Write n synthetic needle instances as JSONL."""
    if n < 0:
        raise ConfigError("--n must be >= 0")
    data = gen_dataset(n, target_tokens, seed, n_clusters=clusters,
                       cluster_size=cluster_size, filler_gap=filler_gap)
    try:
        save_jsonl(data, out_path)
    except OSError as exc:
        raise DataError(f"cannot write {out_path}: {exc}") from exc
    click.echo(f"wrote {n} instances -> {out_path}")


if __name__ == "__main__":
    main()
