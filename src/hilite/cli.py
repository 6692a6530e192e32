"""Operator surface: train | highlight | eval | sweep | gen-synth.

Runs are driven by a flat JSON config file mirroring the run options;
command-line flags override file values.  Exit codes: 0 success, 2 config
error, 3 solver unavailable, 4 data error.

Solver backends are selected by the ``solver`` key: "oracle" (the
deterministic coverage fixture; needs gold evidence spans) or "http" (a
generation endpoint; URL and auth token fall back to the HILITE_ENDPOINT
and HILITE_AUTH_TOKEN environment variables).
"""

from __future__ import annotations

import csv
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
from .policy import featurize, score
from .rewards import RewardSpec
from .selection import Budget, SamplerKind, topk
from .solver import (
    EndpointConfig,
    HTTPSolver,
    OracleSolver,
    OracleSolverConfig,
    TEMPLATES,
)
from .tokenization import tokenize
from .trainer import TrainConfig, evaluate, load_checkpoint, train

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


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a flat JSON object")
    return cfg


def merged_options(file_cfg: dict, overrides: dict) -> dict:
    out = dict(file_cfg)
    out.update({k: v for k, v in overrides.items() if v is not None})
    return out


def build_train_config(options: dict) -> TrainConfig:
    try:
        return TrainConfig.from_dict(options)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid training configuration: {exc}") from exc


def build_solver(options: dict, cfg: TrainConfig):
    kind = options.get("solver", "oracle")
    if kind == "oracle":
        oracle_cfg = OracleSolverConfig(
            coverage_threshold=float(options.get("coverage_threshold", 0.8)),
            require_connective=bool(options.get("require_connective", False)),
        )
        return OracleSolver(oracle_cfg, get_format(cfg.marker_format))
    if kind == "http":
        url = options.get("endpoint") or os.environ.get("HILITE_ENDPOINT", "")
        if not url:
            raise ConfigError("http solver needs 'endpoint' (or HILITE_ENDPOINT)")
        endpoint = EndpointConfig(
            url=url,
            auth_token=options.get("auth_token")
            or os.environ.get("HILITE_AUTH_TOKEN", ""),
            timeout=float(options.get("timeout", 30.0)),
            max_retries=int(options.get("max_retries", 3)),
            max_tokens=int(options.get("max_tokens", 256)),
            temperature=float(options.get("temperature", 0.0)),
        )
        template_name = options.get("template", "qa")
        if template_name not in TEMPLATES:
            raise ConfigError(f"unknown prompt template {template_name!r}")
        return HTTPSolver(endpoint, TEMPLATES[template_name])
    raise ConfigError(f"unknown solver backend {kind!r} (expected oracle|http)")


def build_reward_spec(options: dict) -> RewardSpec:
    text = options.get("reward_terms", "em:1.0")
    k = int(options.get("reward_k", 10))
    return RewardSpec.parse(text, k=k)


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
    options = merged_options(load_config(config_path), {
        "dataset": dataset, "output_dir": out_dir, "steps": steps, "seed": seed,
        "gamma": gamma, "delta": delta, "group_size": group_size,
        "sampler": sampler, "marker_format": marker_format,
    })
    if not options.get("dataset"):
        raise ConfigError("missing required option 'dataset'")
    if not options.get("output_dir"):
        raise ConfigError("missing required option 'output_dir' (--out)")
    cfg = build_train_config(options)
    data = load_jsonl(options["dataset"])
    solver = build_solver(options, cfg)
    reward_spec = build_reward_spec(options)
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
    """Apply a trained checkpoint: emphasize the top-k tokens of the input."""
    if (input_path is None) == (text is None):
        raise ConfigError("provide exactly one of --input or --text")
    if input_path is not None:
        p = Path(input_path)
        if not p.exists():
            raise DataError(f"input file not found: {input_path}")
        text = p.read_text(encoding="utf-8")
    params, _, cfg, idf_table = load_checkpoint(checkpoint_path)
    gamma = cfg.gamma if gamma is None else gamma
    delta = cfg.delta if delta is None else delta
    fmt = get_format(format_name or cfg.marker_format)

    ctx = tokenize(text)
    feats = featurize(query, ctx, idf_table, cfg.idf_ceiling)
    scores = score(feats, params)
    if gamma <= 0:
        spans = []
    else:
        budget = Budget.for_omega(gamma, len(ctx.omega))
        mask = topk(scores, ctx.omega, budget.k)
        spans = markup.coalesce(mask, ctx, delta)
    click.echo(markup.inject(ctx, spans, fmt))
    if print_spans:
        click.echo(json.dumps(
            {"spans": [[s.char_start, s.char_end] for s in spans]}
        ))


@main.command("eval")
@click.option("--checkpoint", "checkpoint_path", type=str, required=True)
@click.option("--dataset", type=str, required=True)
@click.option("--config", "config_path", type=str, default=None)
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
    options = load_config(config_path)
    if bridging:
        options["require_connective"] = True
    params, _, cfg, idf_table = load_checkpoint(checkpoint_path)
    data = load_jsonl(dataset)
    solver = build_solver(options, cfg)
    reward_spec = build_reward_spec(options)

    variants = ["hilite"]
    if run_random:
        variants.append("random")
    if run_pruned:
        variants.append("pruned")
    if run_plain:
        variants.append("no-highlight")
    report = {"dataset": str(dataset), "variants": {}}
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


@main.command("sweep")
@click.option("--checkpoint", "checkpoint_path", type=str, required=True)
@click.option("--dataset", type=str, required=True)
@click.option("--config", "config_path", type=str, default=None)
@click.option("--axis", type=click.Choice(["budget", "marker", "width", "sampler"]),
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
    options = load_config(config_path)
    params, _, cfg, idf_table = load_checkpoint(checkpoint_path)
    data = load_jsonl(dataset)
    reward_spec = build_reward_spec(options)

    rows = []
    for value in values:
        run_cfg = TrainConfig.from_dict(cfg.to_dict())
        fmt = None
        mask_sampler = None
        if axis == "budget":
            run_cfg = TrainConfig.from_dict({**cfg.to_dict(), "gamma": float(value)})
        elif axis == "width":
            run_cfg = TrainConfig.from_dict({**cfg.to_dict(), "delta": int(value)})
        elif axis == "marker":
            fmt = get_format(value)
            run_cfg = TrainConfig.from_dict({**cfg.to_dict(), "marker_format": value})
        elif axis == "sampler":
            try:
                mask_sampler = SamplerKind(value)
            except ValueError as exc:
                raise ConfigError(f"unknown sampler {value!r}") from exc
        solver = build_solver(options, run_cfg)
        report = evaluate(data, params, solver, run_cfg, idf_table,
                          reward_spec=reward_spec, variant="hilite", fmt=fmt,
                          mask_sampler=mask_sampler)
        rows.append({
            "axis_value": value,
            "mean_reward": report["mean_reward"],
            "mean_highlight_fraction": report["mean_highlight_fraction"],
        })
        click.echo(f"{axis}={value}: reward={report['mean_reward']:.4f}")

    Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["axis_value", "mean_reward", "mean_highlight_fraction"]
        )
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
