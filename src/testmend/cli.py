"""Command-line surface: one subcommand per pipeline stage plus ``eval``.

Every stage subcommand recomputes the stages before it, so each one can
run standalone against just the manifest; artifacts land under
``--out/<sample-id>/`` as plain JSON/text files and reruns are
byte-identical for deterministic backends.  Configuration precedence is
flags > config file > environment.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple, get_type_hints

from testmend.dataset import load_manifest, load_sample
from testmend.errors import InfrastructureError, InputError
from testmend.evaluate import (
    evaluate_dataset,
    prepare_sample,
    render_table,
    split_lsp_command,
    write_report,
)
from testmend.prompting import (
    DEFAULT_ATTEMPTS,
    DEFAULT_TEMPERATURE,
    DEFAULT_TOKEN_CAP,
    repair,
)
from testmend.provider import (
    ENDPOINT_VAR,
    KEY_VAR,
    MODEL_VAR,
    ChatProvider,
    LiveProvider,
    ReplayProvider,
    prompt_digest,
)
from testmend.rerank import DEFAULT_K, LexicalScorer, RemoteScorer, Scorer
from testmend.resolver import parse_source
from testmend.signatures import focal_change, render_kinds

PROG = "testmend"


class RunConfig(NamedTuple):
    """Merged run settings; field names double as config-file keys.

    The fields of :class:`~testmend.evaluate.EvalSettings` come first, with
    its defaults, so a config passes as the settings of an eval; the run's
    own follow.  A non-empty ``scorer_endpoint`` selects the remote scorer;
    an empty one, the default, selects the lexical scorer.
    """

    k: int = DEFAULT_K
    attempts: int = DEFAULT_ATTEMPTS
    temperature: float = DEFAULT_TEMPERATURE
    token_cap: int = DEFAULT_TOKEN_CAP
    jobs: int = 1
    llm_queries: bool = False
    lsp_command: str = ""
    scorer_endpoint: str = ""
    provider: str = ""  # "" (none) | "live" | "replay"
    replay_dir: str = ""
    llm_endpoint: str = ""
    llm_model: str = ""
    out: str = "out"


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(RunConfig._fields))
    if unknown:
        raise InputError(f"config file {path}: unknown keys {', '.join(unknown)}")
    return raw


def _coerce(key: str, value, kind: type):
    """``value`` as ``kind``, the declared type of config field ``key``."""
    try:
        if kind is not str and isinstance(value, bool) != (kind is bool):
            raise ValueError(f"expected {kind.__name__}")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("expected a whole number")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"config value {key}={value!r} is invalid: {exc}") from exc


_MINIMUMS = {"k": 0, "attempts": 1, "jobs": 1}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by environment, config file, then flags."""
    config = RunConfig()
    if os.environ.get(ENDPOINT_VAR):
        config = config._replace(llm_endpoint=os.environ[ENDPOINT_VAR])
    if os.environ.get(MODEL_VAR):
        config = config._replace(llm_model=os.environ[MODEL_VAR])
    if getattr(args, "config", None):
        types = get_type_hints(RunConfig)
        for key, value in _load_config_file(args.config).items():
            config = config._replace(**{key: _coerce(key, value, types[key])})
    for name in RunConfig._fields:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            config = config._replace(**{name: flag_value})
    for key, minimum in _MINIMUMS.items():
        value = getattr(config, key)
        if value < minimum:
            raise InputError(
                f"config value {key}={value!r} is invalid: must be at least {minimum}"
            )
    return config


def build_scorer(config: RunConfig) -> Scorer:
    if config.scorer_endpoint:
        return RemoteScorer(config.scorer_endpoint)
    return LexicalScorer()


def build_provider(config: RunConfig, *, required: bool = False) -> ChatProvider | None:
    if not config.provider:
        if required:
            raise InputError("this command requires --provider live or --provider replay")
        return None
    if config.provider == "replay":
        if not config.replay_dir:
            raise InputError("replay provider requires --replay-dir")
        if not Path(config.replay_dir).is_dir():
            raise InputError(f"replay directory does not exist: {config.replay_dir}")
        return ReplayProvider(config.replay_dir)
    if config.provider == "live":
        if not (config.llm_endpoint and config.llm_model):
            raise InputError(
                "live provider requires an endpoint and model "
                f"(--llm-endpoint/--llm-model or {ENDPOINT_VAR}/{MODEL_VAR})"
            )
        return LiveProvider(
            config.llm_endpoint, config.llm_model, key=os.environ.get(KEY_VAR, "")
        )
    raise InputError(f"unknown provider {config.provider!r}")


# ----------------------------------------------------------------------
# artifact helpers
# ----------------------------------------------------------------------


def sanitize_id(sample_id: str) -> str:
    """A directory name for ``sample_id``; never ``""``, ``.`` or ``..``."""
    safe = re.sub(r"[^\w.-]", "_", sample_id)
    return "_" * max(1, len(safe)) if safe in ("", ".", "..") else safe


def _sample_dir(config: RunConfig, sample_id: str) -> Path:
    out = Path(config.out) / sanitize_id(sample_id)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return path


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace, config: RunConfig) -> int:
    sample = load_sample(args.manifest, args.sample)
    snapshot = sample.snapshot()
    focal = focal_change(
        parse_source(snapshot.read("pre", sample.focal_pre.file)),
        parse_source(snapshot.read("post", sample.focal_post.file)),
        sample.focal_pre,
        sample.focal_post,
    )
    kinds = render_kinds(focal.kinds)
    print(kinds)
    print(f"- {focal.original.render()}")
    print(f"+ {focal.updated.render()}")
    _write_json(
        _sample_dir(config, sample.id) / "kinds.json",
        {
            "sample_id": sample.id,
            "kinds": kinds,
            "original": focal.original.render(),
            "updated": focal.updated.render(),
        },
    )
    return 0


def cmd_collect(args: argparse.Namespace, config: RunConfig) -> int:
    sample = load_sample(args.manifest, args.sample)
    prepared = prepare_sample(sample, scorer=LexicalScorer(), settings=config)
    path = _write_json(
        _sample_dir(config, sample.id) / "chunks.json",
        {"sample_id": sample.id, "bundle": prepared.bundle.as_dict()},
    )
    print(path)
    return 0


def cmd_rerank(args: argparse.Namespace, config: RunConfig) -> int:
    sample = load_sample(args.manifest, args.sample)
    scorer = build_scorer(config)
    prepared = prepare_sample(sample, scorer=scorer, settings=config)
    out = _sample_dir(config, sample.id)
    ranked = prepared.ranked.as_dict()
    scored_path = _write_json(
        out / "scored.json",
        {
            "sample_id": sample.id,
            "scorer": scorer.kind,
            "scorer_fallback": prepared.scorer_fallback,
            "rankings": ranked["rankings"],
        },
    )
    selected_path = _write_json(
        out / "selected.json",
        {"sample_id": sample.id, "selected": ranked["selected"]},
    )
    print(scored_path)
    print(selected_path)
    return 0


def cmd_prompt(args: argparse.Namespace, config: RunConfig) -> int:
    sample = load_sample(args.manifest, args.sample)
    scorer = build_scorer(config)
    prepared = prepare_sample(sample, scorer=scorer, settings=config)
    out = _sample_dir(config, sample.id)
    prompt_path = out / "prompt.txt"
    # The file holds the rendered prompt byte-exactly, so its SHA-256 is
    # also the replay-directory key for this sample.
    prompt_path.write_text(prepared.prompt.render(), encoding="utf-8")
    digest = prompt_digest(prepared.prompt.messages())
    sha_path = out / "prompt.sha256"
    sha_path.write_text(digest + "\n", encoding="utf-8")
    print(prompt_path)
    print(sha_path)
    return 0


def cmd_repair(args: argparse.Namespace, config: RunConfig) -> int:
    sample = load_sample(args.manifest, args.sample)
    provider = build_provider(config, required=True)
    scorer = build_scorer(config)
    prepared = prepare_sample(sample, scorer=scorer, settings=config)
    result = repair(
        prepared.prompt,
        provider,
        attempts=config.attempts,
        temperature=config.temperature,
        ground_truth=sample.ground_truth,
    )
    out = _sample_dir(config, sample.id)
    repair_path = _write_json(
        out / "repair.json",
        {
            "sample_id": sample.id,
            "prompt_sha256": prompt_digest(prepared.prompt.messages()),
            **result.as_dict(),
        },
    )
    test_path = out / "repaired_test.java"
    test_path.write_text(result.selected_text + "\n", encoding="utf-8")
    print(repair_path)
    print(test_path)
    return 0


def cmd_eval(args: argparse.Namespace, config: RunConfig) -> int:
    load = load_manifest(args.manifest)
    for rejected_id, rule in load.rejects:
        print(f"warning: skipping {rejected_id}: {rule}", file=sys.stderr)
    scorer = build_scorer(config)
    provider = build_provider(config)
    split_lsp_command(config)
    report = evaluate_dataset(
        load.samples, scorer=scorer, provider=provider, settings=config
    )
    out = Path(config.out)
    write_report(report, out)
    print(render_table(report), end="")
    return 0


COMMANDS = {
    "classify": cmd_classify,
    "collect": cmd_collect,
    "rerank": cmd_rerank,
    "prompt": cmd_prompt,
    "repair": cmd_repair,
    "eval": cmd_eval,
}


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (keys match flag names)")
    parser.add_argument(
        "--lsp-command", dest="lsp_command", default=None,
        help="language server command line; selects the LSP resolver",
    )
    parser.add_argument(
        "--scorer-endpoint", dest="scorer_endpoint", default=None,
        help="HTTP endpoint of a remote reranking scorer; selects that scorer",
    )
    parser.add_argument("--provider", choices=["live", "replay"], default=None)
    parser.add_argument(
        "--replay-dir", dest="replay_dir", default=None,
        help="directory of canned provider responses",
    )
    parser.add_argument("--llm-endpoint", dest="llm_endpoint", default=None)
    parser.add_argument("--llm-model", dest="llm_model", default=None)
    parser.add_argument("--k", type=int, default=None, help="chunks kept per collection")
    parser.add_argument("--attempts", type=int, default=None)
    parser.add_argument("--temperature", type=float, default=None)
    parser.add_argument("--token-cap", dest="token_cap", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--out", default=None, help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Repair Java unit tests broken by focal-method signature changes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_sample in (
        ("classify", True),
        ("collect", True),
        ("rerank", True),
        ("prompt", True),
        ("repair", True),
        ("eval", False),
    ):
        # Whole flag names only: a removed flag such as --scorer must not
        # pass as a prefix of --scorer-endpoint.
        cmd = sub.add_parser(name, allow_abbrev=False)
        cmd.add_argument("--manifest", required=True, help="dataset manifest JSON")
        if needs_sample:
            cmd.add_argument("--sample", required=True, help="sample id to process")
        _common_flags(cmd)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return COMMANDS[args.command](args, config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfrastructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
