"""Command-line behavior: artifacts, configuration precedence, exit codes."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import pytest

from testmend import dataset
from testmend.cli import build_parser, main, resolve_config, sanitize_id
from testmend.evaluate import EvalSettings
from testmend.provider import ENDPOINT_VAR, KEY_VAR, MODEL_VAR

FIXTURES = Path(__file__).parent / "fixtures"
MANIFEST = str(FIXTURES / "manifest.json")


@pytest.fixture(autouse=True)
def clean_provider_env(monkeypatch):
    for var in (ENDPOINT_VAR, MODEL_VAR, KEY_VAR):
        monkeypatch.delenv(var, raising=False)


def run_cli(*argv):
    return main(list(argv))


def seed_replay_via_prompt_artifact(tmp_path, sample_id, ground_truth_file):
    """Operator workflow: run `prompt`, key the replay file off prompt.sha256."""
    out = tmp_path / "art"
    assert run_cli(
        "prompt", "--manifest", MANIFEST, "--sample", sample_id, "--out", str(out)
    ) == 0
    digest = (out / sample_id / "prompt.sha256").read_text().strip()
    replay = tmp_path / "replay"
    replay.mkdir(exist_ok=True)
    gt = (FIXTURES / ground_truth_file).read_text().strip()
    (replay / f"{digest}.txt").write_text("```java\n" + gt + "\n```")
    return replay


# ----------------------------------------------------------------------
# stage subcommands
# ----------------------------------------------------------------------


def test_classify_prints_kinds_and_signature_diff(tmp_path, capsys):
    out = tmp_path / "art"
    code = run_cli(
        "classify", "--manifest", MANIFEST, "--sample", "mount-param", "--out", str(out)
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ParamSynBC"
    assert lines[1].startswith("- public void mount(")
    assert "MountOptions options" in lines[1]
    assert lines[2].startswith("+ public void mount(")
    assert "MountPOptions options" in lines[2]
    doc = json.loads((out / "mount-param" / "kinds.json").read_text())
    assert doc["kinds"] == "ParamSynBC"
    assert doc["sample_id"] == "mount-param"


def test_classify_unchanged_signature_reports_none(tmp_path, capsys):
    # A manifest whose focal method is byte-identical across versions.
    src = "class A { int f() { return 1; } }\n"
    test = "class ATest { void t() { assertEquals(1, a.f()); } }\n"
    for rel, text in [
        ("pre/A.java", src),
        ("post/A.java", src),
        ("pre/ATest.java", test),
        ("post/ATest.java", test),
    ]:
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    manifest = tmp_path / "m.json"
    manifest.write_text(
        json.dumps(
            [
                {
                    "id": "same",
                    "pre_root": "pre",
                    "post_root": "post",
                    "focal": {
                        "file_pre": "A.java",
                        "file_post": "A.java",
                        "classes": ["A"],
                        "method": "f",
                        "params_pre": [],
                        "params_post": [],
                    },
                    "test": {
                        "file": "ATest.java",
                        "classes": ["ATest"],
                        "method": "t",
                        "params": [],
                    },
                }
            ]
        )
    )
    code = run_cli(
        "classify", "--manifest", str(manifest), "--sample", "same",
        "--out", str(tmp_path / "art"),
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "none"


def test_collect_writes_full_bundle(tmp_path, capsys):
    out = tmp_path / "art"
    assert run_cli(
        "collect", "--manifest", MANIFEST, "--sample", "mount-param", "--out", str(out)
    ) == 0
    path = out / "mount-param" / "chunks.json"
    assert str(path) in capsys.readouterr().out
    doc = json.loads(path.read_text())
    bundle = doc["bundle"]
    assert len(bundle["usage_ctx"]) == 4  # all callers, before any reranking
    assert "MountPOptions" in bundle["class_ctx"]
    assert len(bundle["class_ctx"]["MountPOptions"]["chunks"]) == 7


def test_single_sample_command_validates_only_that_sample(tmp_path, monkeypatch):
    validated = []
    validate_sample = dataset.validate_sample

    def counted(sample):
        validated.append(sample.id)
        return validate_sample(sample)

    monkeypatch.setattr(dataset, "validate_sample", counted)
    assert len(json.loads(Path(MANIFEST).read_text())) == 2
    assert run_cli(
        "collect", "--manifest", MANIFEST, "--sample", "mount-param", "--out", str(tmp_path)
    ) == 0
    assert validated == ["mount-param"]


def mount_entry():
    """The fixture manifest's mount-param entry, with absolute paths."""
    mount = json.loads(Path(MANIFEST).read_text())[0]
    return {
        **mount,
        **{key: str(FIXTURES / mount[key]) for key in ("pre_root", "post_root", "ground_truth_path")},
    }


@pytest.mark.parametrize(
    "entries, message",
    [
        (lambda m: [{**m, "id": "other"}], "sample mount-param is not in"),
        # The first entry with the id decides, even with a clean one after it.
        (lambda m: [{"id": "mount-param"}, m], "sample mount-param was rejected: malformed-entry"),
        (
            lambda m: [{**m, "pre_root": "nowhere"}, m],
            "sample mount-param was rejected: missing-snapshot",
        ),
    ],
)
def test_single_sample_command_names_a_missing_or_rejected_sample(
    tmp_path, capsys, entries, message
):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries(mount_entry())))
    code = run_cli(
        "collect", "--manifest", str(manifest), "--sample", "mount-param",
        "--out", str(tmp_path / "a"),
    )
    assert code == 2
    assert message in capsys.readouterr().err


def test_rerank_writes_scores_and_selection(tmp_path):
    out = tmp_path / "art"
    assert run_cli(
        "rerank", "--manifest", MANIFEST, "--sample", "mount-param",
        "--out", str(out), "--k", "2",
    ) == 0
    scored = json.loads((out / "mount-param" / "scored.json").read_text())
    assert scored["scorer"] == "lexical"
    assert scored["scorer_fallback"] is False
    top = scored["rankings"]["class:MountPOptions"][0]
    assert top["text"] == "public static MountPOptions getDefaultInstance();"
    assert top["score"] == pytest.approx(0.654385, abs=1e-3)
    selected = json.loads((out / "mount-param" / "selected.json").read_text())
    group = selected["selected"]["class_ctx"]["MountPOptions"]
    # constructor retained outside the cutoff, plus k ranked members
    assert len(group["chunks"]) == 3
    assert group["chunks"][0]["is_constructor"] is True
    assert len(selected["selected"]["usage_ctx"]) == 2


def test_prompt_artifact_sha_matches_file_bytes(tmp_path):
    out = tmp_path / "art"
    assert run_cli(
        "prompt", "--manifest", MANIFEST, "--sample", "mount-param", "--out", str(out)
    ) == 0
    prompt_bytes = (out / "mount-param" / "prompt.txt").read_bytes()
    recorded = (out / "mount-param" / "prompt.sha256").read_text().strip()
    assert hashlib.sha256(prompt_bytes).hexdigest() == recorded
    assert b"[system]" in prompt_bytes and b"[user]" in prompt_bytes


def test_stage_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "art"
    for _ in range(2):
        for command in ("classify", "collect", "rerank", "prompt"):
            assert run_cli(
                command, "--manifest", MANIFEST, "--sample", "ret1-stats",
                "--out", str(out),
            ) == 0
        snapshot = {
            p.name: p.read_bytes() for p in sorted((out / "ret1-stats").iterdir())
        }
        if "first" not in locals():
            first = snapshot
    assert snapshot == first
    assert set(first) == {
        "chunks.json", "kinds.json", "prompt.sha256", "prompt.txt",
        "scored.json", "selected.json",
    }


def test_repair_replay_selects_ground_truth(tmp_path):
    replay = seed_replay_via_prompt_artifact(
        tmp_path, "mount-param", "mount/ground_truth.java"
    )
    out = tmp_path / "art"
    assert run_cli(
        "repair", "--manifest", MANIFEST, "--sample", "mount-param",
        "--provider", "replay", "--replay-dir", str(replay), "--out", str(out),
    ) == 0
    repaired = (out / "mount-param" / "repaired_test.java").read_text()
    assert "MountPOptions.getDefaultInstance()" in repaired
    assert repaired.endswith("}\n")
    doc = json.loads((out / "mount-param" / "repair.json").read_text())
    assert doc["selection_reason"] == "best-code-bleu"
    assert len(doc["candidates"]) == 3
    assert doc["candidates"][0]["syntax_ok"] is True
    assert doc["prompt_sha256"] == (
        (out / "mount-param" / "prompt.sha256").read_text().strip()
    )


def test_eval_writes_reports_and_prints_table(tmp_path, capsys):
    replay = tmp_path / "replay"
    replay.mkdir()
    for sample_id, gt in (
        ("mount-param", "mount/ground_truth.java"),
        ("ret1-stats", "ret1/ground_truth.java"),
    ):
        seed_replay_via_prompt_artifact(tmp_path, sample_id, gt)
    code = run_cli(
        "eval", "--manifest", MANIFEST, "--provider", "replay",
        "--replay-dir", str(tmp_path / "replay"), "--out", str(tmp_path / "report"),
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "mount-param" in stdout and "aggregate" in stdout
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert report["aggregates"]["accuracy"] == 1.0
    assert report["config"]["provider"] == "replay"
    for name in ("report.jsonl", "report.txt", "timings.jsonl",
                 "repairability_worksheet.csv"):
        assert (tmp_path / "report" / name).exists()


def test_eval_reruns_byte_identical(tmp_path, capsys):
    for sample_id, gt in (
        ("mount-param", "mount/ground_truth.java"),
        ("ret1-stats", "ret1/ground_truth.java"),
    ):
        seed_replay_via_prompt_artifact(tmp_path, sample_id, gt)

    def run(out_name):
        assert run_cli(
            "eval", "--manifest", MANIFEST, "--provider", "replay",
            "--replay-dir", str(tmp_path / "replay"),
            "--out", str(tmp_path / out_name),
        ) == 0
        return {
            name: (tmp_path / out_name / name).read_bytes()
            for name in ("report.json", "report.jsonl", "report.txt",
                         "repairability_worksheet.csv")
        }

    assert run("r1") == run("r2")
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "testmend.cli", "classify",
         "--manifest", MANIFEST, "--sample", "ret1-stats",
         "--out", str(tmp_path / "art")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "RetSynBC"


def test_importing_the_cli_does_not_load_requests():
    # Only the live provider and the remote scorer need requests.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, testmend.cli; print('requests' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_importing_the_cli_builds_no_dataclasses():
    # Records are named tuples and slotted classes, so the import compiles
    # no generated methods and loads neither dataclasses nor the inspect
    # module it imports; -S keeps a site hook from importing them first.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import testmend.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# configuration precedence and validation
# ----------------------------------------------------------------------


def _setting_values() -> dict:
    """A value of each setting's declared type other than its default."""
    types = get_type_hints(EvalSettings)
    values = {}
    for name, default in EvalSettings._field_defaults.items():
        if types[name] is bool:
            values[name] = not default
        elif types[name] is str:
            values[name] = "replay" if name == "provider" else f"{name}-value"
        else:
            values[name] = types[name](default + 2)
    return values


def test_every_setting_is_a_config_key(tmp_path):
    values = _setting_values()
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(values))
    args = build_parser().parse_args(
        ["eval", "--manifest", "m.json", "--config", str(cfg_file)]
    )
    config = resolve_config(args)
    assert config._asdict() == values
    types = get_type_hints(EvalSettings)
    assert all(type(getattr(config, name)) is types[name] for name in values)


@pytest.mark.parametrize("command", ["classify", "collect", "rerank", "prompt", "repair", "eval"])
def test_every_flag_is_a_setting(capsys, command):
    # llm_queries is set from the config file only.
    values = {k: v for k, v in _setting_values().items() if k != "llm_queries"}
    flags = {"--" + name.replace("_", "-"): name for name in values}
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert set(flags) <= listed
    assert listed - set(flags) <= {"--help", "--config", "--manifest", "--sample"}
    argv = [command, "--manifest", "m.json"] + ([] if command == "eval" else ["--sample", "s"])
    for flag, name in flags.items():
        argv += [flag, str(values[name])]
    assert resolve_config(build_parser().parse_args(argv)) == EvalSettings(**values)


def test_config_precedence_flags_over_file_over_env(tmp_path, monkeypatch):
    monkeypatch.setenv(ENDPOINT_VAR, "http://env-endpoint")
    monkeypatch.setenv(MODEL_VAR, "env-model")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"k": 7, "llm_model": "file-model"}))
    args = build_parser().parse_args(
        ["eval", "--manifest", "m.json", "--config", str(cfg_file), "--k", "9"]
    )
    config = resolve_config(args)
    assert config.k == 9  # flag beats config file
    assert config.llm_model == "file-model"  # config file beats environment
    assert config.llm_endpoint == "http://env-endpoint"  # environment fills the rest
    assert config.attempts == 3  # untouched default


def test_config_file_values_apply_without_flags(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps({"k": 1, "temperature": 0.5, "llm_queries": True, "jobs": 2})
    )
    args = build_parser().parse_args(
        ["eval", "--manifest", "m.json", "--config", str(cfg_file)]
    )
    config = resolve_config(args)
    assert (config.k, config.temperature, config.llm_queries, config.jobs) == (
        1, 0.5, True, 2,
    )


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("k", "3", 3),
        ("k", 4.0, 4),
        ("temperature", 1, 1.0),
        ("temperature", "0.5", 0.5),
    ],
)
def test_config_values_take_the_declared_type(tmp_path, key, value, expected):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}))
    args = build_parser().parse_args(
        ["eval", "--manifest", "m.json", "--config", str(cfg_file)]
    )
    resolved = getattr(resolve_config(args), key)
    assert (resolved, type(resolved)) == (expected, type(expected))


@pytest.mark.parametrize(
    "key, value",
    [
        ("k", 2.7),
        ("k", "2.5"),
        ("jobs", True),
        ("token_cap", False),
        ("temperature", True),
        ("llm_queries", 1),
        ("k", -1),
        ("attempts", 0),
        ("jobs", 0),
        ("out", None),
        ("lsp_command", ["java", "-jar"]),
        ("provider", True),
        ("provider", "bogus"),
    ],
)
def test_malformed_config_value_exits_2(tmp_path, capsys, key, value):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}))
    for command, sample in (
        ("classify", ["--sample", "mount-param"]),
        ("collect", ["--sample", "mount-param"]),
        ("eval", []),
    ):
        code = run_cli(
            command, "--manifest", MANIFEST, *sample,
            "--config", str(cfg_file), "--out", str(tmp_path / "a"),
        )
        assert code == 2, command
        assert f"config value {key}=" in capsys.readouterr().err, command
    assert not (tmp_path / "a").exists()


def test_out_of_range_flag_exits_2_naming_the_minimum(tmp_path, capsys):
    code = run_cli(
        "rerank", "--manifest", MANIFEST, "--sample", "mount-param",
        "--k", "-1", "--out", str(tmp_path / "a"),
    )
    assert code == 2
    assert "config value k=-1 is invalid: must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_unknown_config_key_is_validation_error(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sorcerer": "remote"}))
    code = run_cli(
        "classify", "--manifest", MANIFEST, "--sample", "mount-param",
        "--config", str(cfg_file), "--out", str(tmp_path / "a"),
    )
    assert code == 2
    assert "unknown keys sorcerer" in capsys.readouterr().err


def test_sanitize_id_makes_safe_directory_names():
    assert sanitize_id("a/b:c d") == "a_b_c_d"
    assert sanitize_id("mount-param") == "mount-param"
    assert sanitize_id("v1.2_ok") == "v1.2_ok"
    assert [sanitize_id(i) for i in ("", ".", "..", "...", "../x")] == [
        "_", "_", "__", "...", ".._x"
    ]


@pytest.mark.parametrize("sample_id", ["", ".", "..", "../x", "a/../../x"])
def test_sample_ids_stay_inside_out(tmp_path, capsys, sample_id):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{**mount_entry(), "id": sample_id}]))
    work = tmp_path / "work"
    out = work / "out"
    assert run_cli(
        "classify", "--manifest", str(manifest), "--sample", sample_id, "--out", str(out)
    ) == 0
    written = [p for p in work.rglob("*") if p.is_file()]
    assert [p.name for p in written] == ["kinds.json"]
    assert written[0].parent.parent == out


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------


def test_unknown_sample_id_exits_2(tmp_path, capsys):
    code = run_cli(
        "classify", "--manifest", MANIFEST, "--sample", "ghost",
        "--out", str(tmp_path / "a"),
    )
    assert code == 2
    assert "ghost" in capsys.readouterr().err


def test_unreadable_manifest_exits_2(tmp_path, capsys):
    code = run_cli(
        "classify", "--manifest", str(tmp_path / "missing.json"),
        "--sample", "x", "--out", str(tmp_path / "a"),
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_repair_without_provider_exits_2(tmp_path, capsys):
    code = run_cli(
        "repair", "--manifest", MANIFEST, "--sample", "mount-param",
        "--out", str(tmp_path / "a"),
    )
    assert code == 2
    assert "--provider" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["collect", "rerank", "prompt", "repair", "eval"])
def test_malformed_lsp_command_exits_2(tmp_path, capsys, command):
    replay = tmp_path / "replay"
    replay.mkdir()
    sample = [] if command == "eval" else ["--sample", "mount-param"]
    code = run_cli(
        command, "--manifest", MANIFEST, *sample,
        "--lsp-command", '"unterminated',
        "--provider", "replay", "--replay-dir", str(replay),
        "--out", str(tmp_path / "a"),
    )
    assert code == 2
    assert "error: malformed --lsp-command" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_unknown_backend_in_config_file_exits_2(tmp_path, capsys):
    # The backends follow from lsp_command and scorer_endpoint; the keys
    # that once named them are unknown.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"backend": "lsp", "scorer": "remote"}))
    code = run_cli(
        "collect", "--manifest", MANIFEST, "--sample", "mount-param",
        "--config", str(cfg_file), "--out", str(tmp_path / "a"),
    )
    assert code == 2
    assert "unknown keys backend, scorer" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--backend", "lsp"], ["--scorer", "remote"]])
def test_removed_backend_flag_exits_2(tmp_path, flags):
    with pytest.raises(SystemExit) as exc:
        run_cli("eval", "--manifest", MANIFEST, *flags, "--out", str(tmp_path / "a"))
    assert exc.value.code == 2
    assert not (tmp_path / "a").exists()


def test_exhausted_replay_directory_exits_1(tmp_path, capsys):
    empty = tmp_path / "replay"
    empty.mkdir()
    code = run_cli(
        "repair", "--manifest", MANIFEST, "--sample", "mount-param",
        "--provider", "replay", "--replay-dir", str(empty),
        "--out", str(tmp_path / "a"),
    )
    assert code == 1
    assert "repair attempts failed" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_samples_sharing_a_prompt_get_the_same_replay_attempts(tmp_path, capsys, jobs):
    entries = {e["id"]: e for e in json.loads(Path(MANIFEST).read_text())}
    mount = {
        **entries["mount-param"],
        **{key: str(FIXTURES / entries["mount-param"][key])
           for key in ("pre_root", "post_root", "ground_truth_path")},
    }
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([mount, {**mount, "id": "mount-param-copy"}]))
    replay = seed_replay_via_prompt_artifact(
        tmp_path, "mount-param", "mount/ground_truth.java"
    )
    # Attempt 0 answers with the ground truth, attempts 1 and 2 with a
    # valid but wrong method: a sample served another sample's attempts
    # scores differently or fails.
    (plain,) = replay.iterdir()
    plain.rename(replay / f"{plain.stem}.0.txt")
    for attempt in (1, 2):
        (replay / f"{plain.stem}.{attempt}.txt").write_text(
            "```java\npublic void mount() throws Exception {\n}\n```"
        )
    out = tmp_path / "report"
    assert run_cli(
        "eval", "--manifest", str(manifest), "--provider", "replay",
        "--replay-dir", str(replay), "--out", str(out), "--jobs", jobs,
    ) == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    assert [row.pop("sample_id") for row in rows] == ["mount-param", "mount-param-copy"]
    assert rows[0] == rows[1]
    assert rows[0]["error"] is None and rows[0]["exact_match"] is True
