"""Dataset evaluation: per-sample pipeline runs, aggregates, report files."""

import json
import shutil
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from testmend import evaluate, metrics, resolver
from testmend.dataset import RepairSample, load_manifest, load_sample
from testmend.errors import ScorerError
from testmend.evaluate import (
    EvalSettings,
    EvaluationReport,
    SampleScore,
    evaluate_dataset,
    prepare_sample,
    run_sample,
    write_report,
)
from testmend.javasrc import lexer
from testmend.javasrc.ast import parse_java
from testmend.javasrc.format import canonicalize
from testmend.provider import LiveProvider, ReplayProvider, prompt_digest
from testmend.rerank import LexicalScorer

import metrics_oracle

FIXTURES = Path(__file__).parent / "fixtures"

STAGE_NAMES = {"load", "classify", "collect", "queries", "rerank", "prompt"}


@pytest.fixture(scope="module")
def fixture_samples():
    load = load_manifest(FIXTURES / "manifest.json")
    assert load.rejects == []
    assert [s.id for s in load.samples] == ["mount-param", "ret1-stats"]
    return load.samples


def seed_replay(tmp_path, samples, response_for):
    """Write one replay response per sample, keyed by its prompt digest."""
    replay = tmp_path / "replay"
    replay.mkdir(exist_ok=True)
    for sample in samples:
        prepared = prepare_sample(sample)
        digest = prompt_digest(prepared.prompt.messages())
        (replay / f"{digest}.txt").write_text(
            response_for(sample, prepared), encoding="utf-8"
        )
    return ReplayProvider(replay)


def ground_truth_response(sample, prepared):
    return "```java\n" + sample.ground_truth + "\n```"


def unchanged_test_response(sample, prepared):
    return "```java\n" + prepared.test_text.strip() + "\n```"


def copy_mount(tmp_path, copy):
    """The ``mount-param`` entry over a copy of its snapshot in ``tmp_path/copy``."""
    mount = json.loads((FIXTURES / "manifest.json").read_text())[0]
    shutil.copytree(FIXTURES / "mount", tmp_path / copy / "mount")
    paths = {key: f"{copy}/{mount[key]}" for key in ("pre_root", "post_root", "ground_truth_path")}
    return {**mount, **paths}


def write_manifest(tmp_path, entries):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


# ----------------------------------------------------------------------
# pipeline stages on the bundled two-version repositories
# ----------------------------------------------------------------------


def test_prepare_sample_param_change_pipeline(fixture_samples):
    prepared = prepare_sample(fixture_samples[0])
    assert prepared.kinds == "ParamSynBC"
    assert prepared.queries.param_op_queries == (
        "setOptions()",
        "setMountOptions()",
        "MountOptions.defaults()",
    )
    assert prepared.queries.ret_op_queries == ()

    # All four caller diffs are collected; reranking keeps the default k.
    labels = {c.group_label for c in prepared.bundle.usage_ctx}
    assert labels == {
        "Usage change in src/FileSystemMaster.java",
        "Usage change in src/FsShell.java",
        "Usage change in src/MountCommand.java",
        "Usage change in src/UfsJournal.java",
    }
    assert len(prepared.ranked.bundle.usage_ctx) == 3

    group = prepared.ranked.bundle.class_ctx["MountPOptions"]
    assert group.role == "param"
    assert group.chunks[0].is_constructor
    assert group.chunks[1].text == "public static MountPOptions getDefaultInstance();"
    top = prepared.ranked.rankings["class:MountPOptions"][0]
    assert top.chunk.text == "public static MountPOptions getDefaultInstance();"
    assert top.score == pytest.approx(0.654385, abs=1e-3)

    env_focal_texts = "\n".join(c.text for c in prepared.ranked.bundle.env_ctx_focal)
    assert "+ import alluxio.grpc.MountPOptions;" in env_focal_texts
    assert "OpenFileOptions.getDefaultInstance()" in env_focal_texts
    assert prepared.ranked.bundle.env_ctx_test == []


def test_prepare_sample_return_change_pipeline(fixture_samples):
    prepared = prepare_sample(fixture_samples[1])
    assert prepared.kinds == "RetSynBC"
    assert prepared.queries.param_op_queries == ()
    assert prepared.queries.ret_op_queries == ("total()",)

    # Return changes extend the caller diff past the invocation statement.
    [usage] = prepared.bundle.usage_ctx
    assert usage.text.splitlines() == [
        "- Stats stats = mCounter.getStats();",
        "+ Summary stats = mCounter.getStats();",
        "- return prefix + stats.total();",
        "+ return prefix + stats.getTotal();",
    ]

    group = prepared.ranked.bundle.class_ctx["Summary"]
    assert group.role == "return"
    assert group.chunks[0].text == "public Summary(int total);"
    assert group.chunks[1].text == "public int getTotal();"
    assert prepared.ranked.bundle.env_ctx_focal == []
    assert prepared.ranked.bundle.env_ctx_test == []


def test_prepare_sample_parses_each_source_once(tmp_path, monkeypatch):
    """Hygiene parses each sample source once, in canonical form, and
    ``prepare_sample`` reads those parses from the shared cache."""
    entry = copy_mount(tmp_path, "once")
    sources = [
        ("pre", entry["focal"]["file_pre"]),
        ("post", entry["focal"]["file_post"]),
        ("pre", entry["test"]["file"]),
    ]
    # A comment no other test uses keeps cache entries left by earlier
    # tests from making the counts pass.  Both versions get it, so the
    # test file stays unchanged from PRE to POST.
    for version in ("pre", "post"):
        for path in {path for _, path in sources}:
            source = tmp_path / "once" / "mount" / version / path
            source.write_text(source.read_text() + f"// parsed once: {path}\n")
    manifest = write_manifest(tmp_path, [entry])
    parsed, lexed = [], []

    def counting_parse(text, tokens=None):
        parsed.append(text)
        return parse_java(text, tokens)

    def recording_lex(text):
        lexed.append(text)
        return lex(text)

    lex = lexer.lex
    monkeypatch.setattr(lexer, "lex", recording_lex)
    for name, module in list(sys.modules.items()):
        if name.startswith("testmend") and getattr(module, "parse_java", None) is parse_java:
            monkeypatch.setattr(module, "parse_java", counting_parse)
    sample = load_sample(manifest, entry["id"])
    snapshot = sample.snapshot()
    raw = [snapshot.read(version, path) for version, path in sources]
    canonical = [canonicalize(text) for text in raw]
    assert not set(raw) & set(parsed)
    assert sorted(text for text in parsed if text in canonical) == sorted(canonical)
    # The cached parses took the emitter's tokens: no canonical text was lexed.
    assert not set(canonical) & set(lexed)

    parsed.clear()
    prepare_sample(sample)
    assert not set(raw + canonical) & set(parsed)
    assert not set(canonical) & set(lexed)


def test_non_utf8_files_report_like_the_fixture(fixture_samples, tmp_path):
    """A Latin-1 file among the ones collect reads, or as the test file,
    changes no report row."""
    entry = copy_mount(tmp_path, "latin1")
    root = tmp_path / "latin1" / "mount"
    for version in ("pre", "post"):
        (root / version / "src" / "Legacy.java").write_bytes(
            b"// Ren\xe9 wrote this.\npublic class Legacy {\n}\n"
        )
    with (root / "pre" / entry["test"]["file"]).open("ab") as test_file:
        test_file.write(b"// Ren\xe9\n")
    load = load_manifest(write_manifest(tmp_path, [entry]))
    assert load.rejects == []
    provider = seed_replay(tmp_path, fixture_samples[:1], ground_truth_response)
    expected = evaluate_dataset(fixture_samples[:1], provider=provider)
    report = evaluate_dataset(load.samples, provider=provider)
    assert [r.as_dict() for r in report.rows] == [r.as_dict() for r in expected.rows]
    assert report.rows[0].error is None


def test_prepare_sample_records_stage_timings(fixture_samples):
    timings = {}
    prepare_sample(fixture_samples[0], timings=timings)
    assert STAGE_NAMES <= set(timings)
    assert all(v >= 0.0 for v in timings.values())


# ----------------------------------------------------------------------
# run_sample
# ----------------------------------------------------------------------


def test_run_sample_replay_ground_truth_scores_perfectly(fixture_samples, tmp_path):
    provider = seed_replay(tmp_path, fixture_samples, ground_truth_response)
    for sample in fixture_samples:
        row = run_sample(sample, provider=provider)
        assert row.error is None
        assert row.code_bleu == pytest.approx(1.0, abs=1e-9)
        assert row.diff_bleu == pytest.approx(1.0, abs=1e-9)
        assert row.exact_match is True
        assert row.exact_match_raw is True
        assert row.syntax_ok is True
        assert row.selection_reason == "best-code-bleu"
        assert row.selected_text == sample.ground_truth
        assert STAGE_NAMES | {"repair", "metrics"} <= set(row.timings)


def test_run_sample_unchanged_candidate_gets_zero_diff_bleu(fixture_samples, tmp_path):
    provider = seed_replay(tmp_path, fixture_samples, unchanged_test_response)
    row = run_sample(fixture_samples[0], provider=provider)
    assert row.error is None
    assert row.syntax_ok is True
    assert row.diff_bleu == 0.0  # candidate changes nothing, reference does
    assert row.exact_match is False
    assert 0.0 < row.code_bleu < 1.0


def seed_attempts(tmp_path, sample, responses):
    """Replay ``responses[n]`` as attempt ``n`` of ``sample``'s prompt."""
    replay = tmp_path / "replay"
    replay.mkdir(exist_ok=True)
    digest = prompt_digest(prepare_sample(sample).prompt.messages())
    for attempt, response in enumerate(responses):
        (replay / f"{digest}.{attempt}.txt").write_text(response, encoding="utf-8")
    return ReplayProvider(replay)


def test_repair_and_metrics_build_each_text_once(fixture_samples, tmp_path, monkeypatch):
    """Past the prompt, no text is canonicalized or lexed twice, and the
    metrics stage reuses the CodeBLEU that selection computed."""
    sample = fixture_samples[0]
    prepared = prepare_sample(sample)
    truth = ground_truth_response(sample, prepared)
    unchanged = unchanged_test_response(sample, prepared)
    provider = seed_attempts(tmp_path, sample, [unchanged, truth, truth])
    serial = evaluate_dataset(
        [sample, sample], provider=provider, settings=EvalSettings(attempts=3)
    )

    seen = {"canonicalize": [], "lex": []}
    scored = []
    counting = False

    def counted(name, fn):
        def wrapper(text, *args):
            if counting:
                seen[name].append(text)
            return fn(text, *args)

        return wrapper

    for name, fn in (("canonicalize", canonicalize), ("lex", lexer.lex)):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("testmend") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    real_prepare, real_code_bleu = prepare_sample, metrics.code_bleu

    def prepare_then_count(*args, **kwargs):
        nonlocal counting
        prepared = real_prepare(*args, **kwargs)
        counting = True
        return prepared

    def code_bleu_from_run_sample(*args):
        scored.append(args)
        return real_code_bleu(*args)

    monkeypatch.setattr(evaluate, "prepare_sample", prepare_then_count)
    monkeypatch.setattr(metrics, "code_bleu", code_bleu_from_run_sample)
    row = evaluate.run_sample(sample, provider=provider, settings=EvalSettings(attempts=3))
    monkeypatch.undo()

    assert row.error is None and row.exact_match is True
    assert row.selection_reason == "best-code-bleu"
    assert scored == []  # selection's score is the row's
    for name, texts in seen.items():
        repeated = {text for text in texts if texts.count(text) > 1}
        assert not repeated, f"{name} ran more than once on {sorted(repeated)}"
    # Attempt 0 returns the obsolete test unchanged, which diff_bleu also
    # reads; attempts 1 and 2 return the ground truth.  So two texts.
    assert sorted(seen["canonicalize"]) == sorted({prepared.test_text, sample.ground_truth})

    def report_bytes(report, out_name):
        paths = write_report(report, tmp_path / out_name)
        return [paths[key].read_bytes() for key in ("json", "jsonl", "text", "worksheet")]

    parallel = evaluate_dataset(
        [sample, sample], provider=provider, settings=EvalSettings(attempts=3, jobs=4)
    )
    assert report_bytes(serial, "jobs-1") == report_bytes(parallel, "jobs-4")


def test_row_scores_the_lowest_of_tied_candidates_like_the_oracle(fixture_samples, tmp_path):
    """A malformed attempt and two tied ones: the row scores the first of
    the tied attempts exactly as the text-level metrics do."""
    sample = fixture_samples[0]
    prepared = prepare_sample(sample)
    tied = unchanged_test_response(sample, prepared)
    malformed = "```java\nvoid broken() {\n```"
    provider = seed_attempts(tmp_path, sample, [malformed, tied, tied.replace("\n", "\n\n")])
    row = run_sample(sample, provider=provider)
    assert row.error is None
    assert row.selection_reason == "best-code-bleu"
    assert row.selected_text == prepared.test_text.strip()
    truth, original = sample.ground_truth, prepared.test_text
    assert row.code_bleu == metrics_oracle.code_bleu(row.selected_text, truth)
    assert row.diff_bleu == metrics_oracle.diff_bleu(original, row.selected_text, truth)
    assert row.exact_match == metrics_oracle.exact_match(row.selected_text, truth)


def test_run_sample_without_provider_records_error(fixture_samples):
    row = run_sample(fixture_samples[0])
    assert row.error == "ProviderError: no chat provider configured"
    # Stages before the repair still report: the prompt was assembled.
    assert row.kinds == "ParamSynBC"
    assert row.prompt_token_count > 0
    assert row.code_bleu is None and row.exact_match is None


def test_run_sample_broken_snapshot_records_error(tmp_path, fixture_samples):
    good = fixture_samples[0]
    bad = RepairSample(
        id="missing-roots",
        pre_root=str(tmp_path / "nope-pre"),
        post_root=str(tmp_path / "nope-post"),
        focal_pre=good.focal_pre,
        focal_post=good.focal_post,
        test=good.test,
        ground_truth="void t() {}",
    )
    row = run_sample(bad)
    assert row.error is not None
    assert row.code_bleu is None


def test_run_sample_reports_a_ground_truth_without_tokens(fixture_samples, tmp_path):
    # The manifest loaders reject such a sample; only the API reaches it.
    provider = seed_replay(tmp_path, fixture_samples, unchanged_test_response)
    sample = fixture_samples[0]._replace(ground_truth="// only a comment\n")
    row = run_sample(sample, provider=provider)
    assert row.error == "EmptyReference: code_bleu reference has no tokens"
    assert row.code_bleu is None and row.selection_reason == ""


class ExplodingScorer:
    kind = "remote"

    def score(self, query, documents):
        raise ScorerError("scorer endpoint unreachable")


def test_remote_scorer_failure_falls_back_to_lexical(fixture_samples, tmp_path):
    provider = seed_replay(tmp_path, fixture_samples, ground_truth_response)
    row = run_sample(fixture_samples[0], scorer=ExplodingScorer(), provider=provider)
    assert row.scorer_fallback is True
    assert row.error is None
    # The lexical redo produces the same prompt, so the replay key still hits.
    assert row.exact_match is True


# ----------------------------------------------------------------------
# dataset-level evaluation and aggregates
# ----------------------------------------------------------------------


def test_evaluate_dataset_mixed_success_and_failure(fixture_samples, tmp_path):
    provider = seed_replay(tmp_path, fixture_samples, ground_truth_response)
    bad = RepairSample(
        id="broken",
        pre_root=str(tmp_path / "gone"),
        post_root=str(tmp_path / "gone"),
        focal_pre=fixture_samples[0].focal_pre,
        focal_post=fixture_samples[0].focal_post,
        test=fixture_samples[0].test,
        ground_truth="void t() {}",
    )
    report = evaluate_dataset([*fixture_samples, bad], provider=provider)
    assert [r.sample_id for r in report.rows] == ["mount-param", "ret1-stats", "broken"]
    agg = report.aggregates()
    assert agg["samples"] == 3
    assert agg["errors"] == 1
    # Means over scored rows only for the BLEUs...
    assert agg["code_bleu"] == pytest.approx(1.0)
    assert agg["diff_bleu"] == pytest.approx(1.0)
    # ...but over every row for the pass rates: failures count as misses.
    assert agg["accuracy"] == pytest.approx(2 / 3, abs=1e-6)
    assert agg["spr"] == pytest.approx(2 / 3, abs=1e-6)
    assert report.config["provider"] == "replay"
    assert report.config["scorer"] == "lexical"


def test_aggregates_arithmetic_on_hand_built_rows():
    rows = [
        SampleScore(
            sample_id="a",
            code_bleu=0.8,
            diff_bleu=0.5,
            exact_match=True,
            exact_match_raw=False,
            syntax_ok=True,
        ),
        SampleScore(sample_id="b", error="InputError: boom"),
        SampleScore(sample_id="c", syntax_ok=True),  # ran, but no ground truth
    ]
    agg = EvaluationReport(rows=rows, config={}).aggregates()
    assert agg == {
        "samples": 3,
        "errors": 1,
        "code_bleu": 0.8,
        "diff_bleu": 0.5,
        "accuracy": pytest.approx(1 / 3, abs=1e-6),
        "accuracy_raw": 0.0,
        "spr": pytest.approx(2 / 3, abs=1e-6),
        "scorer_fallbacks": 0,
    }


def test_parallel_jobs_match_serial_results(fixture_samples, tmp_path):
    provider = seed_replay(tmp_path, fixture_samples, ground_truth_response)
    serial = evaluate_dataset(fixture_samples, provider=provider)
    parallel = evaluate_dataset(
        fixture_samples, provider=provider, settings=EvalSettings(jobs=4)
    )
    assert [r.as_dict() for r in serial.rows] == [r.as_dict() for r in parallel.rows]


def test_samples_sharing_files_report_alike_at_any_jobs(tmp_path, monkeypatch):
    """Two byte-identical snapshots read one cache, from one thread or four.

    The reports match each other and the rows of each sample run alone
    from an empty cache.
    """
    entries = [{**copy_mount(tmp_path, copy), "id": f"mount-{copy}"} for copy in ("a", "b")]
    load = load_manifest(write_manifest(tmp_path, entries))
    assert load.rejects == []
    provider = seed_replay(tmp_path, load.samples, ground_truth_response)

    def report_files(samples, jobs, out_name):
        monkeypatch.setattr(resolver, "_SOURCES", resolver.SourceCache())
        report = evaluate_dataset(samples, provider=provider, settings=EvalSettings(jobs=jobs))
        paths = write_report(report, tmp_path / out_name)
        return paths["json"].read_bytes(), paths["jsonl"].read_bytes()

    alone = b"".join(report_files([s], 1, f"alone-{s.id}")[1] for s in load.samples)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        serial = report_files(load.samples, 1, "jobs-1")
        parallel = report_files(load.samples, 4, "jobs-4")
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
    assert serial[1] == alone
    assert [json.loads(line)["exact_match"] for line in alone.splitlines()] == [True, True]


class InFlight:
    """Counts the calls in flight and the most seen at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self.active = 0
        self.most = 0
        self.overlapped = threading.Event()

    @contextmanager
    def call(self):
        with self._lock:
            self.active += 1
            self.most = max(self.most, self.active)
            if self.active > 1:
                self.overlapped.set()
        try:
            yield
        finally:
            with self._lock:
                self.active -= 1


class SlowScorer(LexicalScorer):
    """A lexical scorer whose calls wait as a remote one would."""

    def __init__(self):
        self.calls = InFlight()

    def score(self, query, documents):
        with self.calls.call():
            time.sleep(0.01)  # releases the interpreter lock
            return super().score(query, documents)


class WaitingProvider:
    """A replay provider whose calls wait (a bounded time) for a second one."""

    kind = "replay"

    def __init__(self, replay):
        self.replay = replay
        self.calls = InFlight()

    def complete(self, messages, **kwargs):
        with self.calls.call():
            self.calls.overlapped.wait(timeout=5)
            return self.replay.complete(messages, **kwargs)


def test_jobs_prepare_one_sample_at_a_time(fixture_samples, tmp_path):
    samples = fixture_samples * 2
    provider = seed_replay(tmp_path, fixture_samples, ground_truth_response)
    scorer = SlowScorer()
    report = evaluate_dataset(
        samples, scorer=scorer, provider=provider, settings=EvalSettings(jobs=4)
    )
    assert [r.error for r in report.rows] == [None] * len(samples)
    assert scorer.calls.most == 1


def test_jobs_overlap_provider_calls(fixture_samples, tmp_path):
    samples = fixture_samples * 2
    provider = WaitingProvider(seed_replay(tmp_path, fixture_samples, ground_truth_response))
    report = evaluate_dataset(samples, provider=provider, settings=EvalSettings(jobs=4))
    assert [r.exact_match for r in report.rows] == [True] * len(samples)
    assert provider.calls.most >= 2


def test_providers_name_their_kind(tmp_path):
    assert ReplayProvider(tmp_path).kind == "replay"
    assert LiveProvider("http://x", "m").kind == "live"
    assert evaluate_dataset([]).config["provider"] == "none"


# ----------------------------------------------------------------------
# report files
# ----------------------------------------------------------------------


def test_write_report_files_are_deterministic(fixture_samples, tmp_path):
    provider = seed_replay(tmp_path, fixture_samples, ground_truth_response)

    def render(out_name):
        report = evaluate_dataset(fixture_samples, provider=provider)
        out = tmp_path / out_name
        paths = write_report(report, out)
        return {name: p.read_bytes() for name, p in paths.items()}

    first = render("out-a")
    second = render("out-b")
    for name in ("json", "jsonl", "text", "worksheet"):
        assert first[name] == second[name], f"{name} differs between runs"
    # Timings are wall-clock measurements and deliberately live elsewhere.
    assert b"timings" not in first["json"]


def test_report_json_structure_and_worksheet(fixture_samples, tmp_path):
    provider = seed_replay(tmp_path, fixture_samples, ground_truth_response)
    report = evaluate_dataset(fixture_samples, provider=provider)
    out = tmp_path / "out"
    paths = write_report(report, out)

    doc = json.loads(paths["json"].read_text())
    assert set(doc) == {"aggregates", "config", "rows"}
    assert doc["aggregates"]["accuracy"] == 1.0
    assert [r["sample_id"] for r in doc["rows"]] == ["mount-param", "ret1-stats"]
    assert "timings" not in doc["rows"][0]

    jsonl_rows = [
        json.loads(line) for line in paths["jsonl"].read_text().splitlines()
    ]
    assert jsonl_rows == doc["rows"]

    timing_rows = [
        json.loads(line) for line in paths["timings"].read_text().splitlines()
    ]
    assert [t["sample_id"] for t in timing_rows] == ["mount-param", "ret1-stats"]
    assert all(set(t) == {"sample_id", "timings"} for t in timing_rows)

    table = paths["text"].read_text()
    assert "mount-param" in table and "ParamSynBC" in table
    assert "100.0" in table

    worksheet = paths["worksheet"].read_text().splitlines()
    assert worksheet[0] == "sample_id,candidate,ground_truth,verdict"
    assert len([l for l in worksheet if l.startswith("mount-param")]) >= 1


def test_render_table_shows_error_rows(tmp_path):
    report = EvaluationReport(
        rows=[SampleScore(sample_id="x", error="InputError: no such file")],
        config={"scorer": "lexical"},
    )
    out = tmp_path / "out"
    paths = write_report(report, out)
    table = paths["text"].read_text()
    assert "error: InputError: no such file" in table
    assert "errors: 1" in table
