"""Wire-level tests of the LSP resolver against a scripted stdio server."""

import shlex
import sys
from pathlib import Path

import pytest

from testmend import lsp
from testmend.dataset import load_manifest
from testmend.errors import BackendUnavailable
from testmend.evaluate import EvalSettings, prepare_sample
from testmend.javasrc.format import CursorPos
from testmend.lsp import LspResolver
from testmend.resolver import ResolverBackend, make_resolver
from testmend.snapshot import PRE, Location, RepoSnapshot

SERVER = str(Path(__file__).parent / "fake_lsp_server.py")
MANIFEST = Path(__file__).parent / "fixtures" / "manifest.json"

WIDGET = """package a;

public class Widget {
    public void spin(int n) { }
}
"""

GADGET = """package a;

public class Gadget {
    void go(Widget w) {
        w.spin(1); // Widget usage in comment: Widget
    }
}
"""


@pytest.fixture()
def repo(tmp_path):
    for version in ("pre", "post"):
        d = tmp_path / version / "src"
        d.mkdir(parents=True)
        (d / "Widget.java").write_text(WIDGET)
        (d / "Gadget.java").write_text(GADGET)
    return RepoSnapshot(tmp_path / "pre", tmp_path / "post")


@pytest.fixture()
def servers(monkeypatch):
    """Every language-server process started during the test."""
    started = []
    original = lsp.JsonRpcClient.__init__

    def record(self, *args, **kwargs):
        original(self, *args, **kwargs)
        started.append(self.proc)

    monkeypatch.setattr(lsp.JsonRpcClient, "__init__", record)
    yield started
    for proc in started:  # whatever the outcome, leave no server behind
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=5)


def backend(**env_extra):
    return ResolverBackend(
        kind="lsp",
        lsp_command=(sys.executable, SERVER),
        timeout=10.0,
    )


def make(repo, monkeypatch, **env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    return make_resolver(backend(), repo)


def gadget_usage_location(repo, resolver):
    text = resolver.document_text(PRE, "src/Gadget.java")
    line_index = next(
        i for i, line in enumerate(text.splitlines()) if "w.spin" not in line and "Widget w" in line
    )
    col = text.splitlines()[line_index].index("Widget")
    return Location(PRE, "src/Gadget.java", CursorPos(line_index, col),
                    CursorPos(line_index, col + len("Widget")))


def test_document_text_is_raw_disk_content(repo, monkeypatch):
    resolver = make(repo, monkeypatch)
    try:
        assert resolver.document_text(PRE, "src/Gadget.java") == GADGET
    finally:
        resolver.close()


def test_definition_over_the_wire(repo, monkeypatch):
    resolver = make(repo, monkeypatch)
    try:
        defs = resolver.goto_definition(gadget_usage_location(repo, resolver))
        assert len(defs) == 1
        assert defs[0].file == "src/Widget.java"
        # Position of 'Widget' on the 'public class Widget' line of raw text.
        assert defs[0].start == CursorPos(2, len("public class "))
        assert defs[0].end.col == defs[0].start.col + len("Widget")
    finally:
        resolver.close()


def test_location_links_are_normalized(repo, monkeypatch):
    resolver = make(repo, monkeypatch, FAKE_LSP_LINKS="1")
    try:
        defs = resolver.goto_definition(gadget_usage_location(repo, resolver))
        assert [d.file for d in defs] == ["src/Widget.java"]
    finally:
        resolver.close()


def test_references_include_raw_text_hits(repo, monkeypatch):
    resolver = make(repo, monkeypatch)
    try:
        refs = resolver.find_references(gadget_usage_location(repo, resolver))
        files = {r.file for r in refs}
        assert "src/Gadget.java" in files
        # The scripted server scans raw text, so comment occurrences on the
        # usage line are reported too; downstream canonical mapping is what
        # filters them.  Here we only assert wire fidelity and ordering.
        assert refs == sorted(refs, key=lambda r: (r.file, r.start.line, r.start.col))
    finally:
        resolver.close()


def test_timeout_then_retry_succeeds(repo, monkeypatch):
    monkeypatch.setenv("FAKE_LSP_STALL", "first-definition")
    resolver = LspResolver(
        repo,
        ResolverBackend(kind="lsp", lsp_command=(sys.executable, SERVER), timeout=1.5),
    )
    try:
        defs = resolver.goto_definition(gadget_usage_location(repo, resolver))
        assert [d.file for d in defs] == ["src/Widget.java"]
    finally:
        resolver.close()


def test_persistent_timeout_raises_backend_unavailable(repo, monkeypatch):
    monkeypatch.setenv("FAKE_LSP_STALL", "always")
    resolver = LspResolver(
        repo,
        ResolverBackend(kind="lsp", lsp_command=(sys.executable, SERVER), timeout=0.5),
    )
    try:
        with pytest.raises(BackendUnavailable):
            resolver.goto_definition(gadget_usage_location(repo, resolver))
    finally:
        resolver.close()


def test_missing_command_raises(repo):
    with pytest.raises(BackendUnavailable):
        LspResolver(repo, ResolverBackend(kind="lsp", lsp_command=()))


def test_nonexistent_binary_raises(repo):
    resolver = LspResolver(
        repo, ResolverBackend(kind="lsp", lsp_command=("/no/such/binary",), timeout=1.0)
    )
    with pytest.raises(BackendUnavailable):
        resolver.goto_definition(
            Location(PRE, "src/Gadget.java", CursorPos(0, 0), CursorPos(0, 1))
        )


def test_prepare_sample_leaves_no_server_running(servers):
    command = shlex.join([sys.executable, SERVER])
    settings = EvalSettings(backend="lsp", lsp_command=command)
    for sample in load_manifest(MANIFEST).samples:
        prepare_sample(sample, settings=settings)
    assert len(servers) >= 2
    assert [proc.poll() is not None for proc in servers] == [True] * len(servers)


def test_failed_session_leaves_no_server_running(repo, monkeypatch, servers):
    monkeypatch.setenv("FAKE_LSP_STALL", "initialize")
    resolver = LspResolver(
        repo,
        ResolverBackend(kind="lsp", lsp_command=(sys.executable, SERVER), timeout=0.5),
    )
    with pytest.raises(BackendUnavailable):
        resolver.goto_definition(
            Location(PRE, "src/Gadget.java", CursorPos(0, 0), CursorPos(0, 1))
        )
    assert len(servers) == 1
    assert servers[0].poll() is not None
