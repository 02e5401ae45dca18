"""Provider wire behavior against a local HTTP double and replay dirs."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from testmend.cli import build_parser, build_provider, resolve_config
from testmend.errors import InputError, ProviderError
from testmend.provider import (
    ENDPOINT_VAR,
    KEY_VAR,
    MODEL_VAR,
    LiveProvider,
    ReplayProvider,
    prompt_digest,
)

MESSAGES = [
    {"role": "system", "content": "You repair tests."},
    {"role": "user", "content": "Fix it."},
]


@pytest.fixture()
def http_double():
    """A local chat-completion server driven by a scripted response list."""
    state = {"script": [], "requests": []}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            state["requests"].append(
                {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
            )
            status, payload = (
                state["script"].pop(0) if state["script"] else (200, {"content": "ok"})
            )
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    state["endpoint"] = f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    yield state
    server.shutdown()
    server.server_close()


def provider_for(state, **kwargs) -> LiveProvider:
    return LiveProvider(state["endpoint"], "m-test", timeout=5.0, **kwargs)


def test_prompt_digest_is_stable_and_role_sensitive():
    d1 = prompt_digest(MESSAGES)
    assert d1 == prompt_digest([dict(m) for m in MESSAGES])
    assert len(d1) == 64
    flipped = [{**MESSAGES[0], "role": "user"}, MESSAGES[1]]
    assert prompt_digest(flipped) != d1


def test_live_provider_posts_contract_body(http_double):
    http_double["script"] = [
        (200, {"choices": [{"message": {"content": "repaired"}}]})
    ]
    provider = provider_for(http_double, key="sekret")
    text = provider.complete(MESSAGES, temperature=0.1)
    assert text == "repaired"
    (request,) = http_double["requests"]
    assert request["body"] == {
        "model": "m-test",
        "temperature": 0.1,
        "messages": MESSAGES,
    }
    assert request["auth"] == "Bearer sekret"


def test_live_provider_omits_auth_without_key(http_double):
    http_double["script"] = [(200, {"content": "x"})]
    provider_for(http_double).complete(MESSAGES)
    assert http_double["requests"][0]["auth"] is None


def test_live_provider_accepts_flat_and_text_shapes(http_double):
    http_double["script"] = [
        (200, {"content": "flat"}),
        (200, {"choices": [{"text": "legacy"}]}),
        (200, {"text": "bare"}),
    ]
    provider = provider_for(http_double)
    assert provider.complete(MESSAGES) == "flat"
    assert provider.complete(MESSAGES) == "legacy"
    assert provider.complete(MESSAGES) == "bare"


def test_live_provider_retries_once_then_succeeds(http_double):
    http_double["script"] = [(500, {"error": "boom"}), (200, {"content": "second"})]
    assert provider_for(http_double).complete(MESSAGES) == "second"
    assert len(http_double["requests"]) == 2


def test_live_provider_raises_after_two_failures(http_double):
    http_double["script"] = [(500, {}), (503, {})]
    with pytest.raises(ProviderError):
        provider_for(http_double).complete(MESSAGES)
    assert len(http_double["requests"]) == 2


def test_live_provider_rejects_textless_response(http_double):
    http_double["script"] = [(200, {"choices": []}), (200, {"choices": []})]
    with pytest.raises(ProviderError):
        provider_for(http_double).complete(MESSAGES)


def test_replay_provider_serves_plain_digest_file(tmp_path):
    digest = prompt_digest(MESSAGES)
    (tmp_path / f"{digest}.txt").write_text("canned")
    provider = ReplayProvider(tmp_path)
    assert provider.complete(MESSAGES) == "canned"
    assert provider.complete(MESSAGES, attempt=1) == "canned"  # every attempt


def test_replay_provider_attempt_sequencing(tmp_path):
    digest = prompt_digest(MESSAGES)
    (tmp_path / f"{digest}.0.txt").write_text("first")
    (tmp_path / f"{digest}.1.txt").write_text("second")
    (tmp_path / f"{digest}.txt").write_text("fallback")
    provider = ReplayProvider(tmp_path)
    assert provider.complete(MESSAGES) == "first"
    assert provider.complete(MESSAGES, attempt=1) == "second"
    assert provider.complete(MESSAGES, attempt=2) == "fallback"  # no .2 file
    # No state is kept between requests: attempt 0 is answered again.
    assert provider.complete(MESSAGES, attempt=0) == "first"


def test_replay_provider_missing_response_raises(tmp_path):
    provider = ReplayProvider(tmp_path)
    with pytest.raises(ProviderError) as exc:
        provider.complete(MESSAGES)
    assert prompt_digest(MESSAGES) in str(exc.value)


def test_replay_provider_requires_directory(tmp_path):
    with pytest.raises(ProviderError):
        ReplayProvider(tmp_path / "missing")


def provider_from(*flags):
    args = build_parser().parse_args(["eval", "--manifest", "m.json", *flags])
    return build_provider(resolve_config(args))


def test_live_provider_config_from_environment(monkeypatch):
    for var in (ENDPOINT_VAR, MODEL_VAR, KEY_VAR):
        monkeypatch.delenv(var, raising=False)
    assert provider_from() is None
    monkeypatch.setenv(ENDPOINT_VAR, "http://x/chat")
    monkeypatch.setenv(MODEL_VAR, "gpt-x")
    monkeypatch.setenv(KEY_VAR, "k")
    live = provider_from("--provider", "live")
    assert (live.endpoint, live.model, live.key, live.timeout) == (
        "http://x/chat", "gpt-x", "k", 60.0
    )


def test_build_provider_follows_provider_setting(tmp_path, monkeypatch):
    digest_dir = tmp_path / "replay"
    digest_dir.mkdir()
    monkeypatch.setenv(ENDPOINT_VAR, "http://live")
    monkeypatch.setenv(MODEL_VAR, "m")
    provider = provider_from("--provider", "replay", "--replay-dir", str(digest_dir))
    assert isinstance(provider, ReplayProvider)
    assert isinstance(provider_from("--provider", "live"), LiveProvider)
    assert provider_from() is None
    # A live provider needs a model: there is no fallback name.
    monkeypatch.delenv(MODEL_VAR)
    with pytest.raises(InputError, match="endpoint and model"):
        provider_from("--provider", "live")
