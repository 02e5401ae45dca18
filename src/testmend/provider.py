"""Chat-completion providers: a live HTTP client and a replay directory.

The wire contract is a single HTTP POST whose JSON body carries
``{"model", "temperature", "messages"}`` and whose response contains the
assistant text.  The replay provider serves canned responses from a
directory keyed by a digest of the prompt, so whole pipeline runs are
reproducible offline.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, Sequence

from testmend.errors import ProviderError

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

ENDPOINT_VAR = "SYNBC_LLM_ENDPOINT"
MODEL_VAR = "SYNBC_LLM_MODEL"
KEY_VAR = "SYNBC_LLM_KEY"

Message = dict[str, str]


class ChatProvider(Protocol):
    """A source of assistant texts.

    ``waits`` is True when a request waits on something outside the
    process, such as a network call; only then does ``eval --jobs N`` run
    samples in threads, each releasing the pipeline's lock while its
    request is in flight (see :mod:`testmend.evaluate`).  A provider that
    answers at once gains nothing from threads, so it runs serially.
    """

    kind: str
    waits: bool

    def complete(
        self, messages: Sequence[Message], *, temperature: float = 0.0, attempt: int = 0
    ) -> str:
        """Return the assistant text for a chat-completion request.

        ``attempt`` numbers the independent requests made for one prompt
        (0, 1, ...); a provider may use it to pick a distinct response.
        """
        ...


def render_messages(messages: Sequence[Message]) -> str:
    """Prompt messages as one role-tagged text, the text replay keys hash."""
    return "\n\n".join(
        f"[{m.get('role', 'user')}]\n{m.get('content', '')}" for m in messages
    )


def prompt_digest(messages: Sequence[Message]) -> str:
    """Stable SHA-256 over the rendered prompt messages."""
    return hashlib.sha256(render_messages(messages).encode("utf-8")).hexdigest()


class LiveProvider:
    """HTTP chat-completion client with one retry per request."""

    kind = "live"
    waits = True

    def __init__(
        self,
        endpoint: str,
        model: str,
        *,
        key: str = "",
        timeout: float = 60.0,
        session: requests.Session | None = None,
    ):
        import requests  # only the live client needs it; it is slow to import

        self.endpoint = endpoint
        self.model = model
        self.key = key
        self.timeout = timeout
        self.session = session or requests.Session()

    def complete(
        self, messages: Sequence[Message], *, temperature: float = 0.0, attempt: int = 0
    ) -> str:
        import requests

        body = {
            "model": self.model,
            "temperature": temperature,
            "messages": [dict(m) for m in messages],
        }
        headers = {"Content-Type": "application/json"}
        if self.key:
            headers["Authorization"] = f"Bearer {self.key}"
        last_error: Exception | None = None
        for retry in range(2):
            try:
                response = self.session.post(
                    self.endpoint,
                    json=body,
                    headers=headers,
                    timeout=self.timeout,
                )
                response.raise_for_status()
                return _extract_text(response.json())
            except (requests.RequestException, ValueError, ProviderError) as exc:
                last_error = exc
                if retry == 0:
                    log.debug("provider request failed, retrying once: %s", exc)
        raise ProviderError(f"provider request failed after retry: {last_error}")

    def close(self) -> None:
        self.session.close()


def _extract_text(payload: object) -> str:
    """The assistant text from a chat-completion response body."""
    if isinstance(payload, dict):
        choices = payload.get("choices")
        if isinstance(choices, list) and choices:
            first = choices[0]
            if isinstance(first, dict):
                message = first.get("message")
                if isinstance(message, dict) and isinstance(message.get("content"), str):
                    return message["content"]
                if isinstance(first.get("text"), str):
                    return first["text"]
        for field in ("content", "text"):
            if isinstance(payload.get(field), str):
                return payload[field]
    raise ProviderError(f"no assistant text in provider response: {_brief(payload)}")


def _brief(payload: object) -> str:
    text = json.dumps(payload) if not isinstance(payload, str) else payload
    return text if len(text) <= 200 else text[:200] + "..."


class ReplayProvider:
    """Serves canned responses from ``<digest>[.<n>].txt`` files.

    Attempt ``n`` of a prompt is answered by ``<digest>.<n>.txt``, so a
    directory can hold distinct responses per attempt; a plain
    ``<digest>.txt`` answers every attempt.  The provider keeps no state
    between requests, so samples that share a prompt get the same answers.
    """

    kind = "replay"
    waits = False

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise ProviderError(f"replay directory does not exist: {self.directory}")

    def complete(
        self, messages: Sequence[Message], *, temperature: float = 0.0, attempt: int = 0
    ) -> str:
        digest = prompt_digest(messages)
        for name in (f"{digest}.{attempt}.txt", f"{digest}.txt"):
            path = self.directory / name
            if path.is_file():
                return path.read_text(encoding="utf-8")
        raise ProviderError(
            f"no replay response for prompt digest {digest} (attempt {attempt}) "
            f"in {self.directory}"
        )
