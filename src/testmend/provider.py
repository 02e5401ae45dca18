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
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import requests

from testmend.errors import ProviderError

log = logging.getLogger(__name__)

ENDPOINT_VAR = "SYNBC_LLM_ENDPOINT"
MODEL_VAR = "SYNBC_LLM_MODEL"
KEY_VAR = "SYNBC_LLM_KEY"

Message = dict[str, str]


class ChatProvider(Protocol):
    def complete(self, messages: Sequence[Message], *, temperature: float = 0.0) -> str:
        """Return the assistant text for a chat-completion request."""
        ...


def prompt_digest(messages: Sequence[Message]) -> str:
    """Stable SHA-256 over the rendered prompt messages."""
    rendered = "\n\n".join(
        f"[{m.get('role', 'user')}]\n{m.get('content', '')}" for m in messages
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str
    model: str
    key: str = ""
    timeout: float = 60.0


class LiveProvider:
    """HTTP chat-completion client with one retry per request."""

    def __init__(self, config: ProviderConfig, session: requests.Session | None = None):
        self.config = config
        self.session = session or requests.Session()

    def complete(self, messages: Sequence[Message], *, temperature: float = 0.0) -> str:
        body = {
            "model": self.config.model,
            "temperature": temperature,
            "messages": [dict(m) for m in messages],
        }
        headers = {"Content-Type": "application/json"}
        if self.config.key:
            headers["Authorization"] = f"Bearer {self.config.key}"
        last_error: Exception | None = None
        for attempt in range(2):
            try:
                response = self.session.post(
                    self.config.endpoint,
                    json=body,
                    headers=headers,
                    timeout=self.config.timeout,
                )
                response.raise_for_status()
                return _extract_text(response.json())
            except (requests.RequestException, ValueError, ProviderError) as exc:
                last_error = exc
                if attempt == 0:
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

    Repeated requests with the same prompt advance an attempt counter so
    a directory can hold distinct responses per attempt
    (``<digest>.0.txt``, ``<digest>.1.txt``, ...); a plain
    ``<digest>.txt`` answers every attempt.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise ProviderError(f"replay directory does not exist: {self.directory}")
        self._attempt_counts: dict[str, int] = {}

    def complete(self, messages: Sequence[Message], *, temperature: float = 0.0) -> str:
        digest = prompt_digest(messages)
        attempt = self._attempt_counts.get(digest, 0)
        self._attempt_counts[digest] = attempt + 1
        for name in (f"{digest}.{attempt}.txt", f"{digest}.txt"):
            path = self.directory / name
            if path.is_file():
                return path.read_text(encoding="utf-8")
        raise ProviderError(
            f"no replay response for prompt digest {digest} (attempt {attempt}) "
            f"in {self.directory}"
        )
