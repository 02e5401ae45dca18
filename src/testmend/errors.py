"""Exception hierarchy shared across the toolkit.

Only two failure families matter operationally: problems with the inputs
(bad manifests, unparsable sources, locators that match nothing) and
problems with the infrastructure the pipeline leans on (language-server
backends, scoring services, chat-completion providers).  The CLI maps the
former to exit code 2 and the latter to exit code 1.
"""

from __future__ import annotations


class TestmendError(Exception):
    """Base class for all toolkit-specific errors."""


class InputError(TestmendError):
    """Invalid or inconsistent user-supplied input."""


class ParseError(InputError):
    """Java source that cannot be lexed or structurally parsed."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)


class LocatorNotFound(InputError):
    """A method locator matched no declaration in the given file."""


class CursorNotOnIdentifier(InputError):
    """A cursor position used for resolution does not sit on an identifier."""


class FocalInvocationNotFound(InputError):
    """The obsolete test never invokes the focal method."""


class ManifestError(InputError):
    """The dataset manifest is structurally invalid."""


class EmptyReference(InputError):
    """A similarity metric was asked to score against an empty reference."""


class InfrastructureError(TestmendError):
    """A backing service failed (resolver backend, scorer, provider)."""


class BackendUnavailable(InfrastructureError):
    """The resolver backend cannot be reached or timed out."""


class ScorerError(InfrastructureError):
    """The remote similarity scorer failed or returned a malformed payload."""


class ProviderError(InfrastructureError):
    """The chat-completion provider failed or returned a malformed payload."""
