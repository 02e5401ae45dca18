"""Language-server-protocol resolver backend.

Speaks JSON-RPC 2.0 over a child process's stdio with Content-Length
framing.  One server process is started per snapshot version (the
version's root is the workspace root).  It is the backend whenever a
server command line is configured (``--lsp-command``); an empty or blank
command selects the builtin resolver instead.

Like every :class:`~testmend.resolver.Resolver`, :class:`LspResolver`
takes and returns Locations in canonical coordinates, those of its own
:class:`~testmend.resolver.CodeIndex`.  It is the one place that maps
them to the raw file text the server sees and back: ``canonicalize``
keeps the token stream, so raw token *i* is token *i* of the file's
canonical tokens (``index.tokens``), and the two are paired once per
file.  A hit that is not on an identifier (say, a word inside a comment)
has no canonical position and is dropped.

Failure policy: each request gets a timeout (default 30 s) and a single
retry; a second failure — or a dead server process — raises
:class:`~testmend.errors.BackendUnavailable`.
"""

from __future__ import annotations

import json
import logging
import subprocess
import threading
from pathlib import Path
from urllib.parse import unquote, urlparse
from urllib.request import pathname2url

from testmend.errors import BackendUnavailable, CursorNotOnIdentifier
from testmend.javasrc import lexer
from testmend.javasrc.format import CursorPos
from testmend.resolver import CodeIndex
from testmend.snapshot import Location, RepoSnapshot

log = logging.getLogger(__name__)

JSONRPC_VERSION = "2.0"


def path_to_uri(path: Path) -> str:
    return "file:" + pathname2url(str(path.resolve()))


def uri_to_path(uri: str) -> Path:
    parsed = urlparse(uri)
    return Path(unquote(parsed.path))


class JsonRpcClient:
    """Minimal JSON-RPC 2.0 client over a subprocess's stdio."""

    def __init__(self, command: tuple[str, ...], cwd: Path, timeout: float = 30.0):
        self.timeout = timeout
        try:
            self.proc = subprocess.Popen(
                list(command),
                cwd=str(cwd),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise BackendUnavailable(f"cannot start language server {command!r}: {exc}")
        self._next_id = 1
        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._responses: dict[int, dict] = {}
        self._events: dict[int, threading.Event] = {}
        self._dead = False
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    # -- wire format -----------------------------------------------------

    def _send(self, message: dict) -> None:
        body = json.dumps(message).encode("utf-8")
        frame = b"Content-Length: %d\r\n\r\n%b" % (len(body), body)
        with self._write_lock:
            if self._dead or self.proc.stdin is None:
                raise BackendUnavailable("language server process is not running")
            try:
                self.proc.stdin.write(frame)
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                self._dead = True
                raise BackendUnavailable(f"language server write failed: {exc}")

    def _read_message(self) -> dict | None:
        stdout = self.proc.stdout
        assert stdout is not None
        headers: dict[str, str] = {}
        while True:
            line = stdout.readline()
            if not line:
                return None
            line = line.strip()
            if not line:
                break
            name, _, value = line.decode("ascii", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = stdout.read(length)
        if len(body) < length:
            return None
        return json.loads(body.decode("utf-8"))

    def _read_loop(self) -> None:
        try:
            while True:
                message = self._read_message()
                if message is None:
                    break
                self._dispatch(message)
        except Exception as exc:  # noqa: BLE001 — reader must never crash silently
            log.debug("lsp reader stopped: %s", exc)
        self._dead = True
        with self._lock:
            for event in self._events.values():
                event.set()

    def _dispatch(self, message: dict) -> None:
        if "id" in message and "method" in message:
            # Server-to-client request: answer with a null result so the
            # server does not stall (workspace/configuration etc.).
            try:
                self._send(
                    {"jsonrpc": JSONRPC_VERSION, "id": message["id"], "result": None}
                )
            except BackendUnavailable:
                pass
            return
        if "id" in message:
            try:
                msg_id = int(message["id"])
            except (TypeError, ValueError):
                return
            with self._lock:
                self._responses[msg_id] = message
                event = self._events.get(msg_id)
            if event is not None:
                event.set()
        # Notifications (diagnostics, logs) are ignored.

    # -- calls -----------------------------------------------------------

    def notify(self, method: str, params: dict) -> None:
        self._send({"jsonrpc": JSONRPC_VERSION, "method": method, "params": params})

    def request(self, method: str, params: dict) -> object:
        last_error: str = "no attempt made"
        for attempt in range(2):
            if self._dead:
                raise BackendUnavailable("language server process exited")
            with self._lock:
                msg_id = self._next_id
                self._next_id += 1
                event = threading.Event()
                self._events[msg_id] = event
            self._send(
                {
                    "jsonrpc": JSONRPC_VERSION,
                    "id": msg_id,
                    "method": method,
                    "params": params,
                }
            )
            if event.wait(self.timeout):
                with self._lock:
                    self._events.pop(msg_id, None)
                    response = self._responses.pop(msg_id, None)
                if response is None:
                    last_error = "server closed the connection"
                elif "error" in response:
                    error = response["error"]
                    raise BackendUnavailable(
                        f"{method} failed: {error.get('message', error)}"
                    )
                else:
                    return response.get("result")
            else:
                with self._lock:
                    self._events.pop(msg_id, None)
                last_error = f"timed out after {self.timeout}s"
                log.warning("lsp request %s %s; retrying", method, last_error)
        raise BackendUnavailable(f"{method}: {last_error}")

    def close(self) -> None:
        try:
            if not self._dead:
                self.request("shutdown", {})
                self.notify("exit", {})
        except BackendUnavailable:
            pass
        finally:
            self._dead = True
            try:
                self.proc.terminate()
                self.proc.wait(timeout=5)
            except Exception:  # noqa: BLE001
                self.proc.kill()
                self.proc.wait(timeout=5)
            self._reader.join(timeout=5)  # it stops at end of output
            for pipe in (self.proc.stdin, self.proc.stdout):
                if pipe is not None:
                    pipe.close()


class LspSession:
    """An initialized server for one workspace root."""

    def __init__(self, command: tuple[str, ...], root: Path, timeout: float):
        self.root = root
        self.client = JsonRpcClient(command, cwd=root, timeout=timeout)
        try:
            self.client.request(
                "initialize",
                {
                    "processId": None,
                    "rootUri": path_to_uri(root),
                    "capabilities": {},
                },
            )
        except BackendUnavailable:
            self.client.close()  # no session holds the server: end it here
            raise
        self.client.notify("initialized", {})
        self._opened: set[str] = set()

    def ensure_open(self, relpath: str, text: str) -> None:
        if relpath in self._opened:
            return
        self.client.notify(
            "textDocument/didOpen",
            {
                "textDocument": {
                    "uri": path_to_uri(self.root / relpath),
                    "languageId": "java",
                    "version": 1,
                    "text": text,
                }
            },
        )
        self._opened.add(relpath)

    def close(self) -> None:
        self.client.close()


class LspResolver:
    """Resolver backed by a language server per snapshot version."""

    def __init__(self, snapshot: RepoSnapshot, command: tuple[str, ...], timeout: float = 30.0):
        if not command:
            raise BackendUnavailable("no language-server command configured")
        self.snapshot = snapshot
        self.index = CodeIndex(snapshot)
        self.command = tuple(command)
        self.timeout = timeout
        self._sessions: dict[str, LspSession] = {}
        self._identifiers: dict[tuple[str, str], list[tuple[lexer.Token, CursorPos]]] = {}

    def _session(self, version: str) -> LspSession:
        if version not in self._sessions:
            self._sessions[version] = LspSession(
                self.command, self.snapshot.root(version), self.timeout
            )
        return self._sessions[version]

    def _identifier_tokens(
        self, version: str, path: str
    ) -> list[tuple[lexer.Token, CursorPos]]:
        """A file's raw identifier tokens, each with its canonical start."""
        key = (version, path)
        if key not in self._identifiers:
            raw = lexer.lex(self.snapshot.read(version, path))
            canonical = self.index.tokens(version, path)
            self._identifiers[key] = [
                (tok, CursorPos(at.line, at.col))
                for tok, at in zip(raw, canonical)
                if tok.kind == lexer.IDENT
            ]
        return self._identifiers[key]

    def _text_document_position(self, location: Location) -> dict:
        session = self._session(location.version)
        session.ensure_open(location.file, self.snapshot.read(location.version, location.file))
        cursor = location.start
        for tok, pos in self._identifier_tokens(location.version, location.file):
            if pos.line == cursor.line and pos.col <= cursor.col < pos.col + len(tok.text):
                break
        else:
            raise CursorNotOnIdentifier(f"no identifier at {location.describe()}")
        return {
            "textDocument": {
                "uri": path_to_uri(self.snapshot.root(location.version) / location.file)
            },
            "position": {"line": tok.line, "character": tok.col + cursor.col - pos.col},
        }

    def _to_location(self, version: str, raw: dict) -> Location | None:
        uri = raw.get("uri") or raw.get("targetUri")
        range_ = raw.get("range") or raw.get("targetSelectionRange") or raw.get("targetRange")
        if not uri or not range_:
            return None
        path = uri_to_path(uri)
        try:
            rel = path.resolve().relative_to(self.snapshot.root(version).resolve())
        except ValueError:
            return None  # outside the workspace (library code)
        file = str(rel).replace("\\", "/")
        line, col = range_["start"]["line"], range_["start"]["character"]
        for tok, pos in self._identifier_tokens(version, file):
            if tok.line == line and tok.col <= col < tok.col + len(tok.text):
                end = CursorPos(pos.line, pos.col + len(tok.text))
                return Location(version=version, file=file, start=pos, end=end)
        return None  # not on an identifier: no canonical position

    def goto_definition(self, location: Location) -> list[Location]:
        result = self._session(location.version).client.request(
            "textDocument/definition", self._text_document_position(location)
        )
        return self._normalize(location.version, result)

    def find_references(self, location: Location) -> list[Location]:
        params = self._text_document_position(location)
        params["context"] = {"includeDeclaration": False}
        result = self._session(location.version).client.request(
            "textDocument/references", params
        )
        return self._normalize(location.version, result)

    def _normalize(self, version: str, result: object) -> list[Location]:
        if result is None:
            return []
        raw_items = result if isinstance(result, list) else [result]
        out = []
        for item in raw_items:
            if isinstance(item, dict):
                loc = self._to_location(version, item)
                if loc is not None:
                    out.append(loc)
        out.sort(key=lambda loc: (loc.file, loc.start.line, loc.start.col))
        return out

    def close(self) -> None:
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()
