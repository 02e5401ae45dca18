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

A resolver belongs to one sample and is used from one thread, so each
client has one request in flight at a time.  The client's reader thread
answers the server's own requests (``workspace/configuration`` and the
like) and hands responses to the waiting request, which drops the late
answer to an attempt that timed out.
"""

from __future__ import annotations

import json
import logging
import queue
import subprocess
import threading
import time
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
    """Minimal JSON-RPC 2.0 client over a subprocess's stdio.

    One request is in flight at a time: its caller is the one thread that
    sends requests.  The reader thread answers each server-to-client
    request itself (with a null result, under the write lock), drops
    notifications, and puts every response on one queue, then ``None`` at
    the end of the server's output.  :meth:`request` takes responses off
    the queue until its own arrives, dropping any other: that is the late
    answer to an attempt that timed out.
    """

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
        self._write_lock = threading.Lock()
        self._responses: queue.SimpleQueue[dict | None] = queue.SimpleQueue()
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
            while (message := self._read_message()) is not None:
                if not isinstance(message, dict):
                    continue  # not a JSON-RPC message
                if "method" not in message:
                    self._responses.put(message)
                elif "id" in message:
                    # Server-to-client request: answer with a null result so
                    # the server does not stall (workspace/configuration etc.).
                    try:
                        self._send(
                            {"jsonrpc": JSONRPC_VERSION, "id": message["id"], "result": None}
                        )
                    except BackendUnavailable:
                        pass
                # Notifications (diagnostics, logs) are ignored.
        except Exception as exc:  # noqa: BLE001 — reader must never crash silently
            log.debug("lsp reader stopped: %s", exc)
        self._dead = True
        self._responses.put(None)

    # -- calls -----------------------------------------------------------

    def notify(self, method: str, params: dict) -> None:
        self._send({"jsonrpc": JSONRPC_VERSION, "method": method, "params": params})

    def request(self, method: str, params: dict) -> object:
        last_error: str = "no attempt made"
        for _ in range(2):
            if self._dead:
                raise BackendUnavailable("language server process exited")
            msg_id = self._next_id
            self._next_id += 1
            self._send(
                {
                    "jsonrpc": JSONRPC_VERSION,
                    "id": msg_id,
                    "method": method,
                    "params": params,
                }
            )
            try:
                response = self._response(msg_id, time.monotonic() + self.timeout)
            except queue.Empty:
                last_error = f"timed out after {self.timeout}s"
                log.warning("lsp request %s %s; retrying", method, last_error)
                continue
            if response is None:
                last_error = "server closed the connection"
            elif "error" in response:
                error = response["error"]
                raise BackendUnavailable(f"{method} failed: {error.get('message', error)}")
            else:
                return response.get("result")
        raise BackendUnavailable(f"{method}: {last_error}")

    def _response(self, msg_id: int, deadline: float) -> dict | None:
        """The response to ``msg_id``, or None at the end of the server's output.

        Drops any other response: the late answer to an attempt that timed
        out.  Raises :class:`queue.Empty` at ``deadline``.
        """
        while True:
            response = self._responses.get(timeout=max(0.0, deadline - time.monotonic()))
            if response is None or response.get("id") == msg_id:
                return response

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


class LspResolver:
    """Resolver backed by a language server per snapshot version.

    Each version's server is started and initialized on first use; the
    resolver keeps one client and one set of opened paths per version.
    """

    def __init__(self, snapshot: RepoSnapshot, command: tuple[str, ...], timeout: float = 30.0):
        if not command:
            raise BackendUnavailable("no language-server command configured")
        self.index = CodeIndex(snapshot)
        self.command = tuple(command)
        self.timeout = timeout
        self._clients: dict[str, JsonRpcClient] = {}
        self._opened: dict[str, set[str]] = {}
        self._identifiers: dict[tuple[str, str], list[tuple[CursorPos, str, CursorPos]]] = {}

    def _client(self, version: str) -> JsonRpcClient:
        """The initialized server of ``version``, started on first use."""
        client = self._clients.get(version)
        if client is None:
            root = self.index.snapshot.root(version)
            client = JsonRpcClient(self.command, cwd=root, timeout=self.timeout)
            try:
                client.request(
                    "initialize",
                    {"processId": None, "rootUri": path_to_uri(root), "capabilities": {}},
                )
                client.notify("initialized", {})
            except BackendUnavailable:
                client.close()  # no resolver holds the server: end it here
                raise
            self._clients[version] = client
            self._opened[version] = set()
        return client

    def _identifier_tokens(
        self, version: str, path: str
    ) -> list[tuple[CursorPos, str, CursorPos]]:
        """A file's identifiers: the raw start, text and canonical start of each."""
        key = (version, path)
        if key not in self._identifiers:
            raw = lexer.lex(self.index.snapshot.read(version, path))
            canonical = self.index.tokens(version, path)
            lines, cols = canonical.lines, canonical.cols
            self._identifiers[key] = [
                (CursorPos(raw.lines[i], raw.cols[i]), raw.texts[i], CursorPos(lines[i], cols[i]))
                for i, kind in enumerate(raw.kinds)
                if kind == lexer.IDENT
            ]
        return self._identifiers[key]

    def _request(self, method: str, location: Location, **params: object) -> list[Location]:
        """Ask the version's server ``method`` at ``location``, opening its file first."""
        version, file = location.version, location.file
        client = self._client(version)
        uri = path_to_uri(self.index.snapshot.root(version) / file)
        if file not in self._opened[version]:
            text = self.index.snapshot.read(version, file)
            client.notify(
                "textDocument/didOpen",
                {"textDocument": {"uri": uri, "languageId": "java", "version": 1, "text": text}},
            )
            self._opened[version].add(file)
        cursor = location.start
        for raw_pos, text, pos in self._identifier_tokens(version, file):
            if pos.line == cursor.line and pos.col <= cursor.col < pos.col + len(text):
                break
        else:
            raise CursorNotOnIdentifier(f"no identifier at {location.describe()}")
        position = {"line": raw_pos.line, "character": raw_pos.col + cursor.col - pos.col}
        result = client.request(method, {"textDocument": {"uri": uri}, "position": position, **params})
        return self._normalize(version, result)

    def _to_location(self, version: str, raw: dict) -> Location | None:
        uri = raw.get("uri") or raw.get("targetUri")
        range_ = raw.get("range") or raw.get("targetSelectionRange") or raw.get("targetRange")
        if not uri or not range_:
            return None
        path = uri_to_path(uri)
        try:
            rel = path.resolve().relative_to(self.index.snapshot.root(version).resolve())
        except ValueError:
            return None  # outside the workspace (library code)
        file = str(rel).replace("\\", "/")
        line, col = range_["start"]["line"], range_["start"]["character"]
        for raw_pos, text, pos in self._identifier_tokens(version, file):
            if raw_pos.line == line and raw_pos.col <= col < raw_pos.col + len(text):
                end = CursorPos(pos.line, pos.col + len(text))
                return Location(version=version, file=file, start=pos, end=end)
        return None  # not on an identifier: no canonical position

    def goto_definition(self, location: Location) -> list[Location]:
        return self._request("textDocument/definition", location)

    def find_references(self, location: Location) -> list[Location]:
        return self._request(
            "textDocument/references", location, context={"includeDeclaration": False}
        )

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
        for client in self._clients.values():
            client.close()
        self._clients.clear()
        self._opened.clear()
