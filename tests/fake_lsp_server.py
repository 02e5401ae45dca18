"""A tiny stdio language server used to test the LSP client wire-level.

Behavior is intentionally simple and fully deterministic:

* definitions: the identifier under the cursor is looked up as a type
  declaration (``class|interface|enum NAME``) across workspace files;
* references: every word-boundary occurrence of the identifier across
  workspace files except type-declaration sites.

Environment knobs used by tests:

* ``FAKE_LSP_STALL=first-definition`` — swallow the first definition
  request (forces a client retry);
* ``FAKE_LSP_STALL=always`` — swallow every definition request;
* ``FAKE_LSP_STALL=initialize`` — swallow the initialize request;
* ``FAKE_LSP_LINKS=1`` — answer definitions as LocationLink objects.
"""

import json
import os
import re
import sys
from pathlib import Path

ROOT = Path.cwd()
DOCS = {}
STALL = os.environ.get("FAKE_LSP_STALL", "")
LINKS = os.environ.get("FAKE_LSP_LINKS", "") == "1"
definition_calls = 0


def read_message(stdin):
    headers = {}
    while True:
        line = stdin.readline()
        if not line:
            return None
        line = line.strip()
        if not line:
            break
        name, _, value = line.decode("ascii", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = stdin.read(length)
    if len(body) < length:
        return None
    return json.loads(body.decode("utf-8"))


def send(obj):
    body = json.dumps(obj).encode("utf-8")
    sys.stdout.buffer.write(b"Content-Length: %d\r\n\r\n" % len(body))
    sys.stdout.buffer.write(body)
    sys.stdout.buffer.flush()


def uri_of(path):
    return "file://" + str(path.resolve())


def workspace_files():
    return sorted(p for p in ROOT.rglob("*.java") if p.is_file())


def text_of(path):
    uri = uri_of(path)
    if uri in DOCS:
        return DOCS[uri]
    return path.read_text(encoding="utf-8")


def identifier_at(text, line, character):
    lines = text.split("\n")
    if line >= len(lines):
        return None
    for match in re.finditer(r"[A-Za-z_$][A-Za-z0-9_$]*", lines[line]):
        if match.start() <= character < match.end():
            return match.group(0)
    return None


def find_definitions(name):
    out = []
    pattern = re.compile(r"\b(?:class|interface|enum)\s+(" + re.escape(name) + r")\b")
    for path in workspace_files():
        text = text_of(path)
        for lineno, line in enumerate(text.split("\n")):
            m = pattern.search(line)
            if m:
                rng = {
                    "start": {"line": lineno, "character": m.start(1)},
                    "end": {"line": lineno, "character": m.end(1)},
                }
                if LINKS:
                    out.append({"targetUri": uri_of(path), "targetSelectionRange": rng})
                else:
                    out.append({"uri": uri_of(path), "range": rng})
    return out


def find_references(name):
    out = []
    decl = re.compile(r"\b(?:class|interface|enum)\s+$")
    for path in workspace_files():
        text = text_of(path)
        for lineno, line in enumerate(text.split("\n")):
            for m in re.finditer(r"\b" + re.escape(name) + r"\b", line):
                if decl.search(line[: m.start()]):
                    continue
                out.append(
                    {
                        "uri": uri_of(path),
                        "range": {
                            "start": {"line": lineno, "character": m.start()},
                            "end": {"line": lineno, "character": m.end()},
                        },
                    }
                )
    return out


def resolve_position(params):
    uri = params["textDocument"]["uri"]
    pos = params["position"]
    text = DOCS.get(uri)
    if text is None:
        path = Path(uri.replace("file://", ""))
        text = path.read_text(encoding="utf-8")
    return identifier_at(text, pos["line"], pos["character"])


def main():
    global definition_calls
    stdin = sys.stdin.buffer
    while True:
        message = read_message(stdin)
        if message is None:
            return
        if "method" not in message:
            continue  # response to one of our own requests
        method = message["method"]
        msg_id = message.get("id")
        if method == "initialize":
            if STALL == "initialize":
                continue  # the session never starts
            # Exercise the client's server-request handling before the
            # initialize response arrives.
            send({"jsonrpc": "2.0", "id": 999, "method": "workspace/configuration",
                  "params": {"items": []}})
            send({"jsonrpc": "2.0", "id": msg_id,
                  "result": {"capabilities": {"definitionProvider": True,
                                              "referencesProvider": True}}})
        elif method == "initialized":
            pass
        elif method == "textDocument/didOpen":
            doc = message["params"]["textDocument"]
            DOCS[doc["uri"]] = doc["text"]
        elif method == "textDocument/definition":
            definition_calls += 1
            if STALL == "always" or (STALL == "first-definition" and definition_calls == 1):
                continue  # never answer: the client must retry / give up
            name = resolve_position(message["params"])
            send({"jsonrpc": "2.0", "id": msg_id,
                  "result": find_definitions(name) if name else None})
        elif method == "textDocument/references":
            name = resolve_position(message["params"])
            send({"jsonrpc": "2.0", "id": msg_id,
                  "result": find_references(name) if name else []})
        elif method == "shutdown":
            send({"jsonrpc": "2.0", "id": msg_id, "result": None})
        elif method == "exit":
            return
        elif msg_id is not None:
            send({"jsonrpc": "2.0", "id": msg_id, "result": None})


if __name__ == "__main__":
    main()
