"""A fixed pure-Python reference kernel that gauges the host's current speed.

The benchmark runs on a few vCPUs of a shared host whose speed swings by up
to 2x over seconds to minutes, whatever the program does.  ``run.py`` times
this kernel right before and right after every repetition and scales that
repetition's times by ``NOMINAL_S`` over the kernel's time there (see
``run.py``).  The kernel is the benchmark's own code and never calls the
program, so a change to the program moves the reported figures in full,
while a change of host speed moves them less: over three sets of ten runs
per workload, the spread of a scaled figure was 0.4 to 0.95 times that of
the same figure as measured, about two thirds in the median.

The kernel does what the program's hot path does, on a fixed input: it
lexes Java-like text character by character, counts tokens in a dict,
sorts and joins strings, diffs two line lists with ``difflib``, and builds
and walks a tree of small objects, as a parser builds an AST.  Without the
tree, the kernel followed the host's speed swings on the parse-heavy
``large-repo`` workload much less well.

Run it alone to print a few timings::

    python bench/hostref.py
"""

from __future__ import annotations

import difflib
import random
import statistics
import time

# About the kernel's median time on a 2-vCPU Intel Xeon VM (2.0 GHz) of a
# shared host, under Python 3.11.  Reported times are scaled to a host that
# runs the kernel this fast.
NOMINAL_S = 0.06

_WORDS = [
    "public", "static", "final", "class", "void", "int", "String", "return", "new",
    "if", "else", "for", "while", "import", "package", "private", "List", "Map",
    "get", "set", "order", "total", "count", "value",
]


def _text() -> str:
    rng = random.Random(7)
    lines = []
    for i in range(1600):
        words = [rng.choice(_WORDS) + (str(rng.randrange(100)) if rng.random() < 0.3 else "")
                 for _ in range(10)]
        tail = " { x = y + 1; }" if i % 3 == 0 else ";"
        lines.append(" ".join(words) + tail)
    return "\n".join(lines)


_TEXT = _text()
_LINES = _TEXT.splitlines()
_EDITED = [line + " // changed" if i % 23 == 0 else line for i, line in enumerate(_LINES[:600])]


def _lex(text: str) -> list[tuple[str, str]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("id", text[i:j]))
            i = j
        elif c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j]))
            i = j
        else:
            tokens.append(("op", c))
            i += 1
    return tokens


class _Node:
    __slots__ = ("kind", "text", "children", "attrs")

    def __init__(self, kind: str, text: str) -> None:
        self.kind = kind
        self.text = text
        self.children: list[_Node] = []
        self.attrs: dict[str, int] = {}


def _tree(tokens: list[tuple[str, str]]) -> int:
    """Builds and walks an object tree of the tokens, like an AST."""
    root = _Node("unit", "")
    stack = [root]
    for i, (kind, value) in enumerate(tokens):
        node = _Node(kind, value)
        node.attrs["pos"] = i
        stack[-1].children.append(node)
        if value == "{":
            stack.append(node)
        elif value in ("}", ";") and len(stack) > 1:
            stack.pop()
    total = 0
    todo = [root]
    while todo:
        node = todo.pop()
        total += len(node.text) + len(node.attrs)
        todo.extend(node.children)
    return total


def kernel() -> int:
    """One pass of the reference work; returns a checksum."""
    tokens = _lex(_TEXT)
    counts: dict[str, int] = {}
    for _kind, value in tokens:
        counts[value] = counts.get(value, 0) + 1
    joined = " ".join(sorted(counts))
    diff = list(difflib.unified_diff(_LINES[:600], _EDITED, lineterm=""))
    return len(joined) + len(diff) + _tree(tokens)


def reference_s(repeats: int = 5) -> float:
    """Median wall time of ``repeats`` kernel calls, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


if __name__ == "__main__":
    print(" ".join(f"{reference_s():.4f}" for _ in range(5)))
