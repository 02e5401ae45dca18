"""The per-drop trimming loop, kept as the oracle of ``assemble_prompt``.

This is how :func:`testmend.prompting.assemble_prompt` trimmed before it
sorted its victims once: one ``_TrimEntry`` per chunk, a constructor
scored ``math.inf``, and after every dropped chunk a rescan of the
remaining entries with ``min``.  It is unchanged apart from this
docstring, its imports, its log line and the two constant fields
``RepairPrompt`` no longer has.  ``tests/test_prompting.py`` checks that
both give equal prompts over generated bundles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from testmend.javasrc.format import canonicalize
from testmend.prompting import (
    CLASS_SECTION_DESC,
    DEFAULT_TOKEN_CAP,
    ENV_FOCAL_SECTION,
    ENV_TEST_SECTION,
    USAGE_SECTION,
    PromptSection,
    RepairPrompt,
    focal_diff_text,
)
from testmend.rerank import RerankResult
from testmend.signatures import FocalChange
from testmend.snapshot import DiffText


@dataclass
class _TrimEntry:
    family_rank: int  # lower rank is trimmed first on ties
    family_pos: int
    section_index: int
    text: str
    score: float


def assemble_prompt(
    focal: FocalChange,
    test_text: str,
    ranked: RerankResult,
    focal_diff: DiffText,
    *,
    token_cap: int = DEFAULT_TOKEN_CAP,
) -> RepairPrompt:
    scores = {
        id(scored.chunk): scored.score
        for family in ranked.rankings.values()
        for scored in family
    }
    troctx = ranked.bundle
    sections: list[tuple[str, str, list[str]]] = []
    entries: list[_TrimEntry] = []

    def add_section(label, description, chunks, family_rank):
        if not chunks:
            return
        index = len(sections)
        sections.append((label, description, [c.text for c in chunks]))
        for pos, c in enumerate(chunks):
            score = math.inf if c.is_constructor else scores.get(id(c), 0.0)
            entries.append(_TrimEntry(family_rank, pos, index, c.text, score))

    for type_name, group in troctx.class_ctx.items():
        add_section(
            f"Defined in class {type_name}", CLASS_SECTION_DESC, group.chunks, 3
        )
    add_section(
        USAGE_SECTION[0],
        USAGE_SECTION[1].format(name=focal.updated.name),
        troctx.usage_ctx,
        2,
    )
    add_section(*ENV_FOCAL_SECTION, troctx.env_ctx_focal, 1)
    add_section(*ENV_TEST_SECTION, troctx.env_ctx_test, 0)
    original_test_text = canonicalize(test_text)
    diff_text = focal_diff_text(focal, focal_diff)

    def build(trimmed: int) -> RepairPrompt:
        return RepairPrompt(
            original_test_text=original_test_text,
            focal_diff_text=diff_text,
            context_sections=tuple(
                PromptSection(label, desc, tuple(texts))
                for label, desc, texts in sections
                if texts
            ),
            trimmed_chunks=trimmed,
        )

    trimmed = 0
    prompt = build(trimmed)
    while prompt.token_count() > token_cap:
        removable = [e for e in entries if e.score != math.inf]
        if not removable:
            break
        victim = min(removable, key=lambda e: (e.score, e.family_rank, -e.family_pos))
        entries.remove(victim)
        sections[victim.section_index][2].remove(victim.text)
        trimmed += 1
        prompt = build(trimmed)
    return prompt
