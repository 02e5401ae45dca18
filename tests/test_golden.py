"""Golden digests of every artifact the CLI writes for the bundled fixtures.

The other tests compare reruns of the same code with each other; this one
compares the bytes against digests pinned from an earlier commit, so a
refactor that is meant to change no output is checked across commits.
``timings.jsonl`` holds wall-clock times and is left out.

If an output is changed on purpose, print the new digests with
``PYTHONPATH=src python tests/test_golden.py`` and paste them below.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from testmend.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
MANIFEST = str(FIXTURES / "manifest.json")
SAMPLES = {
    "mount-param": "mount/ground_truth.java",
    "ret1-stats": "ret1/ground_truth.java",
}

GOLDEN = {
    "art/mount-param/chunks.json": (
        "4381b2816c8b80c52747230ba7e8f1146f5e08cc627244fa8479960b3b693aac"
    ),
    "art/mount-param/kinds.json": (
        "1cd195acf501bbcd0851095a848cf6ff16dfb0fadba442c33aca1ec82768df06"
    ),
    "art/mount-param/prompt.sha256": (
        "af7a45d914b46ca4543b4bc5e82fe8c17bd7607abd2bd0cc1a98fb1525c95712"
    ),
    "art/mount-param/prompt.txt": (
        "875d2bb09ba2fae3988e0dc5fa2ff21c1d38833b30a7f0eef560dac0116230ba"
    ),
    "art/mount-param/repair.json": (
        "1b04be1e2b2278c9ebde32295b366fb9958f2907c24e1b5c2836eb74f8615e25"
    ),
    "art/mount-param/repaired_test.java": (
        "19d9794e2f57918af1444624ba8a252d8961ddea29995be984b312ec75100794"
    ),
    "art/mount-param/scored.json": (
        "ca6021e2e060410b1bf06e92134df400062dde35a2303494569136c439d26388"
    ),
    "art/mount-param/selected.json": (
        "45f157d26beee298889d0ee68eb218c47144aea2d0714ee6871943d1ba1efbff"
    ),
    "art/ret1-stats/chunks.json": (
        "0b074d21c5d442555102e15603813161e62a9dfba8ccb9a3cf3bf26297bcd2af"
    ),
    "art/ret1-stats/kinds.json": (
        "9faa546753c2d28516c3af0b235eca7404edabf6a89fd5fdf4731d215a66f1f9"
    ),
    "art/ret1-stats/prompt.sha256": (
        "012fce210cb5d74bb0d05802827f96ac611c8bf2201e797fd4d2236ae8f13aa8"
    ),
    "art/ret1-stats/prompt.txt": (
        "2c31fa20f3967684503d495ff85faf44d4dba7ce74096ad115427830d3c0bee0"
    ),
    "art/ret1-stats/repair.json": (
        "eec25d2364a0def8fc71c9f4f082a98bf39b74f82d01645c34c548d230c7874d"
    ),
    "art/ret1-stats/repaired_test.java": (
        "1c9a4aa2ee4e90449e1e6010b86e830a58cdc49a3166830fafba08091ae86b14"
    ),
    "art/ret1-stats/scored.json": (
        "4d68547986aa7bde6067fad36313e14e1bb9746f7ddcbe7726bf83f9b3aaf772"
    ),
    "art/ret1-stats/selected.json": (
        "0403e0110975c1835207aa851cb04e3eab3172533c87716fcc292bdd0c70249a"
    ),
    "eval_stdout.txt": (
        "00701a86d13d7d3f4c5fd8c42df4b81eee5c311100aa8d46a5dbd394bfadf7c2"
    ),
    "report/repairability_worksheet.csv": (
        "e5ae56c407fe3dd7ee621bef0a10fda85a3587fbe2f38500edfa0c47fe8355e2"
    ),
    "report/report.json": (
        "ff49a7790c2c1980450b0caec949dce8b684a8112b24419a970f9d32f7abb3bc"
    ),
    "report/report.jsonl": (
        "fe98e06a45ed2e5b5acc9b24178cb96c2ff361081376f9789bbe6aa08e326b2e"
    ),
    "report/report.txt": (
        "00701a86d13d7d3f4c5fd8c42df4b81eee5c311100aa8d46a5dbd394bfadf7c2"
    ),
}


def produce_artifacts(root: Path) -> dict[str, str]:
    """Run every subcommand on the fixtures; SHA-256 of each file written."""
    art, replay, report = root / "art", root / "replay", root / "report"
    replay.mkdir()

    def run(*argv: str) -> str:
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert main([argv[0], "--manifest", MANIFEST, *argv[1:]]) == 0
        return stdout.getvalue()

    for sample_id, truth in SAMPLES.items():
        run("prompt", "--sample", sample_id, "--out", str(art))
        digest = (art / sample_id / "prompt.sha256").read_text().strip()
        ground_truth = (FIXTURES / truth).read_text().strip()
        (replay / f"{digest}.txt").write_text("```java\n" + ground_truth + "\n```")
    replay_flags = ("--provider", "replay", "--replay-dir", str(replay))
    for sample_id in SAMPLES:
        for command in ("classify", "collect", "rerank"):
            run(command, "--sample", sample_id, "--out", str(art))
        run("repair", "--sample", sample_id, "--out", str(art), *replay_flags)
    table = run("eval", "--jobs", "1", "--out", str(report), *replay_flags)
    (root / "eval_stdout.txt").write_text(table)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "timings.jsonl"
        and replay not in path.parents
    }


def test_artifacts_match_golden_digests(tmp_path):
    assert produce_artifacts(tmp_path) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        json.dump(produce_artifacts(Path(scratch)), sys.stdout, indent=4, sort_keys=True)
        print()
