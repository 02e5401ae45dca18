"""One cold ``testmend eval`` in a fresh interpreter, timed at its seams.

Usage::

    python bench/rep.py --src SRC --manifest M --replay-dir R --out OUT \
        --jobs N --result RESULT.json [--spans SPANS.jsonl]

The eval goes through ``testmend.cli.main`` exactly as the console command
does.  Three bindings are wrapped to read the clock: ``cli.evaluate_dataset``
(set-up ends when it is entered, after the manifest is loaded and the
scorer, provider and settings are built), ``evaluate.run_sample`` (wall
time of each sample) and ``cli.write_report`` (the eval ends when it
returns).  With ``--spans`` the layers are traced as well (see
``tracer.py``) and their per-layer figures are added to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--replay-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, args.src)
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import testmend
    import testmend.cli as cli
    import testmend.evaluate as evaluate

    src = Path(args.src).resolve()
    if src not in Path(testmend.__file__).resolve().parents:
        print(f"testmend was imported from {testmend.__file__}, not {src}", file=sys.stderr)
        return 2

    marks: dict[str, float] = {}
    sample_walls: list[float] = []
    evaluate_dataset = cli.evaluate_dataset
    run_sample = evaluate.run_sample
    write_report = cli.write_report

    def timed_evaluate_dataset(*a, **kw):
        marks["eval_start"] = time.perf_counter()
        marks["cpu_start"] = _cpu_s()
        return evaluate_dataset(*a, **kw)

    def timed_run_sample(*a, **kw):
        t = time.perf_counter()
        try:
            return run_sample(*a, **kw)
        finally:
            sample_walls.append(time.perf_counter() - t)

    def timed_write_report(*a, **kw):
        paths = write_report(*a, **kw)
        marks["eval_end"] = time.perf_counter()
        marks["cpu_end"] = _cpu_s()
        return paths

    cli.evaluate_dataset = timed_evaluate_dataset
    evaluate.run_sample = timed_run_sample
    cli.write_report = timed_write_report
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "eval",
            "--manifest", args.manifest,
            "--provider", "replay",
            "--replay-dir", args.replay_dir,
            "--jobs", str(args.jobs),
            "--out", args.out,
        ])
    if code != 0 or "eval_end" not in marks:
        print(f"testmend eval exited with {code}", file=sys.stderr)
        return 1
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": marks["eval_start"] - start,
        "eval_s": marks["eval_end"] - marks["eval_start"],
        "cpu_s": marks["cpu_end"] - marks["cpu_start"],
        "sample_walls": sample_walls,
        "peak_rss_mb": (own + children) / 1024.0,
    }
    if tracer is not None:
        from layers import aggregate

        tracer.dump(Path(args.spans))
        result["layers"] = aggregate(tracer.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
