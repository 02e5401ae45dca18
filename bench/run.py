"""Offline eval benchmark for testmend.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads of ``BENCHMARK.json``, one after the other::

    for w in large-repo shared-project; do
        python3 bench/run.py --workload $w --seed 1 --seconds 55 --trace 0; done

``many-callers`` (``workloads.py``) runs the same way.  It is left out of
``BENCHMARK.json``: within the time all runs of the benchmark may take, a
third workload would leave each run too little time to be steady on a
2-vCPU VM of a shared host.

Run from the root of a source checkout (the code under test is
``src/testmend``).  One invocation:

1. generates the workload for ``--seed`` under ``.bench_work/`` (see
   ``workloads.py``);
2. runs the untimed gate (``gate.py``, one process): it seeds the replay
   directory with the code under test and checks the collected context of
   every sample against the planted truth;
3. with ``--trace 0``, runs cold ``testmend eval`` repetitions, each in a
   fresh interpreter (``rep.py``), for about ``--seconds`` seconds and
   reports the end-to-end metrics over repetitions, their times scaled to
   a nominal host speed measured with a fixed reference kernel
   (``hostref.py``; see ``end_to_end``);
   with ``--trace 1``, alternates untraced and traced repetitions and
   reports the per-layer metrics (``layers.py``) and the tracing overhead.

Every repetition must write a byte-identical ``report.json`` in which each
sample is an exact match.  A sample fails if it is an error row, if its
replayed repair is not an exact match, or if the gate found planted truth
missing from its context.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Not measured: the ``lsp`` backend (its only server is a test double under
``tests/``), the remote scorer and the live provider (they need a network),
and ``llm_queries`` (off by default).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostref import NOMINAL_S, reference_s  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import SMOKE, WORKLOADS, Workload, generate  # noqa: E402

MIN_REPS = 3
MIN_TRACE_PAIRS = 1
CHILD_TIMEOUT_S = 90

END_TO_END = {
    "samples_per_s": "1/s",
    "sample_p50_s": "s",
    "cpu_s_per_sample": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(args: list[str]) -> None:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")


def run_gate(wl: Workload, src: Path) -> dict[str, list[str]]:
    """Seed the replay directory; return each sample's missed truth.

    One process, so that no more than one core is busy at a time.
    """
    out = wl.root / "gate.json"
    _child([str(HERE / "gate.py"), "--src", str(src), "--work", str(wl.root), "--out", str(out)])
    results = json.loads(out.read_text(encoding="utf-8"))
    misses = {sid: results[sid]["misses"] if sid in results else ["not gated"] for sid in wl.sample_ids}
    digests = [results[sid]["digest"] for sid in wl.sample_ids if results.get(sid, {}).get("digest")]
    if len(set(digests)) != len(digests):
        raise BenchError("prompt digests are not distinct within the workload")
    return misses


def run_rep(wl: Workload, src: Path, index: int, traced: bool) -> dict:
    out = wl.root / f"out-{index}"
    result = wl.root / f"rep-{index}.json"
    args = [str(HERE / "rep.py"), "--src", str(src), "--manifest", str(wl.manifest),
            "--replay-dir", str(wl.root / "replay"), "--out", str(out),
            "--jobs", str(wl.jobs), "--result", str(result)]
    if traced:
        args += ["--spans", str(wl.root / f"spans-{index}.jsonl")]
    _child(args)
    rep = json.loads(result.read_text(encoding="utf-8"))
    report_bytes = (out / "report.json").read_bytes()
    rep["report_sha256"] = hashlib.sha256(report_bytes).hexdigest()
    rows = json.loads(report_bytes)["rows"]
    rep["row_ok"] = {r["sample_id"]: r["error"] is None and r["exact_match"] is True for r in rows}
    shutil.rmtree(out)
    return rep


def _failures(reps: list[dict], wl: Workload, misses: dict[str, list[str]]) -> int:
    failed = 0
    for rep in reps:
        for sid in wl.sample_ids:
            if misses[sid] or not rep["row_ok"].get(sid, False):
                failed += 1
    return failed


def _scale(rep: dict) -> float:
    """Factor that takes a repetition's times to the nominal host speed."""
    return NOMINAL_S / rep["ref_s"]


def _unscaled(rep: dict) -> float:
    return 1.0


def _sps(rep: dict, n: int) -> float:
    return n / (rep["eval_s"] * _scale(rep))


def _run_sps(reps: list[dict], n: int, scale=_scale) -> float:
    """Samples over scaled eval seconds, summed over the repetitions."""
    return n * len(reps) / sum(r["eval_s"] * scale(r) for r in reps)


def end_to_end(reps: list[dict], n: int, scale=_scale) -> dict[str, float]:
    """The run's figures, each repetition's times scaled to the nominal host speed.

    On a shared host the same work takes up to 2x longer at one moment than
    at another.  Each repetition's times are multiplied by ``NOMINAL_S /
    ref_s``, where ``ref_s`` is the time of the fixed reference kernel
    around that repetition (``hostref.py``): a figure is the time the
    program would take on a host that runs the kernel in ``NOMINAL_S``.
    Throughput and CPU time are totals over all repetitions; latency,
    set-up time and memory are medians.  ``main`` also prints the figures
    with ``scale=_unscaled``, as measured.
    """
    return {
        "samples_per_s": _run_sps(reps, n, scale),
        "sample_p50_s": statistics.median(w * scale(r) for r in reps for w in r["sample_walls"]),
        "cpu_s_per_sample": sum(r["cpu_s"] * scale(r) for r in reps) / (n * len(reps)),
        "setup_s": statistics.median(r["setup_s"] * scale(r) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(traced: list[dict], plain: list[dict], n: int) -> dict[str, float]:
    out = {}
    for name, _unit, _better, _moves in PER_LAYER:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        out[name] = statistics.median(values) if values else 0.0
    plain_sps = _run_sps(plain, n)
    traced_sps = _run_sps(traced, n)
    out["trace.overhead_pct"] = 100.0 * (plain_sps - traced_sps) / plain_sps
    return out


def measure(wl: Workload, src: Path, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Repetitions (alternately untraced and traced with ``trace``) for ``seconds``.

    The host reference (``hostref.py``) is timed before the first
    repetition and after every one; each repetition gets the mean of the
    two around it as ``ref_s``.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    minimum = MIN_TRACE_PAIRS if trace else MIN_REPS
    start = time.perf_counter()
    ref = reference_s()
    while True:
        elapsed = time.perf_counter() - start
        rounds = len(plain)
        if rounds >= minimum and elapsed + elapsed / rounds > seconds:
            break
        for kind in ([plain, traced] if trace else [plain]):
            rep = run_rep(wl, src, len(plain) + len(traced), traced=kind is traced)
            after = reference_s()
            rep["ref_s"] = (ref + after) / 2
            ref = after
            kind.append(rep)
    return plain, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes (smoke test)")
    args = parser.parse_args(argv)
    # Exit through the cleanup paths (children killed and waited for, work
    # directory removed) when terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = ROOT / "src"
    if not (src / "testmend" / "__init__.py").is_file():
        print(f"error: no testmend sources under {src}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        scale = SMOKE[args.workload] if args.smoke else WORKLOADS[args.workload]
        wl = generate(args.workload, args.seed, work, scale)
        misses = run_gate(wl, src)
        plain, traced = measure(wl, src, args.seconds, bool(args.trace))
        reps = plain + traced
        n = len(wl.sample_ids)
        failed = _failures(reps, wl, misses)
        identical = len({r["report_sha256"] for r in reps}) == 1
        raw: dict[str, float] = {}
        if args.trace:
            metrics = per_layer(traced, plain, n)
            units = {name: unit for name, unit, _b, _m in PER_LAYER}
            spans = work / f"spans-{len(reps) - 1}.jsonl"
            shutil.copyfile(spans, ROOT / ".bench_work" / f"{args.workload}.spans.jsonl")
        else:
            metrics = end_to_end(plain, n)
            units = END_TO_END
            raw = end_to_end(plain, n, scale=_unscaled)
            raw["ref_s"] = statistics.median(r["ref_s"] for r in plain)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = n * len(reps)
    for sid, missed in misses.items():
        for miss in missed:
            print(f"gate: {sid}: {miss}")
    if not identical:
        print("report.json differs between repetitions")
    print(f"workload {args.workload}: seed {args.seed}, {n} samples, jobs {wl.jobs}, "
          f"{len(plain)} untraced + {len(traced)} traced repetitions")
    print("  per repetition samples_per_s, scaled: "
          + " ".join(f"{_sps(r, n):.4f}" for r in plain)
          + (" | traced: " + " ".join(f"{_sps(r, n):.4f}" for r in traced) if traced else ""))
    if raw:
        print("  as measured, not scaled: "
              + " ".join(f"{name} {value:.6f}" for name, value in raw.items()))
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6f} {units[name]}")
    print(f"  {'failed_share':<44} {failed / attempted:>14.6f} ({failed}/{attempted} samples)")
    result = {
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
