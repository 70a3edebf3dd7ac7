"""Seeded benchmark of the treealpha library, end to end and per module.

One workload per process::

    python3 bench/run.py --workload corpus --seed 1 --seconds 12 --trace 0

Every workload, several seeds each, with the spread of every metric::

    python3 bench/run.py --workload all --seed 1 --seconds 12 --runs 10 --out spread.json

A run builds its inputs from the seed in batches (set-up, at least
``SETUP_BATCHES`` times), processes the first ``core_batches`` of them (the
core), and, untraced, goes on until ``--seconds`` of operation time have
passed and the input schedule has run whole cycles.  Untraced times are
scaled by a speed probe (speed.py).  Outputs are checked by ``check.py``
outside the clock.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics (over the core
only) with ``--trace 1``.  The line before it, prefixed ``record``, holds
everything else the run measured.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "treealpha"
UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "latency_p90_ms": "ms",
    "bag_alpha_mean": "count",
}
# The end-to-end metrics every workload emits; BENCHMARK.json lists these.
END_TO_END = ("setup_s", "throughput_ops_s", "latency_p50_ms", "peak_rss_mb")
P90_MIN_OPS = 100
# Set-up runs at least this many times in a run; setup_s is the median.
SETUP_BATCHES = 20


def load_library():
    """Import the library afresh from ``src``, dropping any earlier import."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    return importlib.import_module(PACKAGE)


def commit_id(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_id(ROOT),
        "seed": seed,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, batch_size=None, whole_cycles=True
) -> dict:
    """One run of one workload in this process; returns the full record.

    Untraced, every set-up batch and every operation is timed twice: raw,
    and scaled by the speed probe (see speed.py).  The metrics use the
    scaled times; the record keeps the raw ones too.  Core outputs are
    checked after the core pass, later ones right after their operation,
    outside the clock, so that memory does not grow with the run's length.
    """
    work = WORKLOADS[name]
    size = batch_size or work.batch_size
    cycle = work.cycle if whole_cycles else 1
    setup_raw, setup_times, core = [], [], []
    raw_times, times = [], []
    failures: list[str] = []
    raised = 0
    answers: list[int] = []
    digest = hashlib.sha256()
    probe = speed.SpeedProbe(active=not trace)

    def process(item):
        if work.parts is None:
            result, raw, scaled = probe.timed(work.run, lib, item)
        else:
            result, raw, scaled = [], 0.0, 0.0
            for part in work.parts(item):
                part_result, part_raw, part_scaled = probe.timed(work.run, lib, part)
                raw += part_raw
                scaled += part_scaled
                if isinstance(part_result, Exception):
                    result = part_result
                    break
                result.append(part_result)
        raw_times.append(raw)
        times.append(scaled)
        return result

    def verify(item, result, in_core: bool) -> None:
        nonlocal raised
        if isinstance(result, Exception):
            raised += 1
            failures.append(f"{item.get('kind', item)}: {type(result).__name__}: {result}")
            return
        out, text = work.output(lib, item, result)
        problems, answer = work.check(item, out)
        if problems:
            failures.append(f"{item.get('kind', item)}: {problems[:3]}")
        if in_core:
            digest.update(text.encode() + b"\0")
            if answer is not None:
                answers.append(answer)

    def set_up(index):
        fresh = load_library()
        return fresh, work.build(fresh, seed, index, size)

    batches = []
    for index in range(max(work.core_batches, SETUP_BATCHES)):
        built, raw, scaled = probe.timed(set_up, index)
        if isinstance(built, Exception):
            raise built
        lib, batch = built
        batches.append(batch)
        setup_raw.append(raw)
        setup_times.append(scaled)
    core = [item for batch in batches[: work.core_batches] for item in batch]

    spans = tracer.Tracer(PACKAGE) if trace else None
    if spans:
        spans.install()
    try:
        results = [process(item) for item in core]
    finally:
        if spans:
            spans.uninstall()
    core_time = sum(raw_times)
    for item, result in zip(core, results):
        verify(item, result, True)
    del results

    def more_inputs():
        for batch in batches[work.core_batches :]:
            yield from batch
        for index in itertools.count(len(batches)):
            yield from work.build(lib, seed, index, size)

    # Untraced, go on to the first end of a schedule cycle after
    # ``seconds`` of scaled time, so that every run carries the same mix of
    # inputs and the host's speed does not change which inputs run.  Raw
    # time caps the pass at twice that on a very slow host.
    for item in more_inputs():
        spent = max(sum(times), sum(raw_times) / 2)
        if trace or (spent >= seconds and len(times) % cycle == 0):
            break
        verify(item, process(item), False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    completed = len(times) - raised
    record = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        **environment(seed),
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:10],
        "core_ops": len(core),
        "core_throughput_ops_s": len(core) / core_time,
        "digest": digest.hexdigest(),
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "throughput_ops_s": completed / sum(times),
            "latency_p50_ms": 1000 * statistics.median(times),
            "peak_rss_mb": peak_rss_mb,
            "failed_frac": len(failures) / len(times),
        },
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "throughput_ops_s": completed / sum(raw_times),
            "latency_p50_ms": 1000 * statistics.median(raw_times),
        },
        "probe_samples": len(probe.samples),
        "probe_ms": quartiles([1000 * t for t in probe.samples] or [0.0]),
        "latency_samples": len(times),
    }
    if len(times) >= P90_MIN_OPS:
        record["metrics"]["latency_p90_ms"] = 1000 * statistics.quantiles(times, n=10)[-1]
    if answers:
        record["metrics"]["bag_alpha_mean"] = statistics.fmean(answers)
    if spans:
        record["layers"] = spans.metrics()
    return record


def result_line(record: dict) -> dict:
    """The last output line: exactly the metrics BENCHMARK.json lists."""
    if record["trace"]:
        metrics = {
            k: {"value": v, "unit": tracer.unit_of(k)} for k, v in record["layers"].items()
        }
    else:
        metrics = {k: {"value": record["metrics"][k], "unit": UNITS[k]} for k in END_TO_END}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def run_child(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = next(l for l in proc.stdout.splitlines() if l.startswith("record "))
    return {**json.loads(line[len("record "):]), "wall_s": time.perf_counter() - start}


def run_all(seed: int, seconds: int, runs: int, names: list[str]) -> dict:
    """Each workload ``runs`` times untraced (seeds seed, seed+1, ...), then
    two untraced/traced pairs on ``seed`` in alternating order for the trace
    overhead and the repeat check; every run in a fresh process."""
    summary = {"environment": environment(seed), "seconds": seconds, "runs": runs,
               "workloads": {}}
    for name in names:
        plain = [run_child(name, seed + i, seconds, 0) for i in range(runs)]
        untraced, traced = [], []
        for order in ((0, 1), (1, 0)):
            for trace in order:
                (traced if trace else untraced).append(run_child(name, seed, seconds, trace))
        keys = sorted({k for r in plain for k in r["metrics"]})
        calls = [{k: v for k, v in t["layers"].items() if k.endswith(".calls")} for t in traced]
        digests = {r["digest"] for r in untraced + traced}
        entry = {
            "metrics": {k: quartiles([r["metrics"][k] for r in plain if k in r["metrics"]])
                        for k in keys},
            "failed": sum(r["failed"] for r in plain + untraced + traced),
            "attempted": sum(r["attempted"] for r in plain),
            "latency_samples": [r["latency_samples"] for r in plain],
            "raw_metrics": {k: quartiles([r["raw"][k] for r in plain]) for k in plain[0]["raw"]},
            "runs": [{"seed": r["seed"], "wall_s": r["wall_s"], **r["metrics"], "raw": r["raw"]}
                     for r in plain],
            "trace_overhead": statistics.fmean(
                t["core_throughput_ops_s"] / u["core_throughput_ops_s"]
                for u, t in zip(untraced, traced)
            ),
            "traced_repeat_identical": calls[0] == calls[1] and len(digests) == 1,
            "digest": digests.pop(),
            "layers": traced[0]["layers"],
        }
        summary["workloads"][name] = entry
        print(f"== {name}: failed {entry['failed']}, traced/untraced core throughput "
              f"{entry['trace_overhead']:.3f}, traced repeat identical "
              f"{entry['traced_repeat_identical']}", flush=True)
        for k, q in entry["metrics"].items():
            print(f"   {k:20s} median {q['median']:10.4f}  q1 {q['q1']:10.4f}  "
                  f"q3 {q['q3']:10.4f}  spread {q['spread']:.3f}", flush=True)
        for k, q in entry["raw_metrics"].items():
            print(f"   raw {k:16s} median {q['median']:10.4f}  spread {q['spread']:.3f}", flush=True)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload (all only)")
    parser.add_argument("--out", help="write the all-workload summary here as JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / PACKAGE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        summary = run_all(args.seed, args.seconds, args.runs, list(WORKLOADS))
        if args.out:
            Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        return 0

    sys.path.insert(0, str(ROOT / "src"))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for key, value in record["metrics"].items():
        print(f"{key:24s} {value:.6g} {UNITS[key]}")
    print(f"{'ops':24s} {record['attempted']} (core {record['core_ops']})")
    print(f"{'digest':24s} {record['digest']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
