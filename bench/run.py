"""End-to-end and per-layer benchmark of the higherlocal command path.

Run from the repository root::

    python3 bench/run.py --workload cli_goldens --seed 1 --seconds 30 --trace 0

Each task is generated ``.hl`` text fed through the user path in process:
``parse_specfile`` -> ``cli.run`` -> ``format_report``, with the working
precision set and restored around it as ``cli.main`` does.  The loop is
closed and single-threaded: the next task starts when the previous one
ends.  A run is a fixed number of whole cycles of tasks (see
``workloads.CYCLE``), chosen from ``--seconds`` so that it lasts about that
long at the baseline (``workloads.cycles_for``); it does not stop on the
clock, so every run of a workload attempts the same tasks.  Every output is
checked against a reference (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics.  The task timings
(latency, and throughput over the summed latencies) are adjusted for the
speed of the machine at the moment, measured by slices of fixed reference
work between tasks (see ``refclock.py``); the raw wall times are printed as
``wall_*`` metric lines.  ``setup_s`` is raw: a fresh interpreter's import
is mostly process start and file reads, which do not follow the reference
work's speed.  ``--trace 1`` replays the
first cycle of the same tasks alternately without and with the wrappers of
``tracing.py``, as many times as fill ``--seconds`` at the baseline, checks
that both give the same bytes, and prints per-layer metrics per traced task
plus the tracing overhead; the spans go to ``bench/out/``.

Human-readable lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A task
*fails* when it raises, ends ``Unstabilized`` (the CLI's exit 2) or prints
an integer that differs from its reference.  ``correct`` turns false only
when the program is wrong against an independent reference (golden bytes,
the irregularity known from a construction), when a report's own agreement
flag contradicts its integers, when a task's bytes change between runs or
under tracing, or when the working precision leaks out of a task.
Windowed integers that disagree with the certified ones in the same report
are counted as failed, as measured (see ROADMAP item 4).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import refclock  # noqa: E402
import workloads  # noqa: E402

MAX_WINDOW = 32  # cli.main's --max-window default
SETUP_REPEATS = 7


@dataclass
class Outcome:
    seconds: float
    failure: Optional[str]  # why the task counts as failed, or None


class Runner:
    """Runs tasks in process and checks each output."""

    def __init__(self):
        from higherlocal import cli, errors, series

        # names are looked up on the modules at call time, as cli.main does,
        # so that the wrappers of a traced run are seen
        self.cli, self.errors, self.series = cli, errors, series
        self.seen: Dict[str, str] = {}
        self.wrong: List[str] = []

    def execute(self, text: str) -> Tuple[str, str]:
        """(status, report text), with cli.main's precision handling and exit paths.

        The status is ok, unstabilized (exit 2), invalid (exit 3), error
        (exit 1) or crash (a traceback).
        """
        cli, errors, series = self.cli, self.errors, self.series
        old_prec = None
        try:
            spec = cli.parse_specfile(text)
            old_prec = series.set_working_precision(spec.precision)
            report = cli.run(spec.command, spec, max_window=MAX_WINDOW)
            return "ok", cli.format_report(report, "kv")
        except errors.Unstabilized as exc:
            partial = exc.report if isinstance(exc.report, list) else []
            return "unstabilized", cli.format_report(partial, "kv") if partial else ""
        except (errors.SpecFileError, errors.NotFlat, errors.NotClosed, errors.NotIndependent) as exc:
            return "invalid", f"error: {type(exc).__name__}: {exc}\n"
        except errors.HigherLocalError as exc:
            return "error", f"error: {type(exc).__name__}: {exc}\n"
        except Exception as exc:  # the CLI would end in a traceback: count it, keep going
            return "crash", f"crash: {type(exc).__name__}: {exc}\n"
        finally:
            if old_prec is not None:
                series.set_working_precision(old_prec)

    def run(self, task: workloads.Task) -> Outcome:
        prec_before = self.series.working_precision()
        t0 = time.perf_counter()
        status, output = self.execute(task.text)
        seconds = time.perf_counter() - t0
        prec_after = self.series.working_precision()
        if prec_after != prec_before:
            self.series.set_working_precision(prec_before)
            self.wrong.append(f"{task.name}: working precision leaked {prec_before} -> {prec_after}")
        failure, wrong = check(task, status, output)
        previous = self.seen.setdefault(task.name, output)
        if previous != output:
            wrong = wrong or "output changed between runs of the same task"
        if wrong:
            self.wrong.append(f"{task.name}: {wrong}")
        return Outcome(seconds, failure or wrong)


def check(task: workloads.Task, status: str, output: str) -> Tuple[Optional[str], Optional[str]]:
    """(failure, wrong) for one output; see the module docstring."""
    if task.kind == "golden":
        if output != task.expected:
            return "differs from the golden .out", "differs from the golden .out"
        return None, None
    if status != "ok":
        return f"status {status}", None
    report = workloads.parse_report(output)
    if task.kind == "window":
        if not workloads.window_self_consistent(report):
            return "agreement flag contradicts the integers", "agreement flag contradicts the integers"
        return workloads.window_failure(report), None
    got = report.get("irregularity")
    if got != str(task.irregularity):
        why = f"irregularity {got} != {task.irregularity} from the construction"
        return why, why
    return None, None


# -- identity and set-up ----------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over src/higherlocal, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "higherlocal").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def identity(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "inputs": workloads.PROPERTIES[workload],
    }


def measure_setup(workload: str, seed: int, cycles: int) -> float:
    """Import higherlocal in a fresh interpreter, then generate the inputs.

    No timeout: with one, ``subprocess`` polls the child every 50 ms and the
    time comes out in 50 ms steps.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import higherlocal"], env=env, cwd=ROOT, check=True)
    workloads.make_tasks(workload, seed, ROOT, cycles)
    return time.perf_counter() - t0


# -- runs -------------------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float, lines: List[str]):
    """Task timings are adjusted for the machine's speed (see refclock.py)."""
    cycles = workloads.cycles_for(workload, seconds)
    setup = statistics.median(measure_setup(workload, seed, cycles) for _ in range(SETUP_REPEATS))
    tasks = workloads.make_tasks(workload, seed, ROOT, cycles)
    runner = Runner()
    outcomes: List[Outcome] = []

    def job(task):
        outcomes.append(runner.run(task))
        return outcomes[-1].seconds

    raw, times, in_slices = refclock.measure(lambda task=task: job(task) for task in tasks)
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.failure)
    metrics = {
        "tasks_per_s": (attempted / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    extra = {
        "wall_tasks_per_s": (attempted / sum(raw), "1/s"),
        "wall_latency_p50_ms": (statistics.median(raw) * 1e3, "ms"),
        "failed_ratio": (failed / attempted, "ratio"),
        "tasks_attempted": (attempted, "count"),
    }
    if attempted >= 100:
        p90 = statistics.quantiles(times, n=10)[8]
        beyond = sum(1 for x in times if x > p90)
        extra["latency_p90_ms"] = (p90 * 1e3, "ms")
        lines.append(f"note latency_p90_ms rests on {beyond} of {attempted} tasks beyond it")
    else:
        lines.append(
            f"note latency_p90_ms not reported: {attempted} tasks leave fewer than ten beyond p90"
        )
    lines.append(
        f"note {sum(raw):.3f} s wall in {attempted} tasks, {in_slices:.3f} s in reference slices"
    )
    return runner, outcomes, metrics, extra


def traced(workload: str, seed: int, seconds: float, lines: List[str]):
    from tracing import Tracer

    tasks = workloads.make_tasks(workload, seed, ROOT, 1)
    rounds = max(1, workloads.cycles_for(workload, seconds) // 2)
    runner = Runner()
    tracer = Tracer()
    outcomes: List[Outcome] = []
    plain_wall = traced_wall = 0.0
    traced_tasks = 0
    for r in range(rounds):
        t0 = time.perf_counter()
        plain = [runner.run(task) for task in tasks]
        plain_wall += time.perf_counter() - t0
        tracer.install()
        try:
            t0 = time.perf_counter()
            with_trace = []
            for task in tasks:
                tracer.task_id = f"{task.name}@{r}"
                with_trace.append(runner.run(task))
            traced_wall += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        traced_tasks += len(tasks)
        outcomes += plain + with_trace
    overhead = traced_wall / plain_wall
    metrics = tracer.per_layer(traced_tasks, overhead)
    spans = BENCH_DIR / "out" / f"spans-{workload}-{seed}.jsonl"
    tracer.write_spans(spans, identity(workload, seed, seconds, 1))
    lines.append(f"note {traced_tasks} tasks traced; spans in {spans.relative_to(ROOT)}")
    ranked = sorted(
        tracer.layers.items(), key=lambda kv: kv[1].self_s, reverse=True
    )
    for name, st in ranked[:5]:
        lines.append(f"note self time {name} {st.self_s:.3f} s in {st.calls} calls")
    return runner, outcomes, metrics, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "higherlocal" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no higherlocal checkout around {BENCH_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    lines: List[str] = []
    ident = identity(args.workload, args.seed, args.seconds, args.trace)
    print("identity " + json.dumps(ident, sort_keys=True), flush=True)
    if args.trace:
        runner, outcomes, metrics, extra = traced(args.workload, args.seed, args.seconds, lines)
    else:
        runner, outcomes, metrics, extra = end_to_end(args.workload, args.seed, args.seconds, lines)
    failures = Counter(o.failure for o in outcomes if o.failure)
    for line in lines:
        print(line)
    for why, n in failures.most_common(10):
        print(f"failed {n}x: {why}")
    for why in runner.wrong[:10]:
        print(f"wrong: {why}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": not runner.wrong,
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
