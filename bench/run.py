"""Benchmark for menet: CLI and library pass times, traced per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload dense-extract --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload dense-extract --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --workload chain-inference --steady 5

A run sets up SETUP_REPS times (fresh-interpreter import of menet, inputs
made from the seed and written to disk, one untimed warm-up library pass),
then repeats whole rounds until --seconds have passed. A round is one CLI
pass (each command in its own `python3` process, as the `menet` script
runs it) followed by the workload's number of library passes in this
process. Pass times are the medians over the run. Every answer is checked;
the last line of stdout is one JSON object.

With --trace 1 a round runs the CLI commands in-process through
menet.cli.main(argv), an untraced library pass and a traced one; the CLI
commands and the traced pass run with menet's public functions wrapped.
Per-layer metrics come from the spans, which are written to
bench/_out/trace-<workload>-seed<n>.json.

--steady N runs N plain runs with seeds --seed .. --seed+N-1 and prints
each end-to-end metric's median and quartile spread beside its bound.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import tracing
from checks import CliOutput, Failed, Mismatch
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
SETUP_REPS = 3

# The `menet` entry point, plus a report of the process's own peak resident
# set (VmHWM) at exit. rusage would also count the pages of this large
# process that the child borrows between fork and exec.
CLI_CODE = """
import atexit, os, sys

def _report_peak():
    with open("/proc/self/status") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(os.environ["MENET_BENCH_PEAK"], "w") as fh:
        fh.write(peak)

atexit.register(_report_peak)
from menet.cli import main
sys.exit(main())
"""
IMPORT_CODE = "import menet.cli"

END_TO_END = (("setup_s", "s"), ("cli_pass_s", "s"), ("lib_pass_s", "s"), ("cli_peak_rss_mb", "MB"))


class Tally:
    """Attempted operations, failures by (kind, reason), and mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed: Counter = Counter()
        self.mismatches: list[str] = []

    def judge(self, kind: str, check) -> None:
        self.attempted += 1
        try:
            check()
        except Failed as exc:
            self.failed[(kind, str(exc))] += 1
        except Mismatch as exc:
            self.mismatches.append(f"{kind}: {exc}")
        except (ValueError, KeyError) as exc:  # output that does not parse
            self.failed[(kind, f"unreadable output: {type(exc).__name__}: {exc}")] += 1

    def fail(self, kind: str, reason: str) -> None:
        self.attempted += 1
        self.failed[(kind, reason)] += 1


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class SubprocessCli:
    """Runs `menet ARGV` in a fresh interpreter; wall time and peak RSS in kB."""

    def __init__(self, work: Path):
        self.peak = work / "cli.peak"
        self.env = dict(_cli_env(), MENET_BENCH_PEAK=str(self.peak))
        self.stdout = work / "cli.stdout"
        self.stderr = work / "cli.stderr"

    def __call__(self, argv: list[str]):
        with open(self.stdout, "wb") as fo, open(self.stderr, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", CLI_CODE, *argv], stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        out = self.stdout.read_text(encoding="utf-8", errors="replace")
        err = self.stderr.read_text(encoding="utf-8", errors="replace")
        return proc.returncode, out, err, seconds, int(self.peak.read_text())


def inprocess_cli(argv: list[str]):
    """Runs menet.cli.main(argv) here, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["menet.cli"].main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start, 0


def run_cli_op(op, cli, tally: Tally):
    code, out, err, seconds, rss_kb = cli(op.argv)

    def check():
        lines = [line for line in err.strip().splitlines() if line.strip()]
        if "Traceback (most recent call last)" in err:
            raise Failed(f"traceback ({len(lines)} lines): {lines[-1]}")
        if code != 0:
            raise Failed(f"exit {code}: {lines[-1] if lines else ''}")
        op.check(CliOutput.parse(out))

    tally.judge(op.kind, check)
    return seconds, rss_kb


def run_lib_op(op, tally: Tally) -> float:
    start = time.perf_counter()
    try:
        value = op.call()
    except Exception as exc:
        seconds = time.perf_counter() - start
        tally.fail(op.kind, f"{type(exc).__name__}: {exc}")
        return seconds
    seconds = time.perf_counter() - start
    tally.judge(op.kind, lambda: op.check(value))
    return seconds


def cli_pass(ops, cli, tally: Tally) -> tuple[float, int]:
    total, peak = 0.0, 0
    for op in ops:
        seconds, rss_kb = run_cli_op(op, cli, tally)
        if op.timed:
            total += seconds
            peak = max(peak, rss_kb)
    return total, peak


def lib_pass(ops, tally: Tally) -> float:
    total = 0.0
    for op in ops:
        seconds = run_lib_op(op, tally)
        if op.timed:
            total += seconds
    return total


class Rounds:
    """Whole rounds, the first always, then while one more as long as the
    longest so far still ends before the deadline."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds
        self.last: float | None = None
        self.longest = 0.0

    def another(self) -> bool:
        now = time.perf_counter()
        if self.last is None:
            self.last = now
            return True
        self.longest = max(self.longest, now - self.last)
        self.last = now
        return now + self.longest <= self.deadline


def import_probe() -> float:
    """Wall time of a fresh interpreter that only imports menet.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CODE], env=_cli_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def setup(workload_cls, seed: int, work: Path, mn, tally: Tally):
    """Import, inputs from the seed written to disk, one warm-up library pass."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    start = time.perf_counter()
    import_probe()
    wl = workload_cls(seed, work, mn)
    warm = Tally()
    lib_pass(wl.lib_ops(), warm)
    seconds = time.perf_counter() - start
    tally.mismatches += [f"warm-up {m}" for m in warm.mismatches]
    return wl, seconds


def import_menet():
    if not (SRC / "menet" / "__init__.py").is_file():
        raise SystemExit(f"error: no menet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import menet
    import menet.cli  # noqa: F401  (in-process CLI runs and tracing need it)

    if Path(menet.__file__).resolve().parent != (SRC / "menet").resolve():
        raise SystemExit(f"error: imported menet from {menet.__file__}, not from {SRC}")
    return menet


def plain_run(workload_cls, seed: int, seconds: float, run_dir: Path, tally: Tally) -> dict:
    mn = import_menet()
    setups = []
    for rep in range(SETUP_REPS):
        wl, took = setup(workload_cls, seed, run_dir / f"setup{rep}", mn, tally)
        setups.append(took)
    cli = SubprocessCli(run_dir)
    cli_ops, lib_ops = wl.cli_ops(), wl.lib_ops()
    cli_times, lib_times, peaks = [], [], []
    rounds = Rounds(seconds)
    while rounds.another():
        took, peak_kb = cli_pass(cli_ops, cli, tally)
        cli_times.append(took)
        peaks.append(peak_kb)
        for _ in range(wl.lib_passes):
            lib_times.append(lib_pass(lib_ops, tally))
    print(
        f"{workload_cls.name}: {len(cli_times)} rounds, {len(cli_ops)} commands and "
        f"{len(lib_ops)} library calls per pass, {wl.lib_passes} library passes per round"
    )
    return {
        "setup_s": statistics.median(setups),
        "cli_pass_s": statistics.median(cli_times),
        "lib_pass_s": statistics.median(lib_times),
        "cli_peak_rss_mb": statistics.median(peaks) / 1024.0,
    }


def traced_run(workload_cls, seed: int, seconds: float, run_dir: Path, tally: Tally) -> dict:
    mn = import_menet()
    wl, _ = setup(workload_cls, seed, run_dir / "setup0", mn, tally)
    cli_ops, lib_ops = wl.cli_ops(), wl.lib_ops()
    tracer = tracing.Tracer()
    passes, untraced, traced, imports, spans = [], [], [], [], []
    rounds = Rounds(seconds)
    while rounds.another():
        # the two library passes run back to back, so both follow warm code
        with tracer.installed():
            cli_pass(cli_ops, inprocess_cli, tally)
        untraced.append(lib_pass(lib_ops, tally))
        with tracer.installed():
            traced.append(lib_pass(lib_ops, tally))
        spans = tracer.take()
        passes.append(tracing.layer_metrics(spans))
        imports.append(import_probe())
    untraced_s = statistics.median(untraced)
    overhead = statistics.median(traced) - untraced_s
    metrics = tracing.summarize(passes, imports, overhead)
    table = tracing.self_times(spans)

    print(f"{workload_cls.name}: {len(passes)} traced rounds")
    print(f"tracing.overhead_s {overhead:.6f} next to untraced lib_pass_s {untraced_s:.6f}")
    print("self times of the last traced pass (calls, busy s, self s):")
    for name, (calls, busy, own) in sorted(table.items(), key=lambda kv: -kv[1][2])[:20]:
        print(f"  {name:45s} {calls:8d} {busy:10.4f} {own:10.4f}")
    OUT.mkdir(exist_ok=True)
    dump = {
        "workload": workload_cls.name,
        "seed": seed,
        "metrics": metrics,
        "untraced_lib_pass_s": untraced_s,
        "self_times": {k: list(v) for k, v in table.items()},
        "span_fields": ["name", "start_ns", "end_ns", "parent", "attrs"],
        "spans_last_pass": spans,
    }
    (OUT / f"trace-{workload_cls.name}-seed{seed}.json").write_text(json.dumps(dump), encoding="utf-8")
    return metrics


def steady(args) -> int:
    """Median and quartile spread of each end-to-end metric over several seeds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values: dict[str, list[float]] = {}
    shares = []
    for seed in range(args.seed, args.seed + args.steady):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append((result["failed"], result["attempted"]))
        line = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {line}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':18s} {'median':>10s} {'spread':>8s} {'bound':>6s} {'bound/3':>8s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name, float("nan"))
        flag = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:18s} {med:10.4f} {spread:8.4f} {bound:6.3f} {bound / 3:8.4f} {flag}")
    print("failed shares:", sorted({f"{f}/{a}" for f, a in shares}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N", help="runs to summarize")
    args = parser.parse_args(argv)
    if args.steady:
        return steady(args)
    seconds = 35.0 if args.seconds is None else args.seconds

    workload_cls = WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            values = traced_run(workload_cls, args.seed, seconds, run_dir, tally)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        else:
            values = plain_run(workload_cls, args.seed, seconds, run_dir, tally)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(tally.failed.values())
    print(f"{args.workload}: attempted {tally.attempted}, failed {failed}")
    for (kind, reason), count in sorted(tally.failed.items()):
        print(f"  failed x{count}: {kind}: {reason}")
    for mismatch in tally.mismatches[:20]:
        print(f"  MISMATCH: {mismatch}")
    result = {
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
