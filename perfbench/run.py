#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library, the fhp_serve daemon and the fhp_perfbench runner from
the enclosing source tree twice (tracing OFF for end-to-end numbers,
tracing ON for per-layer numbers) under $CARGO_TARGET_DIR, default
.bench_build. Each run works in its own directory under the build root,
removed on exit. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Exit code 0 when every output
checked out, 1 otherwise (including a failed build), 2 on usage errors.
See README.md next to this file for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ga100k-flat", "sc-serve-mix")
# Pool lanes every workload is pinned to (never more than the machine has).
LANES = 2
# A run must end within 180 s once built; the fhp_perfbench runs get this
# much of it between them.
RUN_BUDGET_S = 165


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_root():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if os.path.commonpath([target, ROOT]) != ROOT:
        target = os.path.join(ROOT, ".bench_build")
    return target


def child_env(root):
    env = dict(os.environ)
    # Compiler and library temporaries stay inside the checkout too.
    env["TMPDIR"] = os.path.join(root, "tmp")
    env.pop("FHP_THREADS", None)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build(root, tracing):
    """Configures (once) and builds one configuration; returns its binaries."""
    build_dir = os.path.join(root, "tracing-on" if tracing else "tracing-off")
    env = child_env(root)
    configured = os.path.join(build_dir, "perfbench-configured")
    if not os.path.exists(configured):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
             f"-DFHP_ENABLE_TRACING={'ON' if tracing else 'OFF'}"],
            check=True, stdout=sys.stderr, env=env)
        open(configured, "w").close()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "fhp_perfbench",
         "fhp_serve_tool", "-j", jobs],
        check=True, stdout=sys.stderr, env=env)
    return {
        "runner": os.path.join(build_dir, "fhp_perfbench"),
        "serve": os.path.join(build_dir, "fhp", "tools", "fhp_serve"),
    }


def run_perfbench(binaries, run_dir, env, args, deadline, mode, extra=()):
    """Runs fhp_perfbench in its own process group and returns its report.
    The run is stopped at `deadline`, a time.monotonic() value."""
    lanes = max(1, min(LANES, os.cpu_count() or 1))
    command = [binaries["runner"], "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", mode, "--lanes", str(lanes),
               "--serve-bin", binaries["serve"], *extra]
    if args.quick:
        command.append("--quick")
    proc = subprocess.Popen(command, cwd=run_dir, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = ""
        log(f"{mode} run exceeded the {RUN_BUDGET_S} s budget; stopping it")
    finally:
        stop_group(proc)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} run printed no report (exit {proc.returncode})")
    report = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        raise BenchError(f"{mode} run exited {proc.returncode}")
    return report


def stop_group(proc):
    """Kills whatever is left of the fhp_perfbench process group (the daemon it
    spawned included) and waits until all of it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def leading(walls, budget_s):
    """The first walls (at least one) that add up to at most budget_s: the
    instances the untraced companion run repeats to price the tracing."""
    total = 0.0
    for count, wall in enumerate(walls):
        total += wall
        if count > 0 and total > budget_s:
            return walls[:count]
    return walls


def measure(args, root):
    off = build(root, tracing=False)
    on = build(root, tracing=True)
    env = child_env(root)
    runs = os.path.join(root, "runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=runs)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if not args.trace:
            report = run_perfbench(off, run_dir, env, args, deadline, "measure")
            report.pop("auto_walls", None)
            return report
        traced = run_perfbench(on, run_dir, env, args, deadline, "trace")
        walls = leading(traced.pop("auto_walls", []), args.seconds / 3)
        untraced = run_perfbench(off, run_dir, env, args, deadline, "companion",
                              ("--count", str(len(walls))))
        base = sum(untraced.get("auto_walls", []))
        overhead = sum(walls) / base - 1 if base > 0 else 0.0
        traced["metrics"]["obs.trace_overhead_frac"] = {
            "value": overhead, "unit": "ratio"}
        traced["attempted"] += untraced["attempted"]
        traced["failed"] += untraced["failed"]
        traced["correct"] = traced["correct"] and untraced["correct"]
        return traced
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        report = measure(args, build_root())
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError) as error:
        log(f"error: {error}")
        return 1
    result = {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
