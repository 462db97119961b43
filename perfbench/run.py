"""Benchmark of the nsboxes command line, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nsboxes is imported from ./src.
One process, one thread.  The run sets up SETUP_REPEATS times (a fresh
import of nsboxes, the seeded inputs, the program's once-per-process
caches), then runs whole rounds of the workload's operations through
nsboxes.cli.main(argv) with stdout captured until S seconds have passed,
then checks every output against perfbench/naive.py.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end to end with --trace 0, per layer with --trace 1).  Times are
reference seconds (see hostclock.py).  The line before it, and
.perfbench/results/, hold the run record: wall and CPU time, host steal
ticks and the host's speed beside the metrics.  A traced run writes its
spans to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 9
MODULES = ("cli", "boxes", "wiring", "bell", "membership", "lp")


def fresh_import():
    """Import nsboxes anew, so that each set-up pays what a CLI call pays."""
    for name in [m for m in sys.modules if m == "nsboxes" or m.startswith("nsboxes.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"nsboxes.{m}") for m in MODULES}


def set_up(workload, tmp, seed, ref, repo, tracer=None):
    mods = fresh_import()
    nsboxes = sys.modules["nsboxes"]
    if not Path(nsboxes.__file__).resolve().is_relative_to(repo / "src"):
        raise ImportError(f"nsboxes imported from {nsboxes.__file__}, not from {repo / 'src'}")
    prepare, caches = workloads.WORKLOADS[workload]
    ops = prepare(tmp, seed, ref, repo)
    if tracer is not None:
        tracer.install(mods)
    # Through the module attributes, so that a traced set-up sees the calls.
    if "wirings" in caches:
        for bp in mods["wiring"].BIPARTITIONS:
            mods["wiring"].enumerate_wirings(bp)
    if "actions" in caches:
        mods["bell"].chsh_max(mods["boxes"].builtin("uniform2"))
    return mods, ops


def run_op(cli, op, tracer):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.open("cli")
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # a crash is a failed operation, not a dead run
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.close()
    return rc, out.getvalue(), err.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description="nsboxes benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    repo = Path.cwd().resolve()
    if not (repo / "src" / "nsboxes" / "cli.py").is_file():
        print(f"error: {repo} holds no nsboxes source (src/nsboxes)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(repo / "src"))
    ref = json.loads((HERE / "reference.json").read_text())
    out_dir = repo / ".perfbench"
    tmp = out_dir / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = None

    clock = hostclock.HostClock()
    clock.start()
    try:
        setup_s = []
        for i in range(SETUP_REPEATS):
            gc.collect()
            if args.trace and i == SETUP_REPEATS - 1:
                tracer = Tracer(clock)
            t0 = clock.now()
            mods, ops = set_up(args.workload, tmp, args.seed, ref, repo, tracer)
            setup_s.append(clock.now() - t0)
        if tracer is not None:
            tracer.phase = "ops"
        gc.collect()

        os.chdir(tmp)  # default-named certificates land in the scratch directory
        records = []
        cpu0, steal0, wall0 = time.process_time(), hostclock.steal_ticks(), time.perf_counter()
        ref0 = clock.now()
        rounds = 0
        while True:
            for op in ops:
                w0, t0 = time.perf_counter(), clock.now()
                rc, stdout, stderr = run_op(mods["cli"], op, tracer)
                t1, w1 = clock.now(), time.perf_counter()
                if rc != 0:
                    rc = f"{rc} {stderr.strip()}"  # kept for the failure report
                side = Path(op.side_file).read_text() if op.side_file and rc == 0 else None
                records.append((op, rc, stdout, side, t1 - t0, w1 - w0))
            rounds += 1
            if time.perf_counter() - wall0 >= args.seconds:
                break
        loop_ref = clock.now() - ref0
        loop_wall = time.perf_counter() - wall0
        loop_cpu = time.process_time() - cpu0
        steal1 = hostclock.steal_ticks()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        clock.stop()
        os.chdir(repo)

    failed = sum(1 for r in records if r[1] != 0)
    errors = {}
    for op, rc, stdout, side, _, _ in records:
        key = (op.argv, stdout, side)
        if rc == 0 and key not in errors:
            try:
                errors[key] = op.check(stdout, side)
            except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:  # malformed output
                errors[key] = f"cannot read the output: {exc!r}"
    wrong = [f"{' '.join(k[0])}: {e}" for k, e in errors.items() if e]
    for line in wrong[:5]:
        print(f"wrong output: {line}", file=sys.stderr)
    for op, rc, _, _, _, _ in records:
        if rc != 0:
            print(f"failed: {' '.join(op.argv)}: {rc}", file=sys.stderr)
            break

    durations = [r[4] for r in records]
    by_argv = {}
    for r in records:
        by_argv.setdefault(r[0].argv, []).append(r[4])
    op_p50 = statistics.median(durations)
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "op_p50_s": {"value": op_p50, "unit": "s"},
            "ops_per_s": {"value": len(records) / loop_ref, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = tracer.metrics(len(records))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": rounds, "ops": len(records), "setup_s": setup_s, "op_p50_s": op_p50,
        "op_p50_wall_s": statistics.median(r[5] for r in records),
        "op_p50_s_by_command": {" ".join(argv): statistics.median(ts) for argv, ts in by_argv.items()},
        "loop_s": loop_ref, "loop_wall_s": loop_wall, "loop_cpu_s": loop_cpu,
        "steal_ticks": None if steal1 is None or steal0 is None else steal1 - steal0,
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"), "host_speed": clock.speed_summary(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
    }
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(dict(record, metrics=metrics), indent=1) + "\n")
    if tracer is not None:
        traces = out_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.json")
    shutil.rmtree(tmp, ignore_errors=True)
    print("run-record: " + json.dumps(record))
    print(json.dumps({"correct": not wrong, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
