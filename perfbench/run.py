"""Benchmark of the tropical-ca command line, one workload per process.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

Generates the workload's configs from --seed, then runs its command list
through ``tropical_ca.cli.main(argv)`` in this process, back to back (a
closed loop with one client, no threads): one warm-up pass, then passes
until --seconds have passed.  A fixed reference loop runs between commands
to gauge the CPU speed of the moment.  Every output is checked.  A report
goes to stdout, followed by one JSON line with the metrics: the end-to-end
ones with --trace 0, the per-layer ones with --trace 1, where untraced and
traced passes alternate.  See README.md in this directory for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "reference_digests.json"

WORKLOADS = ("spectral", "orbit", "timed_run", "render")
DEFAULT_SEED = 1
SETUP_REPEATS = 11  # fresh processes timed for setup_s
MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two untraced/traced pairs, so counts can be compared

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mib": "MiB"}

# -- running and checking passes ---------------------------------------------------


def run_pass(cli, workload, configs, out_root: Path, tracer) -> tuple:
    """Run the command list once, with reference loops before each command
    and after the last, outside the commands' timing.  Returns (seconds,
    exit code, error, out dir) per command and the reference loop times.
    CLI chatter on stdout is swallowed so the result line stays last."""
    results, ref_times = [], []
    for idx, cmd in enumerate(workload.commands):
        ref_times += reference.time_loops()
        out = out_root / f"{idx}-{cmd.instance}-{cmd.command}"
        argv = [cmd.command, "--config", str(configs[cmd.instance]),
                "--out", str(out), *cmd.args]
        span = tracer.region(f"cmd.{cmd.command}") if tracer else contextlib.nullcontext()
        code, err = None, None
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a failure to count, not to stop on
                err = exc
                traceback.print_exc()
        results.append((time.perf_counter() - start, code, err, out))
    ref_times += reference.time_loops()
    return results, ref_times


def tree_digest(directory: Path) -> str:
    """sha256 over the sorted file names and contents of one output dir."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def check_command(cmd, instance, out: Path, code, err) -> tuple:
    """(problems, digest) for one command's outputs."""
    if err is not None:
        return [f"raised {err!r}"], None
    problems = [] if code == 0 else [f"exit code {code}"]
    files = {p.name for p in out.iterdir()} if out.is_dir() else set()
    want = cmd.expected_files(instance)
    if files != want:
        problems.append(f"files differ from the expected set: {sorted(files ^ want)}")
    if "verification.json" in files:
        report = json.loads((out / "verification.json").read_text())
        if report.get("all_passed") is not True:
            problems.append(f"verification failed: {report.get('checks')}")
    if cmd.eigenvalue is not None and "spectral.json" in files:
        summary = json.loads((out / "spectral.json").read_text())
        if summary["lambda"] != cmd.eigenvalue:
            problems.append(f"lambda {summary['lambda']} != set-up {cmd.eigenvalue}")
        instance.facts["sigma"] = summary["sigma"]
    if cmd.period is not None and "sync_orbit.json" in files:
        period = json.loads((out / "sync_orbit.json").read_text())["period"]
        if period != cmd.period:
            problems.append(f"sync period {period} != oracle {cmd.period}")
    return problems, tree_digest(out) if out.is_dir() else None


def tail_note(values) -> str:
    """Sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it"
    p = int(100 * (n - 10) / n)
    return f"n={n}; p{p} = {statistics.quantiles(values, n=100)[p - 1]:.4f} s"


# -- the run -------------------------------------------------------------------------


def measure_setup(args) -> list:
    """(set-up seconds, mean reference loop seconds) of SETUP_REPEATS fresh
    processes, one after another."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        timed = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((timed["setup_s"], timed["ref_s"]))
    return times


def check_pass(runs, label, workload, results, expected) -> None:
    """Check every command of one pass and count it in ``runs``."""
    digests = []
    for idx, (cmd, (_, code, err, out)) in enumerate(zip(workload.commands, results)):
        problems, digest = check_command(cmd, workload.instances[cmd.instance], out, code, err)
        if runs["digests"] is not None and digest != runs["digests"][idx]:
            problems.append("output digest differs from the first pass")
        if expected is not None and digest != expected[idx]:
            problems.append("output digest differs from the recorded reference")
        if problems:
            runs["failures"].append(f"pass {label} {cmd.instance} {cmd.command}: {problems}")
        digests.append(digest)
    runs["attempted"] += len(results)
    runs["digests"] = runs["digests"] or digests


def run_passes(args, cli, workload, configs, tmp: Path, recorder, expected) -> dict:
    """One untimed warm-up pass, then timed passes until --seconds are used
    up, each checked.  A pass starts only when it is expected to end in time
    (it takes as long as the last one; a traced run starts untraced/traced
    pairs).  A pass's wall time is the sum of its commands' times; its
    reference time is the mean of the reference loops run around them."""
    min_passes = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    names = list(dict.fromkeys(cmd.command for cmd in workload.commands))
    runs = {"walls": {False: [], True: []}, "refs": {False: [], True: []},
            "cmd_times": {c: [] for c in names},
            "failures": [], "attempted": 0, "digests": None, "passes": 0}
    results, _ = run_pass(cli, workload, configs, tmp / "warmup", None)
    check_pass(runs, "warm-up", workload, results, expected)
    shutil.rmtree(tmp / "warmup", ignore_errors=True)
    start = time.perf_counter()
    k, last = 0, 0.0
    while (k < min_passes or (args.trace and k % 2)
           or time.perf_counter() - start + last * (1 + args.trace) <= args.seconds):
        t_pass = time.perf_counter()
        traced = bool(args.trace) and k % 2 == 1
        out_root = tmp / f"pass{k}"
        with recorder.installed(k) if traced else contextlib.nullcontext():
            results, ref_times = run_pass(
                cli, workload, configs, out_root, recorder if traced else None
            )
        runs["walls"][traced].append(sum(secs for secs, *_ in results))
        runs["refs"][traced].append(statistics.fmean(ref_times))
        if not traced:
            per_cmd = dict.fromkeys(names, 0.0)
            for cmd, (secs, *_) in zip(workload.commands, results):
                per_cmd[cmd.command] += secs
            for c in names:
                runs["cmd_times"][c].append(per_cmd[c])
        check_pass(runs, k, workload, results, expected)
        shutil.rmtree(out_root, ignore_errors=True)
        last = time.perf_counter() - t_pass
        k += 1
    runs["passes"] = k
    return runs


def run(args, tmp: Path) -> int:
    if not (SRC / "tropical_ca").is_dir():
        print(f"perfbench: no tropical_ca package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # imports tropical_ca: part of set-up
    from tropical_ca import cli

    workload = workloads.build(args.workload, args.seed, "tiny" if args.tiny else "full")
    configs = workloads.write_configs(workload, tmp / "configs")
    own_setup = time.perf_counter() - t0
    if args.setup_only:
        ref_s = statistics.fmean(reference.time_loops() + reference.time_loops())
        print(json.dumps({"setup_s": own_setup, "ref_s": ref_s}))
        return 0

    setup_times = [] if args.trace else measure_setup(args)
    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Tracer()
    # Digests recorded from the seed commit's program at one seed; the
    # outputs must stay byte-identical to them.
    recorded = json.loads(DIGESTS.read_text())
    expected = None
    if args.seed == recorded["seed"] and not args.tiny:
        expected = recorded[args.workload]

    runs = run_passes(args, cli, workload, configs, tmp, recorder, expected)
    failures, attempted = runs["failures"], runs["attempted"]
    correct = not failures
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'tiny' if args.tiny else 'full'} size  {runs['passes']} passes")
    for inst in workload.instances.values():
        facts = "  ".join(f"{key}={val}" for key, val in inst.facts.items())
        print(f"  instance {inst.name}: {facts}")
    for line in failures:
        print(f"  FAILED {line}")

    walls = runs["walls"]
    if args.trace:
        metrics, units, repeat_ok = traced_metrics(args, recorder, walls, runs["refs"])
        correct = correct and repeat_ok
    else:
        ratios = [w / r for w, r in zip(walls[False], runs["refs"][False])]
        metrics = {
            "setup_s": reference.NOMINAL_LOOP_S
            * statistics.median(s / r for s, r in setup_times),
            "wall_ref": statistics.median(ratios),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        rows = [("setup_s", f"{metrics['setup_s']:.4f} s",
                 f"median of {SETUP_REPEATS} fresh processes of set-up time / mean "
                 f"reference loop time after it, times {reference.NOMINAL_LOOP_S} s"),
                ("setup_wall_s", f"{statistics.median(s for s, _ in setup_times):.4f} s",
                 "median set-up wall time of the same processes"),
                ("wall_ref", f"{metrics['wall_ref']:.2f} ref",
                 "median of pass wall time / mean reference loop time around it"),
                ("wall_s", f"{statistics.median(walls[False]):.4f} s", tail_note(walls[False])),
                ("ref_loop_ms", f"{1000 * statistics.median(runs['refs'][False]):.3f} ms",
                 "median over passes of the mean reference loop time")]
        rows += [(f"cmd.{c}_s", f"{statistics.median(times):.4f} s", "median per pass")
                 for c, times in runs["cmd_times"].items()]
        rows += [("peak_rss_mib", f"{metrics['peak_rss_mib']:.1f} MiB", "ru_maxrss"),
                 ("failed_ratio", f"{len(failures) / attempted:.4f} 1",
                  f"{len(failures)} of {attempted} commands")]
        for name, value, note in rows:
            print(f"  {name:16s}{value:14s}({note})")
    for cmd, digest in zip(workload.commands, runs["digests"]):
        print(f"  digest {cmd.instance} {cmd.command} {digest}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def traced_metrics(args, recorder, walls, refs) -> tuple:
    """Per-layer medians over the traced passes (pass ids are odd), and
    whether every count repeated exactly; the spans are written out here,
    once."""
    import tracer

    units = tracer.per_layer_units()
    per_pass, counts = [], []
    for k, wall in zip(range(1, 2 * len(walls[True]), 2), walls[True]):
        agg = tracer.aggregate(recorder.spans, k)
        counts.append(tracer.counts_of(agg))
        per_pass.append(tracer.pass_metrics(args.workload, agg, wall))
    repeat_ok = all(c == counts[0] for c in counts)
    if not repeat_ok:
        print("  FAILED counts differ between traced passes")
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(w / r for w, r in zip(walls[True], refs[True]))
        / statistics.median(w / r for w, r in zip(walls[False], refs[False])) - 1
    )
    for name, value in metrics.items():
        if value:
            print(f"  {name:40s} {value:.6g} {units[name]}")
    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "spans": recorder.spans}))
    print(f"  {len(recorder.spans)} spans written to {path}")
    return metrics, units, repeat_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the measured ones")
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up and reference loops in this process and "
                             "print them (used for setup_s)")
    args = parser.parse_args(argv)
    tmp = WORK / f"run-{os.getpid()}"
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
