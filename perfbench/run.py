"""The ograss benchmark: time to an exact answer, one real CLI process per run.

    python3 perfbench/run.py --workload distance-q3 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run it from anywhere; it uses the ``src`` tree next to this directory.
With ``--trace 0`` it runs the workload's ``ograss`` command in a fresh
process, one at a time (a single-threaded closed loop, default --threads
and --budget), for about ``--seconds`` seconds and at least once, checks
every output, and reports medians of the end-to-end metrics.  Times are
given at a fixed reference speed of the machine, measured while the
command runs (see spawn); the times as measured are printed too.  With
``--trace 1`` it makes one traced run instead (see layers.py) and reports
the per-layer metrics.  ``--workload all`` does both for every workload
and adds the tracing overhead.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 15
#: a run ends within this many seconds, whatever --seconds says
RUN_LIMIT_S = 170.0
#: a paced child runs this long between two speed probes
SLICE_S = 0.25
#: probe() on an unloaded machine of the kind the benchmark was made on
PROBE_NOMINAL_S = 0.013
#: a slice's speed is the median of the probes up to this many slices before and after it
PROBE_WINDOW = 4


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


_A = np.arange(1 << 16, dtype=np.int8) % 3
_B = _A[::-1].copy()
_C = np.empty_like(_A)


def probe() -> float:
    """Seconds that a fixed piece of reference work takes right now.

    A pure-Python loop and a few small numpy passes, like the mix of the
    commands; about PROBE_NOMINAL_S on an unloaded machine.
    """
    t = time.perf_counter()
    s = 0
    for j in range(120_000):
        s += j & 7
    for _ in range(40):
        np.add(_A, _B, out=_C)
        np.remainder(_C, 3, out=_C)
        s += int(np.count_nonzero(_C))
    return time.perf_counter() - t


@dataclass
class Run:
    status: int
    #: seconds from spawn to exit, pauses left out: what the user waits for
    wall_s: float
    #: the same, at the reference speed (see spawn)
    ref_s: float
    #: peak RSS of this one child
    rss_mb: float
    #: median probe time over the nominal one: above 1 when the machine ran slow
    slowdown: float


def kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # it ended on its own just before
        pass


def spawn(argv: list[str], stdout: Path, timeout: float, paced: bool = True) -> Run:
    """Run argv to its end and time it.

    The speed of this shared machine drifts by tens of percent, over
    seconds and over minutes, so a paced run also measures that speed
    while the command runs: every SLICE_S the child is stopped, probe()
    runs on the same CPU, and the child continues.  Each slice of the
    child's own time is then scaled by the speed around it, which gives
    the time the command would have taken at the reference speed.  The
    pauses are left out of both times.  A traced run is not paced, since
    its spans are timed inside the child.

    wait4 reads the rusage of this one child, so an earlier, larger child
    cannot raise the reading.  A child still running at the timeout is
    killed and reported with a negative status.
    """
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
    probes = [probe()] if paced else []
    slices = []
    done = None
    t0 = time.perf_counter()
    deadline = t0 + timeout
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, child_env(), file_actions=actions)
    try:
        fd = os.pidfd_open(pid)
        try:
            resumed = t0
            while True:
                wait = deadline - time.perf_counter()
                exited = select.select([fd], [], [], max(min(wait, SLICE_S) if paced else wait, 0.0))[0]
                now = time.perf_counter()
                if exited or now >= deadline:
                    slices.append(now - resumed)
                    if not exited:
                        kill(pid)
                    break
                os.kill(pid, signal.SIGSTOP)
                slices.append(time.perf_counter() - resumed)
                _, status, usage = os.wait4(pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):  # it exited before the stop took hold
                    done = (status, usage)
                    break
                probes.append(probe())
                resumed = time.perf_counter()
                os.kill(pid, signal.SIGCONT)
        finally:
            os.close(fd)
    finally:
        if done is None:
            if sys.exc_info()[0] is not None:  # interrupted: leave no child behind
                kill(pid)
            _, status, usage = os.wait4(pid, 0)
            done = (status, usage)
    status, usage = done
    wall = sum(slices)
    if paced:
        probes.append(probe())
        # slice i ran between probes i and i+1; the median of the probes around it reads the
        # speed, and keeps one probe that a page fault or an interrupt slowed from counting
        ref = sum(t * PROBE_NOMINAL_S / statistics.median(probes[max(i - PROBE_WINDOW, 0):i + PROBE_WINDOW + 2])
                  for i, t in enumerate(slices))
        slowdown = statistics.median(probes) / PROBE_NOMINAL_S
    else:
        ref, slowdown = wall, float("nan")
    return Run(os.waitstatus_to_exitcode(status), wall, ref, usage.ru_maxrss / 1024.0, slowdown)


def machine(seed: int, workload: str, poly) -> dict:
    try:
        # the ceiling keeps git from searching above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"workload": workload, "seed": seed, "poly": poly, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__, "commit": commit}


def measure_setup(wl, seed: int, count: int) -> list[Run]:
    """Fresh interpreters that import ograss and build the field."""
    code = f"import ograss; ograss.field({wl.q}, {wl.poly(seed)!r})"
    runs = []
    for _ in range(count):
        run = spawn(["-c", code], OUT / "setup.txt", 60)
        if run.status != 0:
            raise RuntimeError(f"import ograss and field({wl.q}) exited with {run.status}")
        runs.append(run)
    return runs


def run_untraced(wl, seed: int, seconds: float, started: float) -> dict:
    # the first interpreter compiles and caches bytecode, which users do not pay each time;
    # the rest are split around the commands
    measure_setup(wl, seed, 1)
    setup = measure_setup(wl, seed, SETUP_RUNS // 2)
    out_file = OUT / f"{wl.name}-{seed}.out"
    stdout = OUT / f"{wl.name}-{seed}.stdout"
    reps = []
    window = time.perf_counter()
    while True:
        t = time.perf_counter()
        run = spawn(["-m", "ograss"] + wl.argv(seed, str(out_file)), stdout, RUN_LIMIT_S - (t - started))
        problems = wl.check(seed, run.status, stdout.read_text(), str(out_file))
        out_file.unlink(missing_ok=True)
        reps.append({"wall_s": run.wall_s, "wall_ref_s": run.ref_s, "peak_rss_mb": run.rss_mb,
                     "slowdown": run.slowdown, "problems": problems})
        # start another command only if it should end within --seconds
        now = time.perf_counter()
        if now - window + (now - t) > seconds or now - started + 2 * (now - t) > RUN_LIMIT_S:
            break
    setup += measure_setup(wl, seed, SETUP_RUNS - len(setup))
    failed = sum(1 for r in reps if r["problems"])
    metrics = {
        "wall_ref_s": (statistics.median(r["wall_ref_s"] for r in reps), "s"),
        "setup_s": (statistics.median(r.ref_s for r in setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    raw = {"wall_s": statistics.median(r["wall_s"] for r in reps),
           "setup_raw_s": statistics.median(r.wall_s for r in setup),
           "slowdown": statistics.median(r["slowdown"] for r in reps)}
    return {"reps": reps, "setup": [vars(r) for r in setup], "attempted": len(reps), "failed": failed,
            "metrics": metrics, "raw": raw}


def run_traced(wl, seed: int, started: float) -> dict:
    out = OUT / f"layers-{wl.name}-{seed}.json"
    out.unlink(missing_ok=True)
    run = spawn([str(HERE / "layers.py"), "--workload", wl.name, "--seed", str(seed), "--out", str(out)],
                OUT / "layers.stdout", RUN_LIMIT_S - (time.perf_counter() - started), paced=False)
    if run.status != 0 or not out.exists():
        return {"attempted": 1, "failed": 1, "metrics": {}, "problems": [f"traced run exited with {run.status}"],
                "total_s": run.wall_s}
    res = json.loads(out.read_text())
    res["metrics"] = {k: (m["value"], m["unit"]) for k, m in res["metrics"].items()}
    res.update(attempted=1, failed=1 if res["problems"] else 0, total_s=run.wall_s, peak_rss_mb=run.rss_mb)
    return res


def report(wl, seed: int, trace: int, res: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    info = machine(seed, wl.name, wl.poly(seed))
    print(f"# {wl.name}: ograss {wl.command} --q {wl.q}  seed={seed} poly={info['poly']}  "
          f"nproc={info['nproc']} python={info['python']} numpy={info['numpy']} commit={info['commit']}")
    if trace:
        print(f"  traced run: {res['total_s']:.3f} s end to end")
        for name, secs in sorted(res.get("self_s", {}).items(), key=lambda kv: -kv[1]):
            print(f"    self {name:<28} {secs:10.4f} s")
    else:
        walls = ", ".join(f"{r['wall_s']:.3f} ({r['wall_ref_s']:.3f})" for r in res["reps"])
        print(f"  {len(res['reps'])} command runs, wall s (at reference speed): {walls}; "
              f"{len(res['setup'])} set-up runs")
        raw = res["raw"]
        print(f"  {'wall_s':<30} {raw['wall_s']:>16.6g} s (as measured; machine ran "
              f"{raw['slowdown']:.3f}x the reference time)")
        print(f"  {'setup_raw_s':<30} {raw['setup_raw_s']:>16.6g} s (as measured)")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    print(f"  {'fail_frac':<30} {res['failed'] / res['attempted']:>16.6g} ({res['failed']} of {res['attempted']})")
    problems = res.get("problems") or [p for r in res.get("reps", []) for p in r["problems"]]
    for p in problems:
        print(f"  FAILED CHECK: {p}")
    record = {"context": info, "trace": trace, **{k: v for k, v in res.items() if k != "spans"}}
    (OUT / f"result-{wl.name}-{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    if "spans" in res:
        (OUT / f"spans-{wl.name}-{seed}.json").write_text(json.dumps(res["spans"], indent=1))
    return {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ograss" / "__init__.py").is_file():
        print(f"error: no ograss package at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # the probes and the commands (which inherit this) share one CPU, so a probe reads
    # the speed of the CPU the command runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        wl = WORKLOADS[args.workload]
        started = time.perf_counter()
        res = run_traced(wl, args.seed, started) if args.trace else run_untraced(wl, args.seed, args.seconds, started)
        print(json.dumps(report(wl, args.seed, args.trace, res)))
        return 0

    ok = True
    for wl in WORKLOADS.values():
        plain = run_untraced(wl, args.seed, args.seconds, time.perf_counter())
        traced = run_traced(wl, args.seed, time.perf_counter())
        ok &= report(wl, args.seed, 0, plain)["correct"] & report(wl, args.seed, 1, traced)["correct"]
        wall = plain["raw"]["wall_s"]
        print(f"  tracing overhead: traced run {traced['total_s']:.3f} s - wall_s {wall:.3f} s = "
              f"{traced['total_s'] - wall:+.3f} s (the traced run also makes probe calls the command does not)")
    print(json.dumps({"correct": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
