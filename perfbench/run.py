#!/usr/bin/env python3
"""sftlab benchmark: end-to-end and per-layer timings of three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ablation --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-check

Workloads (see workloads.py for why each was chosen): ``ablation``,
``retrieval`` and ``graph``; ``all`` runs them one after another.  All
inputs are generated from ``--seed``.

Each workload runs in child processes of its own, one at a time, so its
set-up time and peak memory are its own.  With ``--trace 0`` a run sets
the workload up SETUPS times in fresh processes.  Set-up is the time from
process start to the first timed pass (interpreter start, imports, input
generation, file writes and a warm-up pass on tiny inputs); each process
then times the reference workload (_reference_s), and ``setup_s`` is the
median over the processes of set-up time times REF_NOMINAL_S over that
reference time: set-up seconds on a machine where the reference takes
REF_NOMINAL_S.  The middle one of those processes (the only one with
``--trace 1``) goes on to run timed passes for ``--seconds``:

* ``--trace 0``: untraced passes give ``wall_ref`` (mean pass time in
  units of a reference workload timed between the passes, see
  _reference_s), ``wall_s`` (median seconds of one pass, printed but not
  part of the result: it drifts too much between runs on a shared
  machine) and ``peak_rss_mb`` (the child's ru_maxrss).
* ``--trace 1``: untraced and traced passes alternate (layertrace.py
  wraps the package's public functions from outside); the per-layer
  metrics are medians over the traced passes and ``tracing.overhead_s``
  is the median of traced minus untraced time over adjacent pairs.

Every pass is checked (workloads.py); ``attempted`` and ``failed`` count
checked units.  A run is correct when no unit failed and every pass,
traced or not, produced byte-identical output (one sha256 digest).  The
last line of standard output is the JSON result; the lines before it are
a readable table, the environment stamp and the output digests.

BLAS runs single-threaded (BLAS_THREADS) so that one process is the
whole load and figures do not depend on how busy the other core is.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("ablation", "retrieval", "graph")
BLAS_THREADS = 1
SETUPS = 9
SETUP_REFS = 2  # reference runs timed right after each set-up
# _reference_s() on the machine the bounds were set on; setup_s is scaled to it
REF_NOMINAL_S = 0.075
MIN_ROUNDS = 3  # rounds of one untraced pass, plus one traced with --trace 1
CHILD_TIMEOUT_S = 170

E2E_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# readable table only: raw set-up and pass times, deterministic quality figures, units
DETAIL_UNITS = {"setup_raw_s": "s", "wall_s": "s", "map": "frac", "map_post": "frac",
                "map_kr": "frac", "ops": "count", "ops_failed": "count"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(".flops"):
        return "flop"
    return "count"


# ---------------------------------------------------------------- child side


def _env_stamp() -> dict:
    import numpy as np

    stamp = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "git_commit": "unknown",
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        stamp["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            models = [ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")]
        stamp["cpu"] = models[0] if models else "unknown"
    except OSError:
        pass
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        stamp["git_commit"] = head.stdout.strip() or "unknown"
    return stamp


def _reference_s() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work
    that does not touch sftlab, run between passes.

    Shared machines have slow spells, lasting seconds to minutes, that
    slow every pass: raw pass and set-up times of the same code differ by
    up to a third between runs, and one process can run about 1.5 times
    slower than the next throughout.  The spells slow the reference
    too, so mean pass time over mean reference time in the same run
    (``wall_ref``), and each process's set-up time over the reference
    timed right after it (``setup_s``), cancel most of the drift.  Its
    arrays are small so that it never raises the process's peak memory.
    """
    import numpy as np

    small = np.linspace(-1.0, 1.0, 64 * 32).reshape(64, 32)
    t0 = time.perf_counter()
    total = 0
    for i in range(450_000):
        total += i * i
    for _ in range(2_100):
        np.exp(small @ small.T).sum(axis=1)
    return time.perf_counter() - t0


def _timed_pass(workload, tracer=None):
    """(wall seconds, check outcome, per-layer snapshot or None) of one pass."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        output = workload.run()
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    snapshot = tracer.snapshot() if tracer is not None else None
    return wall, workload.check(output), snapshot


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import sftlab
    except ImportError as exc:
        print(f"error: cannot import sftlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(sftlab.__file__).resolve().parent != SRC / "sftlab":
        print(f"error: imported sftlab from {sftlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layertrace
    import workloads

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        cls = workloads.WORKLOADS[args.workload]
        workload = cls(args.seed, work, tiny=args.tiny)
        warm = cls(args.seed, work / "warmup", tiny=True)
        warm.check(warm.run())
        setup = {"setup_raw_s": time.monotonic() - args.spawn_time,
                 "setup_ref_s": statistics.mean(_reference_s() for _ in range(SETUP_REFS))}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        # with tracing, untraced and traced passes alternate so that both
        # see the same spells of a shared machine
        modes = (None, layertrace.Tracer()) if args.trace else (None,)
        rounds, refs = [], [_reference_s()]
        start = time.perf_counter()
        while True:
            rounds.append([_timed_pass(workload, tracer) for tracer in modes])
            refs.append(_reference_s())
            round_s = sum(wall for wall, _, _ in rounds[-1])
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + round_s > args.seconds:
                break
        walls = [r[0][0] for r in rounds]
        outcomes = [outcome for r in rounds for _, outcome, _ in r]
        result = {**setup, "wall_s": statistics.median(walls), "walls": walls,
                  "refs": refs,
                  "wall_ref": len(refs) * sum(walls) / (len(walls) * sum(refs))}
        if args.trace:
            t_walls = [r[1][0] for r in rounds]
            snaps = [r[1][2] for r in rounds]
            # times are medians over the traced passes; counts repeat exactly
            # (checked below), so the first pass's are the counts of every pass
            layers = {key: statistics.median(s[key] for s in snaps) if layer_unit(key) == "s"
                      else snaps[0][key] for key in snaps[0]}
            layers["tracing.overhead_s"] = statistics.median(
                traced - plain for plain, traced in zip(walls, t_walls))
            counts = [{k: v for k, v in s.items() if layer_unit(k) != "s"} for s in snaps]
            result.update(layers=layers, traced_walls=t_walls,
                          absent=modes[1].absent + sorted(modes[1].uncounted),
                          counts_repeat=all(c == counts[0] for c in counts))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        digests = sorted({o.digest for o in outcomes})
        result.update(
            ops=sum(o.ops for o in outcomes),
            failed=sum(o.failed for o in outcomes),
            digests=digests,
            quality=outcomes[0].quality,
            problems=[p for o in outcomes for p in o.problems][:10],
            env=_env_stamp(),
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --------------------------------------------------------------- parent side


def _spawn(workload: str, seed: int, seconds: int, trace: int, tiny: bool,
           setup_only: bool) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    spawn_time = time.monotonic()
    argv = [sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--spawn-time", repr(spawn_time)]
    argv += ["--tiny"] * tiny + ["--setup-only"] * setup_only
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: int, tiny: bool = False) -> dict:
    """One workload: one process of timed passes and, with --trace 0, the
    set-up-only processes that give setup_s with it.

    The set-up-only processes run half before and half after the timed
    one, so that a slow spell of a shared machine does not bias them all.
    """
    def setup_only() -> dict:
        return _spawn(workload, seed, seconds, trace, tiny, True)

    extra = 0 if trace else SETUPS - 1
    setups = [setup_only() for _ in range(extra // 2)]
    result = _spawn(workload, seed, seconds, trace, tiny, False)
    setups += [result] + [setup_only() for _ in range(extra - extra // 2)]
    result["setup_s"] = statistics.median(
        s["setup_raw_s"] * REF_NOMINAL_S / s["setup_ref_s"] for s in setups)
    result["setup_raw_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    result["setup_runs_s"] = [s["setup_raw_s"] for s in setups]
    result["setup_refs_s"] = [s["setup_ref_s"] for s in setups]
    if len(result["digests"]) != 1:
        result["problems"].append("passes produced different outputs")
    correct = result["failed"] == 0 and result["ops"] > 0 and len(result["digests"]) == 1
    if not trace:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    else:
        if not result["counts_repeat"]:
            result["problems"].append("exact per-layer counts differ between traced passes")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in result["layers"].items()}
    result["correct"] = correct
    result["metrics"] = metrics
    return result


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}")
    rows = dict(result["metrics"])
    detail = {"setup_raw_s": result["setup_raw_s"], "wall_s": result["wall_s"],
              **result["quality"], "ops": result["ops"], "ops_failed": result["failed"]}
    for name, value in detail.items():
        rows[name] = {"value": value, "unit": DETAIL_UNITS[name]}
    width = max(map(len, rows))
    for name, metric in rows.items():
        print(f"  {name:<{width}}  {metric['value']:>14.6g}  {metric['unit']}")
    if result.get("absent"):
        print(f"  absent lookup sites or uncounted spans: {', '.join(result['absent'])}")
    for label, times in (("setup runs", result["setup_runs_s"]),
                         ("references after set-up", result["setup_refs_s"]),
                         ("untraced passes", result["walls"]),
                         ("traced passes", result.get("traced_walls", ())),
                         ("reference runs", result["refs"])):
        if times:
            print(f"  {label} (s): {' '.join(f'{t:.4f}' for t in times)}")
    print(f"  output sha256: {' '.join(result['digests'])}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(f"  env: {json.dumps(result['env'], sort_keys=True)}")


def self_check() -> int:
    """Tiny-size run of every workload in both modes against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, seed=1, seconds=1, trace=trace, tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if got != wanted[trace]:
                failures.append(f"{where}: metrics or units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if not result["correct"]:
                failures.append(f"{where}: incorrect output: {result['problems']}")
            if trace and not result["counts_repeat"]:
                failures.append(f"{where}: exact counts differ between two traced passes")
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="tiny-size run checking every metric against BENCHMARK.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawn-time", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    try:
        if args.self_check:
            return self_check()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: measure(name, args.seed, args.seconds, args.trace) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for name, result in results.items():
        print_table(name, result)
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["ops"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
