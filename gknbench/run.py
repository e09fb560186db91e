"""Benchmark of gkn-extend verdicts on three seeded workloads.

    python3 gknbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The run builds one round of
seeded ops (workloads.py), computes the reference answers (reference.py),
then starts fresh worker processes on the checkout's `src`, one at a time:
set-up-only ones, to time set-up, around one that runs whole rounds of ops
for about `--seconds`.  Every report is checked against the references.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.

The end-to-end times are in reference seconds: wall seconds times
`CAL_REF_S` over the median calibration chunk time of the same worker
(worker.py).  The shared machine runs tens of percent faster or slower for
minutes at a time; the calibration chunk slows down with it and the
program does not touch it, so the ratio keeps the program's speed and
drops the machine's.  The wall-clock figures are printed on the line
before the JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7     # set-up-only workers around the measuring one, the middle sample
TAIL_MIN_OPS = 40     # fewer ops than this: report the median alone
# median calibration chunk time on the machine in README.md; one reference
# second is one wall second at the machine speed this chunk time stands for
CAL_REF_S = 0.0138

class BenchError(RuntimeError):
    pass


def _spawn(argv: list[str], env: dict, cwd: Path, deadline: float, log: Path) -> float:
    """Run one worker to completion; return its start time (time.monotonic)."""
    with open(log, "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not finish before the run deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0:
        raise BenchError(f"worker exited {rc}:\n{log.read_text()[-2000:]}")
    return t_spawn


def _read_records(path: Path, src: Path) -> list[dict]:
    with open(path) as f:
        records = [json.loads(line) for line in f]
    module = Path(records[0]["module"]).resolve()
    if src.resolve() not in module.parents:
        raise BenchError(f"worker imported gknextend from {module}, not from {src}")
    return records


def _tail(times: list[float]) -> tuple[float, float] | None:
    """Highest of p75/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(times)
    if n < TAIL_MIN_OPS:
        return None
    pct = max(p for p in (75, 90, 99, 99.9) if n * (100 - p) / 100 >= 10)
    return pct, sorted(times)[math.ceil(n * pct / 100) - 1]


def run(args, root: Path, work: Path) -> dict:
    # the whole run, set-up samples included; a run may end half a round late
    deadline = time.monotonic() + 4 * args.seconds + 30
    src = root / "src"
    ops = workloads.build_ops(args.workload, args.seed)
    configs: dict[str, Path] = {}
    plan_ops, expected = [], []
    for i, (command, cfg, known_fault) in enumerate(ops):
        key = json.dumps(cfg, sort_keys=True)
        if key not in configs:
            configs[key] = work / f"config_{len(configs)}.json"
            configs[key].write_text(key + "\n")
        report = work / f"report_{i}.json"
        argv = [command, "--config", str(configs[key]), "--out", str(report)]
        plan_ops.append({"argv": argv, "config": str(configs[key]), "report": str(report)})
        expected.append(reference.expectation(command, cfg, known_fault))
    plan = {
        "ops": plan_ops,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "bench_dir": str(BENCH_DIR),
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))

    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    # one BLAS thread: at these matrix sizes a second one is slower, and its
    # spin-waits make every eigensolve hostage to whatever runs on the other CPU
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    worker = [sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path)]

    # set-up samples before and after the measuring worker see the same drift
    setups = []
    for k in range(SETUP_SAMPLES):
        measuring = k == SETUP_SAMPLES // 2
        records_path = work / f"records_{k}.jsonl"
        extra = [] if measuring else ["--setup-only"]
        t_spawn = _spawn(worker + [str(records_path)] + extra, env, root, deadline, work / "worker.log")
        sample = _read_records(records_path, src)
        setups.append((sample[0]["ready"] - t_spawn, statistics.median(sample[0]["cal"])))
        if measuring:
            records = sample

    summary = records[-1].get("summary")
    if summary is None:
        raise BenchError("worker wrote no summary")
    op_records = records[1:-1]
    failed, problems = 0, []
    for rec in op_records:
        op_failed, bad = reference.check_op(rec["rc"], rec["report"], expected[rec["i"]])
        failed += op_failed
        problems += [f"op {rec['i']} ({ops[rec['i']][0]} {ops[rec['i']][1]['example']}): {b}" for b in bad]
    for p in sorted(set(problems))[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    times = [rec["t"] for rec in op_records]
    if args.trace:
        metrics = dict(summary["layers"])
        metrics["trace.overhead_pct"] = summary["trace.overhead_pct"]
    else:
        cal_s = statistics.median(summary["cal"])
        metrics = {
            "setup_s": statistics.median(t * CAL_REF_S / c for t, c in setups),
            "op_p50_s": statistics.median(times) * CAL_REF_S / cal_s,
            "ops_per_s": len(times) / summary["wall_s"] * cal_s / CAL_REF_S,
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        wall = (
            f"wall clock: setup_s {statistics.median(t for t, _ in setups):.4f}, "
            f"op_p50_s {statistics.median(times):.6f}, "
            f"ops_per_s {len(times) / summary['wall_s']:.4f}, "
            f"calibration chunk {cal_s:.6f} s over {len(summary['cal'])} (reference {CAL_REF_S})"
        )
        tail = _tail(times)
        if tail is not None:
            wall += f"; op_tail_s p{tail[0]:g} = {tail[1]:.6f} s over {len(times)} ops"
        print(wall)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise BenchError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    return {
        "correct": not problems,
        "attempted": len(op_records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "gknextend" / "cli.py").is_file():
        print(f"no gknextend source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    work = BENCH_DIR / "_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, root, work)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
