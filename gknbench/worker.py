"""One workload process: set up gknextend, then run whole rounds of ops.

    python3 worker.py <plan.json> <records.jsonl> [--setup-only]

The plan (written by run.py) lists each op as gkn-extend argv.  The worker
imports the program, validates one config and warms the linear algebra it
uses, then writes `{"ready": <time.monotonic()>, "cal": [...]}` -- the end
of set-up, and a burst of calibration chunks timed just after it.  Unless
`--setup-only`, it then runs rounds until the next round would end further
past `seconds` than stopping now, and appends one record per op (exit code,
wall time, report text) and a closing summary.  Untraced rounds time two
more calibration chunks for every `CAL_EVERY_S` passed since the last ones,
between ops and outside every op's time.  With `trace` set, rounds
alternate untraced / traced so that the tracing overhead is measured in the
same process.

A calibration chunk is fixed work that uses no gknextend code: Fraction
sums, dict updates and one 80x80 generalized eigensolve, the three kinds
of work the ops do.  Its time tracks how fast the shared machine runs at
that moment; run.py uses it to take that speed out of the figures.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from fractions import Fraction

CAL_BURST = 12      # chunks timed right after set-up, in every worker
CAL_EVERY_S = 0.25  # between ops: two more chunks per this much time passed


class Calibration:
    def __init__(self):
        import numpy as np
        import scipy.linalg

        self._eig = scipy.linalg.eig
        rng = np.random.default_rng(0)
        a = rng.standard_normal((80, 80))
        self._a, self._b = a, np.eye(80) + 0.01 * a @ a.T
        self.times: list[float] = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def chunk(self) -> None:
        t0 = time.perf_counter()
        s = Fraction(0)
        for k in range(1, 400):
            s += Fraction(k, k * k + 1)
        d: dict[int, int] = {}
        for k in range(20000):
            d[k % 97] = d.get(k % 97, 0) + k
        self._eig(self._a, self._b)
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def maybe(self) -> None:
        """Two chunks for every `CAL_EVERY_S` since the last ones, so that
        runs of long ops are sampled as densely as runs of short ones."""
        for _ in range(2 * int((time.perf_counter() - self._last) / CAL_EVERY_S)):
            self.chunk()


def _warm_up(cli, plan: dict):
    """First-call costs a user's process also pays: schema validation and LAPACK."""
    import numpy as np
    import scipy.linalg

    cli.load_config(plan["ops"][0]["config"])
    np.linalg.svd(np.eye(3))
    scipy.linalg.eig(np.eye(3), np.eye(3))


def _run_round(cli, plan: dict, out, cal: Calibration | None) -> float:
    """Run one round; return its wall time without the calibration chunks."""
    t_round = time.perf_counter()
    cal_before = cal.spent if cal else 0.0
    for i, op in enumerate(plan["ops"]):
        if cal:
            cal.maybe()
        t0 = time.perf_counter()
        try:
            rc = cli.main(op["argv"])
        except Exception:
            rc = "exception: " + traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        try:
            with open(op["report"]) as f:
                report = f.read()
        except OSError:
            report = None
        out.write(json.dumps({"i": i, "rc": rc, "t": dt, "report": report}) + "\n")
    cal_spent = cal.spent - cal_before if cal else 0.0
    return time.perf_counter() - t_round - cal_spent


def main(argv: list[str]) -> int:
    with open(argv[0]) as f:
        plan = json.load(f)
    from gknextend import cli

    _warm_up(cli, plan)
    ready = time.monotonic()
    cal = Calibration()
    for _ in range(CAL_BURST):
        cal.chunk()
    with open(argv[1], "w") as out:
        out.write(json.dumps({"ready": ready, "module": cli.__file__, "cal": cal.times}) + "\n")
        if "--setup-only" in argv:
            return 0
        tracer = None
        if plan["trace"]:
            sys.path.insert(0, plan["bench_dir"])
            from tracing import Tracer

            tracer = Tracer()
        seconds = plan["seconds"]
        plain, traced = [], []
        t_run = time.perf_counter()
        while True:
            if tracer is None:
                plain.append(_run_round(cli, plan, out, cal))
                mean_round = (time.perf_counter() - t_run) / len(plain)
            else:
                plain.append(_run_round(cli, plan, out, None))
                tracer.install()
                try:
                    traced.append(_run_round(cli, plan, out, None))
                finally:
                    tracer.uninstall()
                mean_round = (sum(plain) + sum(traced)) / len(plain)
            elapsed = time.perf_counter() - t_run
            if elapsed + mean_round / 2 >= seconds:
                break
        summary = {
            "rounds": len(plain) + len(traced),
            "wall_s": sum(plain),
            "cal": cal.times,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if tracer is not None:
            n_ops = len(traced) * len(plan["ops"])
            summary["layers"] = tracer.layer_metrics(n_ops, len(traced))
            summary["trace.overhead_pct"] = 100 * (sum(traced) / sum(plain) - 1)
        out.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
