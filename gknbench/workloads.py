"""Seeded gkn-extend ops for the three benchmark workloads.

A workload is a fixed list of ops, one round; a run repeats whole rounds.
Each op is (command, config).  Parameters are short decimals drawn from
`random.Random(f"{workload}:{seed}")`, so the same seed gives the same
configs and the references can read them as exact fractions.
"""

from __future__ import annotations

import math
import random

import reference

ALGEBRA_EXAMPLES = (
    "legendre_type",
    "first_order",
    "fourier_3_1",
    "fourier_3_2a",
    "fourier_3_2b",
    "fourier_3_3",
    "fourier_3_4",
    "fourier_3_5",
)
ALGEBRA_COMMANDS = ("check-symplectic", "derive-bc", "verify-gkn")
ALGEBRA_PARAM_SETS = 2

ORACLE_EXAMPLES = (
    "first_order",
    "fourier_3_1",
    "fourier_3_2a",
    "fourier_3_3",
    "fourier_3_4",
    "fourier_3_5",
)

# spectrum at grid_N >= 128 fails the sabotage floor on these two for any
# parameters: they run on fixed default inputs and count as failed ops
SABOTAGE_FLOOR_FAULT = ("fourier_3_2a", "fourier_3_4")

LEGENDRE_OPS = 3
LEGENDRE_N_MAX = 24

WORKLOADS = ("algebra_sweep", "fine_grid_sweep", "exact_legendre")
FINE_GRID_N = 256


def _dec(rng: random.Random, lo: float, hi: float, step: float = 0.05) -> float:
    """A short decimal in [lo, hi] on a grid of `step`."""
    return round(lo + step * rng.randrange(round((hi - lo) / step) + 1), 2)


def draw_params(rng: random.Random) -> dict:
    """Example parameters on [a, b] with b - a in [0.5, 2]."""
    a = _dec(rng, -1.0, 0.5)
    length = _dec(rng, 0.5, 2.0)
    return {
        "A": _dec(rng, 0.5, 4.0),
        "M": _dec(rng, 0.5, 3.0),
        "N_weight": _dec(rng, 0.5, 3.0),
        "alpha": _dec(rng, -2.0, 2.0),
        "beta_re": _dec(rng, -1.0, 1.0),
        "gamma": _dec(rng, -2.0, 2.0),
        "a": a,
        "b": round(a + length, 2),
    }


def _legendre_A(rng: random.Random, taken: set) -> float:
    """A = m/100 in (1, 5) with m coprime to 100, so every op has denominator 100."""
    while True:
        m = rng.randrange(101, 500)
        if math.gcd(m, 100) == 1 and m not in taken:
            taken.add(m)
            return m / 100


def build_ops(workload: str, seed: int) -> list[tuple[str, dict, bool]]:
    """One round of (command, config, known_fault) for the workload."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "algebra_sweep":
        for _ in range(ALGEBRA_PARAM_SETS):
            for ex in ALGEBRA_EXAMPLES:
                cfg = {"example": ex, "params": draw_params(rng), "seed": seed}
                ops += [(cmd, cfg, False) for cmd in ALGEBRA_COMMANDS]
    elif workload == "fine_grid_sweep":
        for ex in ORACLE_EXAMPLES:
            if ex in SABOTAGE_FLOOR_FAULT:
                ops.append(("spectrum", {"example": ex, "grid_N": FINE_GRID_N, "seed": 0}, True))
                continue
            params = draw_params(rng)
            # the oracle cannot see a pair of roots inside one scan cell
            while reference.roots_share_a_scan_cell(ex, reference.params_of({"params": params})):
                params = draw_params(rng)
            cfg = {"example": ex, "params": params, "grid_N": FINE_GRID_N, "seed": seed}
            ops.append(("spectrum", cfg, False))
    elif workload == "exact_legendre":
        taken: set = set()
        for _ in range(LEGENDRE_OPS):
            cfg = {
                "example": "legendre_type",
                "params": {"A": _legendre_A(rng, taken)},
                "n_max": LEGENDRE_N_MAX,
                "seed": seed,
            }
            ops.append(("legendre", cfg, False))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    return ops
