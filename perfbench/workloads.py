"""Seeded workloads of the simplexvol benchmark.

Each workload names a CLI command, an input size and a pool size.  The pool
is a list of point sets drawn from the run's seed; the timed loop solves them
in turn.  Every workload also knows its reference: what a correct answer on
one of its inputs looks like, computed outside the timed phase.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from simplexvol import bruteforce
from simplexvol.constructions import gen_min_tetra_prism, gen_random_rational
from simplexvol.exact import PointSet

# Bounds the diameter-face charging scheme guarantees (charging.py).
MAX_PER_FACE = 4
MAX_PER_FACE_SIDE = 2


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # subcommand and flags; the point file goes after the subcommand
    dim: int
    n: int
    pool: int
    family: str  # "prism" or "random"
    bound: int = 0  # coordinate box of the random family

    def with_size(self, n: int, pool: int | None = None) -> "Workload":
        return replace(self, n=n, pool=self.pool if pool is None else pool)

    def half(self) -> "Workload":
        """The same workload at about n/2 points (a valid prism size)."""
        n = self.n // 2
        if self.family == "prism":
            n = max(8, n - n % 4)
        return self.with_size(n)

    def make_pool(self, seed: int) -> list[PointSet]:
        rng = random.Random(f"{self.name}:{seed}")
        if self.family == "prism":
            base = gen_min_tetra_prism(self.n).points
            pool = []
            for _ in range(self.pool):
                shift = [rng.randint(-1000, 1000) for _ in range(3)]
                pool.append(PointSet([tuple(c + s for c, s in zip(p, shift))
                                      for p in base], dim=3))
            return pool
        return [gen_random_rational(self.n, self.dim, rng.randrange(2 ** 32),
                                    bound=self.bound)
                for _ in range(self.pool)]

    def reference(self, ps: PointSet) -> dict | None:
        """Expected minimum squared measure and count, or None when the CLI
        run checks itself (the oracle and charging flags)."""
        if "--oracle" in self.argv:
            return None
        if self.family == "prism":
            expected = gen_min_tetra_prism(len(ps)).expected
            return {"sq": expected["min_squared_volume"], "count": expected["count"]}
        oracle = bruteforce.min_volume_simplices(ps, self.dim)
        return {"sq": oracle.min_squared_volume, "count": oracle.count}


def check(outcome: dict, reference: dict | None) -> str | None:
    """Return why a solve is wrong, or None when it is right."""
    if outcome.get("error"):
        return outcome["error"]
    if outcome["exit_code"] != 0:
        return f"exit code {outcome['exit_code']}"
    if reference is None:
        if outcome.get("oracle_match") is not True:
            return "oracle mismatch"
        per_face, per_side = outcome.get("charging", (None, None))
        if per_face is None or per_face > MAX_PER_FACE or per_side > MAX_PER_FACE_SIDE:
            return f"charging bound exceeded: {per_face} per face, {per_side} per side"
        return None
    if Fraction(outcome["sq"]) != reference["sq"] or outcome["count"] != reference["count"]:
        return (f"got {outcome['sq']} x{outcome['count']}, "
                f"expected {reference['sq']} x{reference['count']}")
    return None


WORKLOADS = {w.name: w for w in (
    # Tie-heavy: few directions carry many planes, so in-plane scans and slab
    # pairing carry the load.  Reference is the closed form.
    Workload("prism3d", ("minvol",), dim=3, n=80, pool=4, family="prism"),
    # General position: every triple is its own plane and direction, so
    # per-direction bucketing does nearly all the work.
    Workload("random3d", ("minvol",), dim=3, n=40, pool=4, family="random", bound=1000),
    # The only workload on the 2D reporter.
    Workload("random2d", ("minarea",), dim=2, n=100, pool=4, family="random", bound=10 ** 4),
    # The verification run: witnesses, brute-force oracle and charging check
    # on a 5x5x5 lattice box; the CLI's exit code and charging maxima are the
    # reference.
    Workload("verify3d", ("minvol", "--oracle", "--report-witnesses", "--check-charging"),
             dim=3, n=20, pool=128, family="random", bound=2),
)}
