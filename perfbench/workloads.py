"""Which instances each workload solves, and under which budget profile.

Every instance is named by the `ringpack` command that would produce it
(`generate T alpha beta gamma seed`), or `tiny3` for the three-type test
instance.  `reference.json` is keyed by these names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# the three-type instance of the test suite; its optimum is 2 rectangles
TINY3_TEXT = "4 4\n0.5 0.7 2\n1.0 1.2 1\n1.4 1.8 1\n"
TINY3_OPT = 2

# (T, alpha, beta, gamma) of the batch-small ladder, run under `paper`
BATCH_COMBOS = (
    (2, 1.2, 2.0, 1.0),
    (2, 1.5, 2.0, 1.0),
    (3, 1.5, 2.0, 1.0),
    (4, 1.5, 2.0, 1.0),
    (6, 1.5, 2.0, 1.0),
    (8, 1.5, 2.0, 1.0),
    (10, 1.5, 2.0, 1.0),
)
# generate seeds the reference file covers; a benchmark seed picks a sample
BATCH_POOL = range(1, 101)
BATCH_PER_COMBO = 90

# pinned single cases, run under `desk`: the seeded generator has a cliff
# (most desk instances either take under a second or run past 15 s), so
# the heavy workloads are fixed instances rather than samples
PINNED = {
    "rect-proofs": ((3, 1.5, 3.0, 1.0, 1), (12, 2.0, 2.0, 4.0, 1)),
    "disk-limit": ((3, 3.0, 3.0, 1.0, 2),),
    "many-types": ((20, 1.5, 2.0, 2.0, 1),),
}

PROFILES = {
    "batch-small": "paper",
    "rect-proofs": "desk",
    "disk-limit": "desk",
    "many-types": "desk",
}

WORKLOADS = tuple(PROFILES)


@dataclass(frozen=True)
class Case:
    """One instance of a workload; `args` are the generate arguments, or
    None for tiny3."""

    args: tuple | None

    @property
    def name(self) -> str:
        if self.args is None:
            return "tiny3"
        return "generate " + " ".join(f"{a:g}" for a in self.args)


def cases(workload: str, seed: int) -> list[Case]:
    """The instances of one round of `workload`; the same seed gives the
    same list."""
    if workload in PINNED:
        return [Case(args) for args in PINNED[workload]]
    if workload != "batch-small":
        raise KeyError(workload)
    rng = random.Random(seed)
    out = [Case(None)]
    for combo in BATCH_COMBOS:
        for gen_seed in sorted(rng.sample(BATCH_POOL, BATCH_PER_COMBO)):
            out.append(Case(combo + (gen_seed,)))
    return out


def pool(workload: str) -> list[Case]:
    """Every instance any seed can draw for `workload`."""
    if workload in PINNED:
        return cases(workload, 0)
    return [Case(None)] + [
        Case(combo + (s,)) for combo in BATCH_COMBOS for s in BATCH_POOL
    ]


def build(case: Case):
    """The ringpack Instance of a case."""
    from ringpack import generate_instance, parse_instance

    if case.args is None:
        return parse_instance(TINY3_TEXT, name="TINY3")
    return generate_instance(*case.args)


def config(workload: str):
    """The SolveConfig that `ringpack solve --profile <profile>` uses."""
    from ringpack.cli import PROFILES as CLI_PROFILES

    return CLI_PROFILES[PROFILES[workload]]
