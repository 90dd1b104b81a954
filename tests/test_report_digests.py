"""Reports stay byte-identical: the sha256 of every recorded solve report.

`report_digests.json` maps "<profile> <instance>" to the digest of
`format_report(solve(...))`, where <instance> is `tiny3` or the
`generate T alpha beta gamma seed` arguments.  A change that means to alter
reports re-records the file with

    PYTHONPATH=src python tests/test_report_digests.py

and says which reports moved and why.
"""

import hashlib
import json
from pathlib import Path

from ringpack.cli import PROFILES, format_report
from ringpack.model import generate_instance, parse_instance
from ringpack.solver import solve

from conftest import TINY3_TEXT

DIGESTS = Path(__file__).with_name("report_digests.json")

# the (T, alpha, beta, gamma) ladder the small-batch benchmark solves
PAPER_COMBOS = (
    (2, 1.2, 2.0, 1.0),
    (2, 1.5, 2.0, 1.0),
    (3, 1.5, 2.0, 1.0),
    (4, 1.5, 2.0, 1.0),
    (6, 1.5, 2.0, 1.0),
    (8, 1.5, 2.0, 1.0),
    (10, 1.5, 2.0, 1.0),
)
CASES = (
    [("paper", None), ("desk", None)]
    + [("paper", combo + (seed,)) for combo in PAPER_COMBOS for seed in range(1, 6)]
    + [("desk", (20, 1.5, 2.0, 2.0, 1)), ("desk", (3, 3.0, 3.0, 1.0, 2))]
)


def _key(profile, args) -> str:
    if args is None:
        return f"{profile} tiny3"
    return f"{profile} generate " + " ".join(f"{a:g}" for a in args)


def _digest(profile, args) -> str:
    if args is None:
        instance = parse_instance(TINY3_TEXT, name="TINY3")
    else:
        instance = generate_instance(*args)
    report = format_report(solve(instance, PROFILES[profile]))
    return hashlib.sha256(report.encode()).hexdigest()


def test_reports_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    assert sorted(recorded) == sorted(_key(p, a) for p, a in CASES)
    changed = [_key(p, a) for p, a in CASES if _digest(p, a) != recorded[_key(p, a)]]
    assert not changed


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps({_key(p, a): _digest(p, a) for p, a in CASES}, indent=1) + "\n"
    )
