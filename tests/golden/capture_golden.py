"""Capture the golden cross-system reference outputs.

Runs every system over the fixed golden workload/seed and writes
``systems_golden.json``.  The checked-in copy was produced by the
*pre-runtime-refactor* implementations (the per-system ``_execute`` loops);
``tests/test_golden_equivalence.py`` asserts the unified runtime still
reproduces it number for number.

Regenerate only when an intentional statistical change lands::

    PYTHONPATH=src python tests/golden/capture_golden.py

``--only PATTERN`` (an ``fnmatch`` pattern over case names, e.g.
``'*-streamapprox@chunk256'``) re-captures the matching cases and carries
every other case over from the existing file verbatim, so a change that
is meant to move a few cases provably leaves the rest untouched.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from golden_config import (  # noqa: E402
    GOLDEN_PATH,
    golden_cases,
    report_fingerprint,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="PATTERN", help="re-capture matching cases only")
    only = parser.parse_args().only
    payload = {}
    if only is not None:
        with open(GOLDEN_PATH) as fh:
            payload = json.load(fh)
    captured = []
    for name, run in golden_cases():
        if only is None or fnmatch.fnmatchcase(name, only):
            payload[name] = report_fingerprint(run())
            captured.append(name)
    if not captured:
        parser.error(f"--only {only!r} matches no golden case")
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    print(f"captured {', '.join(captured)}; {len(payload)} cases in {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
