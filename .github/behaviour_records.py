"""Build the six seed-1 behaviour records and print a digest of each, without provenance.

    python3 .github/behaviour_records.py               # records of this checkout
    python3 .github/behaviour_records.py --base DIR    # and of the checkout at DIR

Run from the root of a checkout.  The first form runs `perfbench/run.py` at
seed 1 for every workload, untraced and traced, and prints a sha256 of each
`perfbench/results/*.seed1.*behaviour.json` with its `provenance` removed:
equal digests on two commits mean equal behaviour records.  The second form
builds the same records in the checkout at DIR and prints, for each record
already built here, `same` or `differs` against DIR's; after the last line
it exits 1 if any record differs.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("invert-d64", "edit-d1024", "cli-d256")
RECORDS = "perfbench/results/*.seed1.*behaviour.json"


def build(checkout: Path) -> None:
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "0.1", "--trace", trace],
                cwd=checkout, check=True, stdout=subprocess.DEVNULL,
            )


def digest(path: Path) -> str:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    record.pop("provenance")
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="a checkout to compare this one's records with")
    args = parser.parse_args()
    here = Path.cwd()
    if args.base is None:
        build(here)
        for path in sorted(here.glob(RECORDS)):
            print(digest(path), path.relative_to(here))
        return
    build(args.base)
    differs = 0
    for path in sorted(here.glob(RECORDS)):
        relative = path.relative_to(here)
        same = digest(path) == digest(args.base / relative)
        differs += not same
        print("same" if same else "differs", relative)
    sys.exit(1 if differs else 0)


if __name__ == "__main__":
    main()
