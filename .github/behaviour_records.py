"""Build the six seed-1 behaviour records and print a digest of each, without provenance.

    python3 .github/behaviour_records.py               # records of this checkout
    python3 .github/behaviour_records.py --base DIR    # and of the checkout at DIR

Run from the root of a checkout.  The first form runs `perfbench/run.py` at
seed 1 for every workload, untraced and traced, and prints a sha256 of each
`perfbench/results/*.seed1.*behaviour.json` with its `provenance` removed:
equal digests on two commits mean equal behaviour records.  The second form
builds the records again here and then in the checkout at DIR, so records
left by other sources are never compared, and prints, for each record built
here, `same` or `differs` against DIR's.  Under a record that differs it
lists up to 10 of the JSON paths that differ, each with DIR's value and then
this checkout's (`  ops[3].rel_l2: 2.14e-08 -> 2.01e-08`).
After the last line it exits 1 if any record differs.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("invert-d64", "edit-d1024", "cli-d256")
RECORDS = "perfbench/results/*.seed1.*behaviour.json"
# The most differing paths listed under one record that differs.
MAX_PATHS = 10
ABSENT = object()


def build(checkout: Path) -> None:
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "0.1", "--trace", trace],
                cwd=checkout, check=True, stdout=subprocess.DEVNULL,
            )


def load(path: Path) -> dict:
    """A behaviour record without its provenance."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    record.pop("provenance")
    return record


def digest(record: dict) -> str:
    return hashlib.sha256(show(record).encode("utf-8")).hexdigest()


def differences(old, new, path=""):
    """(path, old value, new value) for each JSON leaf that differs, in document order.

    Objects are compared key by key and arrays item by item; a key or item
    that only one side has is compared with `ABSENT`.  Leaves are compared
    as the digest sees them, by their JSON text, so 1 and 1.0 differ and
    NaN equals NaN.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from differences(old.get(key, ABSENT), new.get(key, ABSENT),
                                   f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from differences(old[i] if i < len(old) else ABSENT,
                                   new[i] if i < len(new) else ABSENT, f"{path}[{i}]")
    elif show(old) != show(new):
        yield path, old, new


def show(value) -> str:
    return "(absent)" if value is ABSENT else json.dumps(value, sort_keys=True)


def difference_lines(old: dict, new: dict) -> list[str]:
    """One indented `path: old -> new` line per differing leaf, at most `MAX_PATHS` of them."""
    found = list(differences(old, new))
    lines = [f"  {path}: {show(a)} -> {show(b)}" for path, a, b in found[:MAX_PATHS]]
    if len(found) > MAX_PATHS:
        lines.append(f"  ... and {len(found) - MAX_PATHS} more")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="a checkout to compare this one's records with")
    args = parser.parse_args()
    here = Path.cwd()
    if args.base is None:
        build(here)
        for path in sorted(here.glob(RECORDS)):
            print(digest(load(path)), path.relative_to(here))
        return
    build(here)
    build(args.base)
    differs = 0
    for path in sorted(here.glob(RECORDS)):
        relative = path.relative_to(here)
        old, new = load(args.base / relative), load(path)
        same = show(old) == show(new)
        differs += not same
        print("same" if same else "differs", relative)
        if not same:
            print(*difference_lines(old, new), sep="\n")
    sys.exit(1 if differs else 0)


if __name__ == "__main__":
    main()
