#!/usr/bin/env python3
"""Check that regenerated EXPLAIN goldens record the same work.

A change that only alters how plans are printed or how rows are laid out
(slot numbers, projected columns, filter labels) must leave every work
counter of the EXPLAIN ANALYZE trees in tests/golden/ unchanged. This
script compares, golden by golden and line by line, the `rows=`, `in=`,
`keyfilter=`, `loops=`, `build=`, `probes=`, and the memo's `hits=`,
`misses=` and `evict=` tokens of the committed goldens at a git revision
against the working tree, and also requires the same operator on every
line. A token printed only when nonzero (`keyfilter=`, `build=`,
`probes=`, `evict=`; `hits=` and `misses=` once the memo was probed)
counts as 0 where it is absent.

Usage:
  python3 scripts/check_golden_work.py              # against HEAD
  python3 scripts/check_golden_work.py --rev REV    # against REV

Exit status: 0 = identical work everywhere, 1 = some golden differs.
"""

import argparse
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = "tests/golden"
WORK_RE = re.compile(
    r"\b(rows|in|keyfilter|loops|build|probes|hits|misses|evict)=(\d+)")
# The operator of an EXPLAIN ANALYZE line: its role prefix and name, up to
# the first space or bracket ("left: IndexJoin(partsupp)", "input: Project").
OP_RE = re.compile(r"^\s*(?:[a-z0-9 ]+: )?([A-Za-z]+(?:\([^)]*\))?)")


def work_lines(text):
    """(operator, work tokens) for each line of the ANALYZE half."""
    marker = "== EXPLAIN ANALYZE"
    if marker not in text:
        return []
    analyze = text[text.index(marker):].splitlines()[1:]
    out = []
    for line in analyze:
        if not line.strip():
            continue
        op = OP_RE.match(line)
        out.append((op.group(1) if op else line, WORK_RE.findall(line)))
    return out


def committed(rev, path):
    result = subprocess.run(["git", "show", f"{rev}:{path}"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout if result.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rev", default="HEAD")
    args = ap.parse_args()

    problems = []
    goldens = sorted((ROOT / GOLDEN_DIR).glob("*.golden"))
    tokens = 0
    for path in goldens:
        rel = f"{GOLDEN_DIR}/{path.name}"
        old = committed(args.rev, rel)
        if old is None:
            problems.append(f"{rel}: not in {args.rev}")
            continue
        before, after = work_lines(old), work_lines(path.read_text())
        if len(before) != len(after):
            problems.append(f"{rel}: {len(before)} ANALYZE lines at "
                            f"{args.rev}, {len(after)} now")
            continue
        for i, (b, a) in enumerate(zip(before, after), 1):
            if b != a:
                problems.append(f"{rel}: ANALYZE line {i}: {b} -> {a}")
            tokens += len(a[1])
    for problem in problems:
        print(f"[golden-work] DIFFERS: {problem}", file=sys.stderr)
    if problems or not goldens:
        return 1
    print(f"[golden-work] OK: {len(goldens)} goldens, {tokens} work tokens "
          f"identical to {args.rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
