#!/usr/bin/env python3
"""Lint the fault-site registry.

The chaos sweep (tests/chaos_test.cc) discovers fault sites dynamically, so
"every compiled-in site is reachable by the sweep" is enforced in two
halves:

  1. this script: the set of sites compiled into src/ (every
     `DECORR_FAULT_POINT("site")` / direct `.Hit("site")` in a .cc file)
     must exactly match the checked-in manifest tests/fault_sites.txt —
     adding a fault point without registering it (or renaming one without
     updating the manifest) fails CI;
  2. chaos_test's SweepReachesEveryRegisteredSite: the recorded site set of
     the chaos workload must cover the manifest — a registered site the
     sweep can no longer reach fails the test.

Usage:
  python3 scripts/check_fault_sites.py            # lint
  python3 scripts/check_fault_sites.py --update   # rewrite the manifest
"""

import argparse
import pathlib
import re
import sys

# DECORR_FAULT_POINT("x") in headers is documentation (fault.h's usage
# example); only sites compiled into .cc files are real.
FAULT_POINT_RE = re.compile(r'DECORR_FAULT_POINT\("([^"]+)"\)')
DIRECT_HIT_RE = re.compile(r'\.Hit\("([^"]+)"\)')

MANIFEST_HEADER = """\
# Fault-site registry: every DECORR_FAULT_POINT / FaultInjector::Hit site
# compiled into src/. Kept in sync with the source by
# scripts/check_fault_sites.py (run with --update after adding a site) and
# proven reachable by chaos_test's SweepReachesEveryRegisteredSite.
"""


def collect_source_sites(src_dir: pathlib.Path) -> set:
    sites = set()
    for path in sorted(src_dir.rglob("*.cc")):
        text = path.read_text()
        sites.update(FAULT_POINT_RE.findall(text))
        sites.update(DIRECT_HIT_RE.findall(text))
    return sites


def read_manifest(path: pathlib.Path) -> set:
    sites = set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            sites.add(line)
    return sites


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repo-root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
    )
    parser.add_argument("--update", action="store_true",
                        help="rewrite tests/fault_sites.txt from the source")
    args = parser.parse_args()

    src_dir = args.repo_root / "src"
    manifest_path = args.repo_root / "tests" / "fault_sites.txt"
    if not src_dir.is_dir():
        print(f"error: {src_dir} missing", file=sys.stderr)
        return 2

    source_sites = collect_source_sites(src_dir)
    if not source_sites:
        print("error: no fault sites found under src/ — pattern rot?",
              file=sys.stderr)
        return 2

    if args.update:
        manifest_path.write_text(
            MANIFEST_HEADER + "\n".join(sorted(source_sites)) + "\n")
        print(f"wrote {manifest_path} ({len(source_sites)} sites)")
        return 0

    if not manifest_path.is_file():
        print(f"error: {manifest_path} missing; generate it with --update",
              file=sys.stderr)
        return 2

    manifest_sites = read_manifest(manifest_path)
    unregistered = sorted(source_sites - manifest_sites)
    stale = sorted(manifest_sites - source_sites)

    status = 0
    if unregistered:
        status = 1
        print("fault sites in src/ missing from tests/fault_sites.txt\n"
              "(run scripts/check_fault_sites.py --update, then make sure\n"
              "chaos_test's workload reaches them):")
        for site in unregistered:
            print(f"  {site}")
    if stale:
        status = 1
        print("manifest sites that no longer exist in src/ "
              "(rename fallout? run --update):")
        for site in stale:
            print(f"  {site}")
    if status == 0:
        print(f"ok: {len(source_sites)} fault sites, manifest in sync")
    return status


if __name__ == "__main__":
    sys.exit(main())
