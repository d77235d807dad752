#!/usr/bin/env python3
"""Per-file line coverage of src/ from one or more --coverage builds.

Usage: python3 tests/coverage_summary.py BUILD_DIR [BUILD_DIR ...]

Configure each BUILD_DIR with "-DCMAKE_CXX_FLAGS=--coverage
-fprofile-update=atomic" -DCMAKE_EXE_LINKER_FLAGS=--coverage (threaded
runs corrupt non-atomic counters), run whatever should count (ctest
runs every bench and example through the goldens; a build of perfbench/
runs the benchmark's workloads), then run this. It asks gcov for the
line counts of every object under each BUILD_DIR (gcov --json-format,
writing no files), sums them per line of each src/**/*.cpp across the
builds, and prints one row per file, lowest coverage first, and the
total. A line counts as executable when any build compiled it and as
run when any build ran it. Then it lists every function of those files
that no build ran, by file and line: each is a candidate to delete or
to cover. It sets no threshold: it exits 1 only when some BUILD_DIR
holds no coverage data.
"""
import collections
import json
import os
import pathlib
import subprocess
import sys


def line_counts(build_dir, counts, calls):
    """Adds BUILD_DIR's per-line execution counts of src/vfpga/**/*.cpp
    to counts[source][line], and its per-function counts to
    calls[(source, start line, demangled name)]. Returns False when it
    holds no .gcda."""
    gcda = sorted(str(p) for p in pathlib.Path(build_dir).rglob("*.gcda"))
    if not gcda:
        print(f"error: no .gcda files under {build_dir}", file=sys.stderr)
        return False
    out = subprocess.run(["gcov", "--json-format", "--stdout", *gcda],
                         capture_output=True, text=True, check=True).stdout
    for document in out.splitlines():
        if not document.strip():
            continue
        for entry in json.loads(document)["files"]:
            source = os.path.normpath(entry["file"])
            if "/src/vfpga/" not in source or not source.endswith(".cpp"):
                continue
            name = source.split("/src/", 1)[1]
            for line in entry["lines"]:
                counts[name][line["line_number"]] += line["count"]
            for function in entry.get("functions", []):
                key = (name, function["start_line"],
                       function.get("demangled_name", function["name"]))
                calls[key] += function["execution_count"]
    return True


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts = collections.defaultdict(collections.Counter)
    calls = collections.Counter()
    for build_dir in sys.argv[1:]:
        if not line_counts(build_dir, counts, calls):
            return 1

    rows = {name: (sum(1 for c in lines.values() if c > 0), len(lines))
            for name, lines in counts.items() if lines}
    print(f"{'lines':>6} {'cover':>7}  file")
    for name, (hit, total) in sorted(rows.items(),
                                     key=lambda r: (r[1][0] / r[1][1], r[0])):
        print(f"{total:6d} {100 * hit / total:6.1f}%  {name}")
    hit = sum(h for h, _ in rows.values())
    total = sum(t for _, t in rows.values())
    print(f"{total:6d} {100 * hit / total:6.1f}%  total ({len(rows)} files)")

    never = sorted(key for key, count in calls.items() if count == 0)
    print(f"\nfunctions never run: {len(never)}")
    for name, line, function in never:
        print(f"  {name}:{line}  {function}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
