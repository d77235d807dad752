#!/usr/bin/env python3
"""Per-file line coverage of src/ from a --coverage build.

Usage: python3 tests/coverage_summary.py BUILD_DIR

Configure BUILD_DIR with -DCMAKE_CXX_FLAGS=--coverage
-DCMAKE_EXE_LINKER_FLAGS=--coverage, run whatever should count (ctest
runs every bench and example through the goldens), then run this. It
asks gcov for line counts of the library's objects (writing no .gcov
files) and prints one row per src/**/*.cpp, lowest coverage first, and
the total. It sets no threshold: it exits 1 only when BUILD_DIR holds
no coverage data.
"""
import pathlib
import re
import subprocess
import sys


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    lib = pathlib.Path(sys.argv[1]) / "src"
    gcda = sorted(str(p) for p in lib.rglob("*.gcda"))
    if not gcda:
        print(f"error: no .gcda files under {lib}", file=sys.stderr)
        return 1
    out = subprocess.run(["gcov", "-n", *gcda], capture_output=True,
                         text=True, check=True).stdout

    rows = {}
    source = None
    for line in out.splitlines():
        if m := re.match(r"File '(.*)'", line):
            source = m.group(1)
        elif (m := re.match(r"Lines executed:([\d.]+)% of (\d+)", line)) \
                and source is not None:
            total = int(m.group(2))
            if "/src/vfpga/" in source and source.endswith(".cpp") and total:
                hit = round(float(m.group(1)) * total / 100)
                rows[source.split("/src/", 1)[1]] = (hit, total)
            source = None

    print(f"{'lines':>6} {'cover':>7}  file")
    for name, (hit, total) in sorted(rows.items(),
                                     key=lambda r: (r[1][0] / r[1][1], r[0])):
        print(f"{total:6d} {100 * hit / total:6.1f}%  {name}")
    hit = sum(h for h, _ in rows.values())
    total = sum(t for _, t in rows.values())
    print(f"{total:6d} {100 * hit / total:6.1f}%  total ({len(rows)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
