#!/usr/bin/env python3
"""Include lint: examples, benches and tools must program against the v1
public surface (include/retscan/) only — never src/ internals directly.

Allowed quoted includes:
  * "retscan/..."            the public header tree
  * "bench_util.hpp"         bench-local helpers (bench/ and tests/ only;
    "reference_podem.hpp"    themselves lint-checked to sit on retscan/)
  * "measure.hpp"            perfbench's timing harness (bench/ only; it
                             includes no retscan header at all)

Angle-bracket includes (standard library, gtest) are always fine. Usage:

  python3 ci/check_includes.py [repo_root]
"""

import pathlib
import re
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
CHECKED_DIRS = ("examples", "bench", "tools")
BENCH_LOCAL = {"bench_util.hpp", "reference_podem.hpp", "measure.hpp"}


def violations(root: pathlib.Path):
    for directory in CHECKED_DIRS:
        for path in sorted((root / directory).glob("**/*")):
            if path.suffix not in {".cpp", ".hpp", ".h", ".cc"}:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                match = INCLUDE_RE.match(line)
                if not match:
                    continue
                header = match.group(1)
                if header.startswith("retscan/"):
                    continue
                if directory == "bench" and header in BENCH_LOCAL:
                    continue
                yield path.relative_to(root), lineno, header


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    bad = list(violations(root))
    for path, lineno, header in bad:
        print(f'{path}:{lineno}: includes src internal "{header}" — '
              f"use the include/retscan/ surface (see retscan/retscan.hpp)")
    if bad:
        print(f"\n{len(bad)} violation(s); examples/benches/tools must include "
              f'only "retscan/..." headers')
        return 1
    print("include lint: examples/, bench/ and tools/ are clean "
          "(retscan/ public surface only)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
