#!/usr/bin/env python3
"""Count the non-blank lines of the library sources: src/**/*.{h,cc}.

The repo's design aim is the same behaviour from less code, so this
number (loc.src) is tracked like throughput: ci.sh prints it and
bench_trend.py appends it to bench/trend/trend.jsonl as an ungated
"loc" entry.

Usage:
  loc_src.py [REPO_ROOT]   # default: the repo this script lives in
"""
import os
import sys

SUFFIXES = (".h", ".cc")


def count(repo_root):
    total = 0
    for dirpath, _, filenames in os.walk(os.path.join(repo_root, "src")):
        for name in filenames:
            if not name.endswith(SUFFIXES):
                continue
            with open(os.path.join(dirpath, name), "r",
                      encoding="utf-8") as f:
                total += sum(1 for line in f if line.strip())
    return total


def main(argv):
    if len(argv) > 2 or (len(argv) == 2 and argv[1] in ("-h", "--help")):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = argv[1] if len(argv) == 2 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    print("loc.src %d" % count(root))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
