"""Print the size of each `src/atlasmesh` module and their total.

    python tests/src_lines.py [SRC_ROOT]

A line counts unless it is blank or holds only a comment; docstrings
count.  `SRC_ROOT` defaults to this tree's `src/atlasmesh`, so the same
script measures a parent tree.  The file name keeps pytest from
collecting this script.
"""

import sys
from pathlib import Path


def count(path):
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main(argv):
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "atlasmesh"
    sizes = {path.name: count(path) for path in sorted(root.glob("*.py"))}
    for name, n in sizes.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(sizes.values()):6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
