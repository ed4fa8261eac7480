"""Summarise how two `tests/output_hashes.py` listings differ.

    python tests/compare_hashes.py parent.txt change.txt

Prints each case whose line differs (which fields moved, and its
triangle count and 5th-percentile minimum angle on both sides), then one
summary line: the cases that differ, and among them how many have a
higher, lower or equal 5th-percentile angle (p5), with the largest rise
and the worst drop.  A case that fails on either side is counted apart.
The file name keeps pytest from collecting this script.
"""

import sys


def parse(path):
    """label -> (msh sha1, json sha1, triangles, p5), or (error sha1,)."""
    cases = {}
    with open(path) as fh:
        for line in fh:
            words = line.split()
            if not words:
                continue
            if "error" in words:
                k = words.index("error")
                cases[" ".join(words[:k])] = (words[k + 1],)
            else:
                tri, p5 = words[-2], words[-1]
                cases[" ".join(words[:-4])] = (words[-4], words[-3],
                                               int(tri.split("=")[1]), float(p5.split("=")[1]))
    return cases


def compare(a, b):
    """(report lines, summary line) of two parsed listings."""
    lines, up, down, same, failed = [], [], [], 0, 0
    missing = sorted(set(a) ^ set(b))
    for label in [k for k in a if k in b]:
        x, y = a[label], b[label]
        if x == y:
            continue
        if len(x) == 1 or len(y) == 1:
            failed += 1
            lines.append(f"{label}: {'error' if len(x) == 1 else 'ok'} -> "
                         f"{'error' if len(y) == 1 else 'ok'}")
            continue
        moved = [name for name, p, q in zip(("msh", "json"), x, y) if p != q]
        d = y[3] - x[3]
        if d > 0:
            up.append(d)
        elif d < 0:
            down.append(d)
        else:
            same += 1
        lines.append(f"{label}: {'+'.join(moved)} differ; tri {x[2]} -> {y[2]}, "
                     f"p5 {x[3]:.4f} -> {y[3]:.4f} ({d:+.4f})")
    differ = len(up) + len(down) + same + failed
    summary = (f"{differ} of {len(a)} cases differ: p5 higher on {len(up)}"
               + (f" (at most {max(up):+.4f})" if up else "")
               + f", lower on {len(down)}"
               + (f" (worst {min(down):+.4f})" if down else "")
               + f", same on {same}; {failed} change between ok and error")
    if missing:
        summary += f"; {len(missing)} cases in only one listing: {', '.join(missing)}"
    return lines, summary


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    lines, summary = compare(parse(argv[0]), parse(argv[1]))
    print("\n".join(lines + [summary]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
