#!/usr/bin/env python3
"""Prints where functions sit within their 64-byte cache lines.

    python3 tools/symbol_offsets.py BINARY PATTERN [PATTERN ...]

Lists every defined text symbol of BINARY (read with `nm -C`) whose
demangled name matches one of the PATTERNs (Python regular expressions,
searched anywhere in the name), one per line: the address mod 64, the
address, the size in bytes when nm knows it, and the name. A hot kernel's
offset within its line can move a serving metric by several percent when an
unrelated object linked before it grows, so comparing two builds' offsets
separates a code effect from a placement effect, e.g.

    python3 tools/symbol_offsets.py .bench_build/perfbench/ftbfs_perfbench \\
        'ftb::bfs_run\\(' 'DualFaultOracle::dist\\('

Exits 1 when a pattern matches no symbol, 2 on bad usage.
"""

import re
import subprocess
import sys

LINE = 64


def text_symbols(binary):
    """Yields (address, size or None, name) for each defined text symbol."""
    out = subprocess.run(["nm", "-C", "-S", "--defined-only", binary],
                         check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) == 4 and len(parts[2]) == 1:
            addr, size, kind, name = parts
        elif len(parts) >= 3 and len(parts[1]) == 1:
            addr, kind, name = parts[0], parts[1], " ".join(parts[2:])
            size = None
        else:
            continue
        if kind not in "tTwW":
            continue
        yield int(addr, 16), None if size is None else int(size, 16), name


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary, patterns = argv[1], [re.compile(p) for p in argv[2:]]
    symbols = list(text_symbols(binary))
    status = 0
    for pat in patterns:
        hits = [s for s in symbols if pat.search(s[2])]
        if not hits:
            print(f"no text symbol matches {pat.pattern!r}", file=sys.stderr)
            status = 1
        for addr, size, name in sorted(hits):
            size_s = "?" if size is None else str(size)
            print(f"{addr % LINE:2d}  {addr:#x}  {size_s:>6}  {name}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
