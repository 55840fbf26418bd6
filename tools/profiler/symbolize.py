#!/usr/bin/env python3
"""Symbolize sampler.c's stacks and print inclusive and self shares.

Usage:

    symbolize.py BINARY SAMPLES [--under FUNC] [--top N] [--show NAME ...]

BINARY is the profiled executable, SAMPLES the file sampler.c wrote (its
maps copy is SAMPLES.maps). Frames are named from `nm -C`, placed with the
executable's load address from the maps copy; frames in shared libraries
are named after the library. A function's inclusive share counts the
samples with it anywhere on the stack, its self share those with it
innermost. With --under, only samples with FUNC on the stack count, and
shares are of those. --show prints, per NAME, the share of the samples
with a function whose name contains NAME on the stack (inclusive) or
innermost (self); NAME may join several names with `|`, and a sample
counts once however many of them it holds.
"""

import argparse
import bisect
import collections
import os
import re
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}$")


def load_symbols(binary):
    """Function symbols of `binary`, sorted by address."""
    out = subprocess.run(
        ["nm", "-C", "--defined-only", binary], capture_output=True, text=True, check=True
    ).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            syms.append((int(parts[0], 16), HASH.sub("", parts[2])))
    syms.sort()
    return [a for a, _ in syms], [n for _, n in syms]


def is_pie(binary):
    with open(binary, "rb") as f:
        header = f.read(18)
    return header[16] == 3  # ET_DYN


def load_mappings(maps_path):
    """(start, end, offset, path) of every file-backed executable mapping."""
    maps = []
    with open(maps_path) as f:
        for line in f:
            fields = line.split()
            if len(fields) < 6:
                continue
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            maps.append((lo, hi, int(fields[2], 16), fields[5], "x" in fields[1]))
    return maps


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    ap.add_argument("samples")
    ap.add_argument("--under", default=None)
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--show", nargs="*", default=[])
    args = ap.parse_args()

    addrs, names = load_symbols(args.binary)
    maps = load_mappings(args.samples + ".maps")
    real = os.path.realpath(args.binary)
    own = [m for m in maps if m[3] == real]
    if not own:
        sys.exit(f"{real} is not in {args.samples}.maps")
    base = min(lo - off for lo, _, off, _, _ in own) if is_pie(args.binary) else 0
    executable = sorted((lo, hi, path) for lo, hi, _, path, x in maps if x)
    starts = [lo for lo, _, _ in executable]

    def name(addr):
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= executable[i][1]:
            return "[unknown]"
        if executable[i][2] != real:
            return "[" + os.path.basename(executable[i][2]) + "]"
        j = bisect.bisect_right(addrs, addr - base) - 1
        return names[j] if j >= 0 else "[unknown]"

    stacks = []
    with open(args.samples) as f:
        for line in f:
            frames = [int(x, 16) for x in line.split()]
            if frames:
                # Return addresses point past their call: name the call.
                stacks.append([name(frames[0])] + [name(a - 1) for a in frames[1:]])
    total_samples = len(stacks)
    if args.under:
        stacks = [s for s in stacks if any(args.under in n for n in s)]
    if not stacks:
        sys.exit("no samples to report")

    inclusive = collections.Counter()
    own_time = collections.Counter()
    for s in stacks:
        inclusive.update(set(s))
        own_time[s[0]] += 1
    n = len(stacks)
    scope = f" under {args.under}" if args.under else ""
    print(f"{n} samples{scope} ({total_samples} in all)")
    print(f"{'incl %':>7} {'self %':>7}  function")
    for fn, count in inclusive.most_common(args.top):
        print(f"{100 * count / n:7.1f} {100 * own_time[fn] / n:7.1f}  {fn}")
    if args.show:
        print()
        for pattern in args.show:
            parts = pattern.split("|")
            incl = sum(1 for s in stacks if any(p in f for f in s for p in parts))
            own = sum(1 for s in stacks if any(p in s[0] for p in parts))
            print(f"{100 * incl / n:7.1f} {100 * own / n:7.1f}  {pattern}")


if __name__ == "__main__":
    main()
