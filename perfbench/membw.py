#!/usr/bin/env python3
"""Sustained copy bandwidth of this machine, the reference for gradient.affine.gb_per_s.

    python3 perfbench/membw.py

Copies one float64 array into another with ``numpy.copyto`` (one thread) and
reports bytes read plus bytes written per second, median of the repeats.
Each array is at least four times the last-level cache, read from sysfs.
"""

from __future__ import annotations

import glob
import json
import statistics
import sys
from time import perf_counter

import numpy as np

REPEATS = 7


def last_level_cache_bytes() -> int:
    best_level, size = 0, 0
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        with open(f"{d}/level") as fh:
            level = int(fh.read())
        with open(f"{d}/type") as fh:
            kind = fh.read().strip()
        with open(f"{d}/size") as fh:
            text = fh.read().strip()
        if kind == "Instruction" or level < best_level:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        best_level, size = level, int(text[:-1]) * units[text[-1]] if text[-1] in units \
            else int(text)
    return size


def main() -> int:
    llc = last_level_cache_bytes()
    n = max(4 * llc, 256 << 20) // 8
    src = np.random.default_rng(0).random(n)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    rates = []
    for _ in range(REPEATS):
        t = perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (perf_counter() - t) / 1e9)
    print(json.dumps({"llc_mib": llc / 2**20, "array_mib": src.nbytes / 2**20,
                      "copy_gb_per_s_median": statistics.median(rates),
                      "copy_gb_per_s": rates}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
