"""Every shipped preset solves and scores to the bits recorded in ``fingerprints.txt``.

``fingerprint_presets.py`` runs in a subprocess, so that its BLAS thread
count is set before numpy loads: every preset at 2 OpenBLAS threads, and the
first preset of each mechanism at 1.  A change that means to alter results
writes the file anew with that script and logs each line that moved.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bnesolve.presets import get_preset, preset_names

HERE = Path(__file__).resolve().parent
RECORDED = (HERE / "fingerprints.txt").read_text().splitlines()


def fingerprint_lines(threads: int, names=()) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src"),
           "OPENBLAS_NUM_THREADS": str(threads)}
    proc = subprocess.run([sys.executable, str(HERE / "fingerprint_presets.py"), *names],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def first_preset_per_mechanism() -> list[str]:
    firsts: dict = {}
    for name in preset_names():
        firsts.setdefault(get_preset(name)["mechanism"], name)
    return list(firsts.values())


@pytest.mark.parametrize("threads, names",
                         [(2, ()), (1, tuple(first_preset_per_mechanism()))],
                         ids=["all-presets-2-threads", "per-mechanism-1-thread"])
def test_presets_solve_to_the_recorded_bits(threads, names):
    recorded = {line.split()[0]: line for line in RECORDED}
    expected = [recorded[name] for name in names] if names else RECORDED
    lines = fingerprint_lines(threads, names)
    differ = sorted({line.split()[0] for line in set(lines) ^ set(expected)} - {"all"})
    assert not differ, f"at {threads} BLAS thread(s) these differ from fingerprints.txt: {differ}"
    assert lines == expected
