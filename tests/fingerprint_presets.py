"""Print a fingerprint of every shipped preset's solve at seed (0, 0).

One line per preset: its name, the iterations, the termination, ``repr`` of
the final certificate's max loss, and the first 16 hex digits of the SHA-256
of the agents' strategy matrices, in agent order.  Two trees that print the
same lines solve every preset to the same bits, so a refactor that should
not change results can be checked by diffing this script's output before and
after it:

    PYTHONPATH=src python tests/fingerprint_presets.py > fingerprints.txt

Names given as arguments restrict the run to those presets.  pytest does not
collect this file.
"""

import hashlib
import sys

import numpy as np

from bnesolve.config import build_problem, config_from_mapping
from bnesolve.presets import get_preset, preset_names
from bnesolve.runner import solve


def fingerprint(name: str) -> str:
    result = solve(build_problem(config_from_mapping(get_preset(name))), (0, 0))
    digest = hashlib.sha256()
    for s in result.strategies:
        digest.update(np.ascontiguousarray(s.matrix).tobytes())
    return (f"{name} {result.iterations} {result.termination} "
            f"{result.certificate.max_loss!r} {digest.hexdigest()[:16]}")


def main(names) -> None:
    for name in names or preset_names():
        print(fingerprint(name), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
