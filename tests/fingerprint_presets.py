"""Print a fingerprint of every shipped preset's solve at seed (0, 0).

One line per preset: its name, the iterations, the termination, ``repr`` of
the final certificate's max loss, the first 16 hex digits of the SHA-256 of
the agents' strategy matrices, in agent order, and, for the collusive probe
at scale 0.5 of those strategies, ``repr`` of its ``vs_probe`` value and the
first 16 hex digits of the SHA-256 of its matrices.  Two trees that print
the same lines solve and probe every preset to the same bits, so a refactor
that should not change results can be checked by diffing this script's
output before and after it:

    PYTHONPATH=src python tests/fingerprint_presets.py > fingerprints.txt

Over every preset the output ends with one more line, ``all <sha256>``: the
SHA-256 of the lines above it (what ``sha256sum`` prints for them), so two
trees can be compared by that line alone.  Names given as arguments restrict
the run to those presets and leave that line out.  pytest does not collect
this file.
"""

import hashlib
import sys

import numpy as np

from bnesolve.config import build_problem, config_from_mapping
from bnesolve.presets import get_preset, preset_names
from bnesolve.runner import solve
from bnesolve.verify import collusive_profile, vs_probe


def matrix_digest(strategies) -> str:
    digest = hashlib.sha256()
    for s in strategies:
        digest.update(np.ascontiguousarray(s.matrix).tobytes())
    return digest.hexdigest()[:16]


def fingerprint(name: str) -> str:
    problem = build_problem(config_from_mapping(get_preset(name)))
    result = solve(problem, (0, 0))
    probe = collusive_profile(result.strategies, scale=0.5)
    value = vs_probe(problem.mech, problem.prior, result.strategies, probe,
                     engine=problem.engine())
    return (f"{name} {result.iterations} {result.termination} "
            f"{result.certificate.max_loss!r} {matrix_digest(result.strategies)} "
            f"{value!r} {matrix_digest(probe)}")


def main(names) -> None:
    digest = hashlib.sha256()
    for name in names or preset_names():
        line = fingerprint(name)
        digest.update(f"{line}\n".encode())
        print(line, flush=True)
    if not names:
        print(f"all {digest.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
