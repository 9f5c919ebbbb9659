"""Print a fingerprint of every shipped preset's solve at seed (0, 0).

One line per preset: its name, the iterations, the termination, ``repr`` of
the final certificate's max loss, the first 16 hex digits of the SHA-256 of
the agents' strategy matrices, in agent order, and, for the collusive probe
at scale 0.5 of those strategies, ``repr`` of its ``vs_probe`` value and the
first 16 hex digits of the SHA-256 of its matrices.  These seven fields are
the solve.  The rest of the line scores the solve as a run scores itself,
with one ``runner.score`` of ``EVAL_SAMPLES`` draws at seed 0 (against the
preset's analytic baseline if it has one, for the first agent of each
group); it gives ``repr`` of the revenue and then, for each agent with a
baseline, in agent order, ``repr`` of its L (``None`` where the baseline
misses an opponent) and of each of its L2 values.  Two trees that print the
same lines solve, probe and score every preset to the same bits, so a
refactor that should not change results can be checked by diffing this
script's output before and after it:

    PYTHONPATH=src python tests/fingerprint_presets.py > fingerprints.txt

``tests/fingerprints.txt`` holds its output for this tree, and
``tests/test_fingerprints.py`` checks it at 1 and at 2 BLAS threads; a
change that means to alter results writes that file anew with this script.

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
from bnesolve.runner import score, solve
from bnesolve.verify import collusive_profile, vs_probe

EVAL_SAMPLES = 1 << 14


def matrix_digest(strategies) -> str:
    digest = hashlib.sha256()
    for s in strategies:
        digest.update(np.ascontiguousarray(s.matrix).tobytes())
    return digest.hexdigest()[:16]


def fingerprint(name: str) -> str:
    problem = build_problem(config_from_mapping(get_preset(name)))
    result = solve(problem, (0, 0))
    probe = collusive_profile(result.strategies, scale=0.5)
    value = vs_probe(problem.engine(), result.strategies, probe)
    _, report = score(problem, result.strategies, 0, EVAL_SAMPLES)
    scores = [report.revenue]
    for a in (g[0] for g in problem.groups):
        if report.l2.get(a) is not None:
            scores += [report.losses[a], *report.l2[a]]
    # float(): numpy 2 writes np.float64(...) as repr of its own scalars
    return (f"{name} {result.iterations} {result.termination} "
            f"{result.certificate.max_loss!r} {matrix_digest(result.strategies)} "
            f"{value!r} {matrix_digest(probe)} "
            + " ".join(repr(v if v is None else float(v)) for v in scores))


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
