"""What ``perfbench`` reaches inside the package still exists and still runs.

``perfbench/run.py`` replaces ``bnesolve.runner.run`` to capture every
``RunResult``, and ``perfbench/spans.py`` wraps module globals by name
(``runner.run``, ``runner._run_once``, ``learners.utility_loss``,
``verify.utility_loss`` and others), calls ``priors.joint_from_latent`` with
the value grid and the observation grids first, and reads
``DiscretePrior.value_joints``.  The benchmark is run as a separate
process, so this check runs in one too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import bnesolve as bn
import bnesolve.config, bnesolve.presets, bnesolve.runner
import spans

returned = []
run = bn.runner.run

def capture(*a, **k):
    result = run(*a, **k)
    returned.append(result)
    return result

bn.runner.run = capture
tracer = spans.Tracer("setup")
spans.install(tracer, bn)
mapping = {**bn.presets.get_preset("fpsb_2_uniform"), "obs_points": 12,
           "action_points": 12, "iterations": 20, "eval_samples": 1 << 10,
           "plot_points": 10}
problem = bn.config.build_problem(bn.config.config_from_mapping(mapping))
summary = bn.runner.run_batch(problem, sys.argv[2], runs=2)
mapping = {**bn.presets.get_preset("affiliated_fpsb"), "obs_points": 6,
           "action_points": 6, "value_points": 6, "prior_samples": 1 << 17}
problem = bn.config.build_problem(bn.config.config_from_mapping(mapping))
prior = problem.prior_model.discretize(problem.obs_grids, problem.value_grid)
print(json.dumps({
    "rows": [[r["status"], r["iterations"]] for r in summary.rows],
    "returned": [[r.iterations, r.gradient_path] for r in returned],
    "spans": sorted({s.name for s in tracer.spans}),
    "joint_bytes": [s.attrs["joint_bytes"] for s in tracer.spans
                    if s.name == "priors.discretize"][-1],
    "prior_bytes": prior.obs_joint.nbytes + prior.value_joint.nbytes,
}))
"""


def test_perfbench_tracer_and_capture_still_apply(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"),
                           str(tmp_path / "batch")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [status for status, _ in out["rows"]] == ["ok", "ok"]
    assert [iters for iters, _ in out["returned"]] == [iters for _, iters in out["rows"]]
    path = out["returned"][0][1]
    for name in ("learners.run", "learners.soda1.step", "verify.utility_loss",
                 f"gradient.{path}", "runner.run_once", "priors.discretize",
                 "priors.joint_from_latent"):
        assert name in out["spans"], name
    # the tracer sizes a latent prior through its joints and value joints, as the
    # model's discretize returns it (the problem's affine game then drops the latter)
    assert out["joint_bytes"] == out["prior_bytes"] == (6 ** 2 + 6 ** 3) * 8
