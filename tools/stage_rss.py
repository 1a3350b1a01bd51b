"""Peak RSS of each training stage and classify mode of a benchmark workload, one
fresh interpreter per step.

    python3 tools/stage_rss.py --workload wav_paper --seed 3 [--checkout DIR]

It builds the workload's corpus into a temporary workspace with the
workload's own configure and setup functions from CHECKOUT/perfbench
(default: the checkout this script is in), then runs the workload's
training stages in order through CHECKOUT's pipeline.run_stage, and then
the classify stage once per mode, as the steps "classify:baseline" and
"classify:vowel". The corpus build and each step run in a child interpreter
of their own, so a step's figure holds only what that step allocates on top
of the imports. For the build ("setup") and for each step it prints one JSON
line:

    {"stage": "transforms", "maxrss_mb": 104.2, "seconds": 0.61}

maxrss_mb is the child's ru_maxrss as os.wait4 reports it. That is what
getrusage(RUSAGE_CHILDREN) reports after a lone child; after several it
reports their maximum instead, so each child is waited for on its own.
BLAS runs on one thread, as in perfbench/run.py. Standard library only in
this process; the children import the checkout's code.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# argv: checkout, workload, seed, step ("stages", "setup", a stage or "stage:mode"),
# workspace root
CHILD = """
import sys
from pathlib import Path

checkout, workload, seed, step, root = sys.argv[1:6]
sys.path[:0] = [str(Path(checkout) / "src"), str(Path(checkout) / "perfbench")]
from workloads import WORKLOADS
from accent_forge import pipeline

work = WORKLOADS[workload]
cfg = work.configure(int(seed))
if step == "stages":
    print(" ".join(work.train_stages(cfg)))
elif step == "setup":
    work.setup(cfg, Path(root), int(seed))
else:
    stage, _, mode = step.partition(":")
    pipeline.run_stage(stage, cfg, pipeline.Workspace(Path(root)), mode=mode or "baseline")
"""


def run_child(checkout, workload, seed, step, root):
    """(stdout, maxrss in MB, seconds) of one child run of CHILD; exits if it fails."""
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(checkout), workload, str(seed), step, str(root)],
        stdout=subprocess.PIPE, text=True, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - start
    if proc.returncode:
        sys.exit("stage_rss: %s failed with exit code %d" % (step, proc.returncode))
    return out, usage.ru_maxrss / 1024.0, seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="wav_paper")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    with tempfile.TemporaryDirectory(prefix="stage_rss_") as tmp:
        root = Path(tmp) / "ws"
        root.mkdir()
        stages, _, _ = run_child(checkout, args.workload, args.seed, "stages", root)
        for step in ["setup"] + stages.split() + ["classify:baseline", "classify:vowel"]:
            _, maxrss_mb, seconds = run_child(checkout, args.workload, args.seed, step, root)
            print(json.dumps({"stage": step, "maxrss_mb": round(maxrss_mb, 1),
                              "seconds": round(seconds, 3)}), flush=True)


if __name__ == "__main__":
    main()
