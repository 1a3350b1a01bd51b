"""accent-forge benchmark: one workload per process, timed end to end.

    python3 perfbench/run.py --workload wav_paper --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all      # every workload, each in a fresh process

A run builds the workload's corpus from --seed and trains the model set
once through pipeline.run_stage. It then runs rounds of classify + evaluate
in both modes for --seconds in all, in three chunks of whole rounds (at
least one round each) separated by two more corpus builds; set-up time is
the median of the three builds. It checks the outputs and prints each
metric by name and unit; the last line of standard output is one JSON
object.

With --trace 1 the run instead installs timing wrappers around the public
functions of every accent_forge module, does exactly one round per chunk,
and reports per-layer metrics; spans go to <workspace>/spans.npz when the
run ends.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
MODES = ("baseline", "vowel")



def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    src = ROOT / "src"
    if not (src / "accent_forge" / "__init__.py").is_file():
        sys.exit("perfbench: no accent_forge sources under %s" % src)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _run_all(args):
    """Each workload in its own fresh interpreter; merged result last."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print("[%s] %s" % (name, line))
        if proc.returncode != 0 or not lines:
            sys.exit("perfbench: workload %s failed with exit code %d" % (name, proc.returncode))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"]["%s.%s" % (name, key)] = value
    print(json.dumps(merged, sort_keys=True))


class Run:
    """One workload in this process: corpus builds, training and rounds.

    The corpus is built SETUP_REPEATS times. The first build is the one the
    run trains on; the others go to a spare directory between chunks of
    rounds, so the rounds are spread over more of the run's wall time and a
    slow spell of the machine weighs on fewer of them.
    """

    def __init__(self, workload, seed, seconds, recorder):
        from accent_forge import pipeline

        self.pipeline = pipeline
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.recorder = recorder
        self.ws_root = WORK / workload.name
        self.spare_root = WORK / (workload.name + ".spare")
        self.bytes_hashed = 0
        self.build_times = []
        self.pass_times = {m: [] for m in MODES}
        self.accuracies = {m: set() for m in MODES}
        self.reports = {}
        self.attempted = 0
        self.failed = 0

    def _stage(self, stage, cfg, mode="baseline"):
        ws = self.pipeline.Workspace(self.ws_root)
        if self.recorder is None:
            return self.pipeline.run_stage(stage, cfg, ws, mode=mode)
        with self.recorder.span("pipeline.%s" % stage):
            result = self.pipeline.run_stage(stage, cfg, ws, mode=mode)
        self.bytes_hashed += _provenance_bytes(self.ws_root, stage)
        return result

    def build(self, cfg, root):
        """One corpus build and split into an empty root; returns the setup info."""
        start = time.perf_counter()
        if root.exists():
            shutil.rmtree(root)
        root.mkdir(parents=True)
        info = self.workload.setup(cfg, root, self.seed)
        self.build_times.append(time.perf_counter() - start)
        return info

    def train(self, cfg):
        """Build the model set; returns per-stage seconds."""
        times = {}
        for stage in self.workload.train_stages(cfg):
            start = time.perf_counter()
            self._stage(stage, cfg)
            times[stage] = time.perf_counter() - start
        return times

    def one_round(self, cfg, test_ids):
        """Classify + evaluate in both modes; returns the seconds spent."""
        spent = 0.0
        for mode in MODES:
            start = time.perf_counter()
            try:
                self._stage("classify", cfg, mode)
                report = self._stage("evaluate", cfg, mode)
                lost = len(test_ids - _prediction_ids(self.ws_root, mode))
            except Exception as exc:  # a failed stage fails all its operations
                print("stage error (%s): %r" % (mode, exc), file=sys.stderr)
                report, lost = None, len(test_ids)
            elapsed = time.perf_counter() - start
            spent += elapsed
            self.pass_times[mode].append(elapsed)
            self.attempted += len(test_ids)
            self.failed += lost
            if report is not None:
                self.accuracies[mode].add(report.accuracy)
                self.reports[mode] = report
        return spent

    def measure(self, cfg, test_ids):
        """Chunks of whole rounds, with the remaining corpus builds between them."""
        for chunk in range(SETUP_REPEATS):
            if chunk:
                self.build(cfg, self.spare_root)
            spent = 0.0
            while True:
                spent += self.one_round(cfg, test_ids)
                if self.recorder is not None or spent >= self.seconds / SETUP_REPEATS:
                    break
        shutil.rmtree(self.spare_root)


def _prediction_ids(ws_root, mode):
    path = ws_root / "reports" / ("predictions_%s.tsv" % mode)
    return {line.split("\t")[0] for line in path.read_text(encoding="utf-8").splitlines()}


def _provenance_bytes(ws_root, stage):
    doc = json.loads((ws_root / "reports/provenance" / ("%s.json" % stage)).read_text())
    total = 0
    for group in ("inputs", "outputs"):
        for rel in doc[group]:
            path = Path(rel)
            total += (path if path.is_absolute() else ws_root / path).stat().st_size
    return total


def _run_one(args):
    from metrics import END_TO_END
    from workloads import WORKLOADS, common_checks

    if args.workload not in WORKLOADS:
        sys.exit("perfbench: unknown workload %r (known: %s)"
                 % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    recorder = None
    if args.trace:
        from metrics import install_wrappers
        from spans import SpanRecorder

        recorder = SpanRecorder()
        install_wrappers(recorder)
    cfg = workload.configure(args.seed)
    config_done = time.perf_counter()

    run = Run(workload, args.seed, args.seconds, recorder)
    info = run.build(cfg, run.ws_root)
    wall_start = time.perf_counter()
    stage_times = run.train(cfg)
    train_s = time.perf_counter() - wall_start
    manifest = run.pipeline.CorpusManifest.load(run.ws_root / "manifest.tsv")
    ws = run.pipeline.Workspace(run.ws_root)
    test_ids = {ws.utt_id(i, e) for i, e in manifest.with_split("test")}
    run.measure(cfg, test_ids)
    setup_s = (config_done - _T0) + statistics.median(run.build_times)
    pass_times, reports, accuracies = run.pass_times, run.reports, run.accuracies

    checks = []
    if len(reports) == len(MODES):
        checks = [("%s accuracy the same in every round" % m, len(accuracies[m]) == 1)
                  for m in MODES]
        checks += common_checks(ws, reports) + workload.checks(cfg, ws, info, reports)
    correct = bool(checks) and all(ok for _, ok in checks)
    for label, ok in checks:
        print("check %s: %s" % ("ok  " if ok else "FAIL", label))

    n_test = len(test_ids)
    medians = {m: statistics.median(pass_times[m]) for m in MODES}
    wall_s = train_s + sum(medians.values())
    print("blas threads %s; rounds %d; test utterances %d; corpus builds %s s"
          % (BLAS_THREADS, len(pass_times[MODES[0]]), n_test,
             " ".join("%.3f" % t for t in run.build_times)))
    print("stage seconds: " + " ".join("%s %.3f" % kv for kv in stage_times.items()))
    print("pass seconds: " + "; ".join(
        "%s %s" % (m, " ".join("%.3f" % t for t in pass_times[m])) for m in MODES))
    if recorder is None:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "train_s": train_s,
            "classify_baseline_utts_per_s": n_test / medians["baseline"],
            "classify_vowel_utts_per_s": n_test / medians["vowel"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy.baseline": reports["baseline"].accuracy if "baseline" in reports else 0.0,
            "accuracy.vowel": reports["vowel"].accuracy if "vowel" in reports else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        from metrics import layer_metrics

        recorder.uninstall()
        print("traced wall_s %.4f s (train %.4f s + median passes)" % (wall_s, train_s))
        metrics = layer_metrics(recorder, run.bytes_hashed)
        recorder.save(run.ws_root / "spans.npz")
    for name, metric in metrics.items():
        print("%s = %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}, sort_keys=True))


def main(argv=None):
    args = _parse_args(argv)
    _import_program()
    if args.workload == "all":
        _run_all(args)
    else:
        _run_one(args)


if __name__ == "__main__":
    main()
