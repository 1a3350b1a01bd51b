"""Paired benchmark runs of two checkouts, summarised into one BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload aff_train \
        --seeds 201..210 --out BENCH_9.json

For each seed it runs `python3 perfbench/run.py --workload W --seed N` once in
each checkout, one run at a time, alternating which checkout goes first, and
reads the JSON object on the last line of each run's standard output. No
length flag is passed: run.py's default run length is the benchmark's own.
--workload takes a comma-separated list; the workloads run one after the
other. The output records the environment (Python, numpy, scipy, BLAS, CPU
count), each checkout's git commit, every run's metrics, and per metric the
medians and quartiles of both sides, how many pairs the change won, and the
acceptance arithmetic, with "better" and "bound" read from
CHANGE_DIR/BENCHMARK.json. It also records each checkout's line counts of
src/accent_forge/*.py, per file and in total, and the change's net delta:
physical lines, and code lines (lines that hold a token other than a
comment, docstrings excluded), so that deleted comments and docstrings do
not read as a smaller program.
After each run it records the sha256 digest of the checkout's
.perfbench-work/<workload>/ tree, and of each of its subtrees features/feat,
features/reduced, models and reports; the summary counts the pairs whose two
trees are byte-identical, and per subtree the pairs whose two subtrees are,
which shows which artifacts an announced change left alone. It also digests
each side's reports/predictions_baseline.tsv and predictions_vowel.tsv and
counts the pairs whose two sides wrote both files byte-identical, as
identical_predictions; every other pair is listed under differing_predictions
with both sides' accuracies. The reports subtree cannot show this, because
its provenance records hash the models. A run that exits
non-zero or whose last line is not a JSON object is recorded as failed
(None), with a message on standard error.
Each run's "stage seconds: vad 0.123 features ..." line is kept under the
result's "stages", and the summary gives each training stage its medians,
quartiles and wins, which shows the stage a change moved. A run without
that line records no stages; it is not a failed run. After the pairs, each
checkout makes one traced run (--trace 1) of the workload at the first seed,
and its per-layer metrics are kept under the workload's "traced".
traced_rows_lost lists each per-layer metric (any traced metric that
BENCHMARK.json does not list as end-to-end) that reads nonzero on the parent
and 0 on the change, or is missing there: a span or counter that a change
routed its work around reads 0, and that is not a speed-up.

Standard library only; it imports nothing from perfbench/.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tokenize
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")
SUBTREES = ("features/feat", "features/reduced", "models", "reports")
PREDICTIONS = ("reports/predictions_baseline.tsv", "reports/predictions_vowel.tsv")
ACCURACIES = ("accuracy.baseline", "accuracy.vowel")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def parse_seeds(text):
    """"A..B" (inclusive) or a single integer, as a list of seeds."""
    first, sep, last = text.partition("..")
    seeds = list(range(int(first), int(last) + 1)) if sep else [int(first)]
    if not seeds:
        raise ValueError("empty seed range %r" % text)
    return seeds


def parse_result(stdout):
    """The JSON object on the last non-empty line of a run's standard output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict):
        raise ValueError("last line is not a JSON object")
    return result


def parse_stage_seconds(stdout):
    """{stage: seconds} from a run's "stage seconds:" line; {} if it printed none."""
    for line in stdout.splitlines():
        if line.startswith("stage seconds:"):
            fields = line[len("stage seconds:"):].split()
            return {name: float(value) for name, value in zip(fields[::2], fields[1::2])}
    return {}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs, rules):
    """Per-metric medians, quartiles, wins and verdicts over the pairs where both runs succeeded.

    runs: [{"seed": n, "parent": result, "change": result, "trees": digests,
    "subtrees": subtree_digests, "predictions": prediction_digests}], each
    result the parsed last line of a run or None for a failed run, the
    optional digests each side's tree_digest of its workspace, the optional
    subtree_digests each side's {subtree: digest}, and the optional
    prediction_digests each side's {predictions file: digest};
    identical_trees counts the runs whose two digests are equal, and
    identical_subtrees the same per subtree that some run's workspace holds.
    identical_predictions counts the runs whose two sides' digests are equal
    for every predictions file, and differing_predictions lists each other
    run with prediction digests by seed, with each side's accuracies. "stages"
    holds the same medians, quartiles and wins (lower is better, no bound)
    for each training stage, over the pairs whose two runs both timed it. rules:
    metric name -> its BENCHMARK.json entry, with "better" ("lower" or
    "higher") and "bound"; metrics not named there get no win count and no
    verdict.

    The verdict states the acceptance arithmetic. median_gain is how far the
    change's median is better than the parent's (negative when worse). A gain
    holds when the change won at least nine tenths of the pairs and
    median_gain exceeds the parent's interquartile range. within_bound holds
    when the change's median is worse than the parent's by no more than
    bound, a fraction of the parent's median.
    """
    complete = [r for r in runs if all(r[side] is not None for side in SIDES)]
    names = sorted(set.intersection(*(set(r[side]["metrics"]) for r in complete
                                       for side in SIDES))) if complete else []
    summary = {}
    for name in names:
        values = {side: [r[side]["metrics"][name]["value"] for r in complete]
                  for side in SIDES}
        unit = complete[0]["change"]["metrics"][name]["unit"]
        summary[name] = _row(values, unit, rules.get(name))
    stages = {}
    for name in dict.fromkeys(n for r in complete for side in SIDES
                              for n in r[side].get("stages", {})):
        timed = [r for r in complete if all(name in r[side].get("stages", {}) for side in SIDES)]
        if timed:
            values = {side: [r[side]["stages"][name] for r in timed] for side in SIDES}
            stages[name] = _row(values, "s", {"better": "lower"})
    digested = [r for r in runs if "subtrees" in r]
    predicted = [r for r in runs if "predictions" in r]
    same_predictions = [all(_same_digest({side: r["predictions"][side][name] for side in SIDES})
                            for name in PREDICTIONS) for r in predicted]
    return {
        "pairs": len(complete),
        "identical_trees": sum(_same_digest(r["trees"]) for r in runs if "trees" in r),
        "identical_subtrees": {
            name: sum(_same_digest({side: r["subtrees"][side][name] for side in SIDES})
                      for r in digested)
            for name in SUBTREES
            if any(r["subtrees"][side][name] is not None for r in digested for side in SIDES)},
        "identical_predictions": sum(same_predictions),
        "differing_predictions": [
            {"seed": r["seed"], "accuracy": {side: _accuracies(r[side]) for side in SIDES}}
            for r, same in zip(predicted, same_predictions) if not same],
        "failed_runs": sum(r[side] is None for r in runs for side in SIDES),
        "all_correct": all(r[side]["correct"] and not r[side]["failed"]
                           for r in complete for side in SIDES),
        "metrics": summary,
        "stages": stages,
    }


def _accuracies(result):
    """A run's accuracy metrics by name, or None for a failed run."""
    if result is None:
        return None
    return {name: result["metrics"][name]["value"] for name in ACCURACIES
            if name in result["metrics"]}


def _same_digest(digests):
    """Whether both sides have a digest and the two are equal."""
    return None not in digests.values() and digests["parent"] == digests["change"]


def _row(values, unit, rule):
    """One metric's medians and quartiles; with a rule, its wins and verdict, and with
    the rule's bound, whether the change stays within it."""
    row = {"unit": unit, "pairs": len(values["parent"])}
    for side in SIDES:
        q1, q3 = _quartiles(values[side])
        row[side] = {"median": statistics.median(values[side]), "q1": q1, "q3": q3}
    row["parent_iqr"] = row["parent"]["q3"] - row["parent"]["q1"]
    parent_median = row["parent"]["median"]
    if parent_median:
        row["median_change_pct"] = (
            100.0 * (row["change"]["median"] - parent_median) / abs(parent_median))
    if rule is not None:
        better, bound = rule["better"], rule.get("bound")
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in zip(values["parent"], values["change"]))
        gain = sign * (parent_median - row["change"]["median"])
        row.update({
            "better": better,
            "change_wins": wins,
            "median_gain": gain,
            "gain_exceeds_parent_iqr": gain > row["parent_iqr"],
            "gain_holds": 10 * wins >= 9 * row["pairs"] and gain > row["parent_iqr"],
        })
        if bound is not None:
            row.update({"bound": bound,
                        "within_bound": -gain <= bound * abs(parent_median)})
    return row


def traced_rows_lost(traced, rules):
    """Sorted names of the per-layer metrics that are nonzero in the parent's traced
    run and 0 or missing in the change's; None if either traced run failed. rules
    names the end-to-end metrics, which are left out."""
    if any(traced[side] is None for side in SIDES):
        return None
    parent, change = (traced[side]["metrics"] for side in SIDES)
    return sorted(name for name, row in parent.items()
                  if name not in rules and row["value"]
                  and not change.get(name, {}).get("value"))


def _git_commit(checkout):
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                          cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    return proc.stdout.strip() or None


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment():
    """Interpreter, library versions, BLAS and CPU count of this machine."""
    probe = ("import json, numpy; deps = numpy.show_config(mode='dicts')"
             "['Build Dependencies']; print(json.dumps(deps.get('blas', {})))")
    proc = subprocess.run([sys.executable, "-c", probe], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    try:
        blas = {key: value for key, value in json.loads(proc.stdout).items()
                if key in ("name", "version", "openblas configuration")}
    except ValueError:
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_once(checkout, workload, seed, trace=False):
    """One benchmark run in checkout, traced if trace is true; the parsed result,
    or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "1"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        print("bench_pairs: %s seed %d failed in %s (exit %d)"
              % (workload, seed, checkout, proc.returncode), file=sys.stderr)
        return None
    try:
        result = parse_result(proc.stdout)
    except ValueError as err:
        print("bench_pairs: %s seed %d in %s printed no result (%s)"
              % (workload, seed, checkout, err), file=sys.stderr)
        return None
    stages = parse_stage_seconds(proc.stdout)
    if stages:
        result["stages"] = stages
    return result


def tree_digest(root):
    """sha256 over the sorted relative paths and file sha256s of a directory tree.

    None if root is not a directory.
    """
    root = Path(root)
    if not root.is_dir():
        return None
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
        digest.update(("%s\0%s\n" % (rel, file_digest(root / rel))).encode("utf-8"))
    return digest.hexdigest()


def file_digest(path):
    """sha256 of a file's bytes, or None if path is not a file."""
    path = Path(path)
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def code_lines(source):
    """Lines of source that hold a token other than a comment, docstrings excluded."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def src_lines(checkout):
    """Line counts of checkout's src/accent_forge/*.py, per file and in total.

    "files" and "total" count physical lines, as wc -l does; "code_files" and
    "code_total" count the lines code_lines counts.
    """
    paths = sorted(Path(checkout, "src", "accent_forge").glob("*.py"))
    files = {path.name: path.read_bytes().count(b"\n") for path in paths}
    code = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in paths}
    return {"files": files, "total": sum(files.values()),
            "code_files": code, "code_total": sum(code.values())}


def _rules(checkout):
    doc = json.loads((Path(checkout) / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in doc.get("end_to_end", [])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    rules = _rules(args.change_dir)
    lines = {side: src_lines(d) for side, d in dirs.items()}
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed N",
        "seeds": args.seeds,
        "env": environment(),
        "commits": {side: _git_commit(d) for side, d in dirs.items()},
        "src_lines": dict(lines, delta=lines["change"]["total"] - lines["parent"]["total"],
                          code_delta=lines["change"]["code_total"]
                          - lines["parent"]["code_total"]),
        "workloads": {},
    }
    for workload in args.workload.split(","):
        runs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"seed": seed, "order": list(order), "trees": {}, "subtrees": {},
                   "predictions": {}}
            for side in order:
                run[side] = run_once(dirs[side], workload, seed)
                root = Path(dirs[side], ".perfbench-work", workload)
                run["trees"][side] = tree_digest(root)
                run["subtrees"][side] = {name: tree_digest(root / name) for name in SUBTREES}
                run["predictions"][side] = {name: file_digest(root / name)
                                            for name in PREDICTIONS}
            runs.append(run)
            print("bench_pairs: %s seed %d done" % (workload, seed), file=sys.stderr)
        traced = {"seed": args.seeds[0]}
        traced.update({side: run_once(dirs[side], workload, args.seeds[0], trace=True)
                       for side in SIDES})
        doc["workloads"][workload] = {"summary": summarize(runs, rules), "runs": runs,
                                      "traced": traced,
                                      "traced_rows_lost": traced_rows_lost(traced, rules)}
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()
