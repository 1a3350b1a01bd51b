"""Tests for tools/bench_pairs.py, on canned result lines and temporary checkouts."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _line(train_s, utts, correct=True, failed=0):
    return json.dumps({
        "attempted": 10, "correct": correct, "failed": failed,
        "metrics": {"train_s": {"unit": "s", "value": train_s},
                    "classify_vowel_utts_per_s": {"unit": "utt/s", "value": utts},
                    "pipeline.weights.s": {"unit": "s", "value": 1.0}},
    })


def _stdout(line):
    return "train_s 1.0 s\nsome other line\n%s\n\n" % line


RULES = {"train_s": {"better": "lower", "bound": 0.2},
         "classify_vowel_utts_per_s": {"better": "higher", "bound": 0.25}}


def test_parse_seeds_and_last_line():
    assert bench_pairs.parse_seeds("201..204") == [201, 202, 203, 204]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("5..4")
    assert bench_pairs.parse_result(_stdout(_line(2.0, 3.0)))["metrics"]["train_s"][
        "value"] == 2.0
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n\n")


def test_summary_medians_quartiles_and_wins():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [6.0, 7.0, 12.0, 6.5, 8.0]
    utts_parent = [100.0, 110.0, 120.0, 130.0, 140.0]
    utts_change = [101.0, 100.0, 125.0, 131.0, 139.0]
    runs = [{"seed": s, "parent": bench_pairs.parse_result(_stdout(_line(p, up))),
             "change": bench_pairs.parse_result(_stdout(_line(c, uc)))}
            for s, p, c, up, uc in zip(range(5), parent, change, utts_parent, utts_change)]
    runs.append({"seed": 5, "parent": bench_pairs.parse_result(_stdout(_line(1.0, 1.0))),
                 "change": None})
    summary = bench_pairs.summarize(runs, RULES)
    assert (summary["pairs"], summary["failed_runs"], summary["all_correct"]) == (5, 1, True)
    train = summary["metrics"]["train_s"]
    assert train["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    assert train["change"] == {"median": 7.0, "q1": 6.5, "q3": 8.0}
    assert train["change_wins"] == 4 and train["better"] == "lower"
    assert train["median_change_pct"] == pytest.approx(-100.0 * 5.0 / 12.0)
    assert train["unit"] == "s" and train["pairs"] == 5
    utts = summary["metrics"]["classify_vowel_utts_per_s"]
    assert utts["change_wins"] == 3 and utts["better"] == "higher"
    assert "change_wins" not in summary["metrics"]["pipeline.weights.s"]


def test_summary_flags_incorrect_runs():
    runs = [{"seed": 1, "parent": json.loads(_line(1.0, 1.0)),
             "change": json.loads(_line(1.0, 1.0, failed=2))}]
    assert not bench_pairs.summarize(runs, RULES)["all_correct"]
    assert bench_pairs.summarize([{"seed": 1, "parent": None, "change": None}],
                                 RULES)["metrics"] == {}


def test_summary_states_the_acceptance_verdict():
    def runs_of(parent, change):
        return [{"seed": i, "parent": json.loads(_line(p, 1.0)),
                 "change": json.loads(_line(c, 1.0))}
                for i, (p, c) in enumerate(zip(parent, change))]

    parent = [10.0 + 0.1 * i for i in range(10)]  # median 10.45, IQR 0.45
    gain = bench_pairs.summarize(runs_of(parent, [p - 1.0 for p in parent]), RULES)
    train = gain["metrics"]["train_s"]
    assert train["parent_iqr"] == pytest.approx(0.45)
    assert train["median_gain"] == pytest.approx(1.0)
    assert train["gain_exceeds_parent_iqr"] and train["gain_holds"]
    assert train["bound"] == 0.2 and train["within_bound"]
    assert "parent_iqr" in gain["metrics"]["pipeline.weights.s"]
    assert "gain_holds" not in gain["metrics"]["pipeline.weights.s"]

    # wins 9 of 10 but the gap is inside the parent's spread: no gain, still in bound
    change = [p - 0.3 for p in parent[:9]] + [parent[9] + 0.1]
    train = bench_pairs.summarize(runs_of(parent, change), RULES)["metrics"]["train_s"]
    assert train["change_wins"] == 9
    assert not train["gain_exceeds_parent_iqr"] and not train["gain_holds"]
    assert train["within_bound"]

    # 25% slower than the parent: worse than the 0.2 bound
    train = bench_pairs.summarize(runs_of(parent, [1.25 * p for p in parent]),
                                  RULES)["metrics"]["train_s"]
    assert train["median_gain"] < 0 and not train["within_bound"]
    assert not train["gain_holds"]


@pytest.mark.parametrize("stdout", ["Traceback (most recent call last):\nKeyError: 3\n",
                                    "", "train_s 1.0 s\n42\n"])
def test_run_without_a_result_line_is_a_failed_run(monkeypatch, capsys, stdout):
    def canned(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout)

    monkeypatch.setattr(bench_pairs.subprocess, "run", canned)
    assert bench_pairs.run_once("/nowhere", "aff_score", 7) is None
    assert "aff_score seed 7 in /nowhere printed no result" in capsys.readouterr().err
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, **kwargs:
                        subprocess.CompletedProcess(cmd, 0, stdout=_stdout(_line(2.0, 3.0))))
    assert bench_pairs.run_once("/nowhere", "aff_score", 7)["metrics"]["train_s"]["value"] == 2.0


def test_bench_file_records_each_checkouts_src_lines(monkeypatch, tmp_path):
    documented = ('"""Doc.\n\nMore."""\n# a comment line\ndef f():\n    """One line."""\n'
                  '    return (1,\n            2)  # a trailing comment\n')
    sources = {"parent": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"},
               "change": {"a.py": "x = 1\n", "c.py": "\n\n\n\n", "d.py": documented,
                          "notes.txt": "1\n2\n"}}
    for side, files in sources.items():
        package = tmp_path / side / "src" / "accent_forge"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, seed, trace=False:
                        json.loads(_line(1.0, 1.0)))
    monkeypatch.setattr(bench_pairs, "environment", lambda: {})
    out = tmp_path / "BENCH.json"
    bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                      "--workload", "aff_score", "--seeds", "1", "--out", str(out)])
    # d.py: 8 physical lines, of which 3 hold code (def, return and its continuation)
    assert json.loads(out.read_text())["src_lines"] == {
        "parent": {"files": {"a.py": 2, "b.py": 1}, "total": 3,
                   "code_files": {"a.py": 2, "b.py": 1}, "code_total": 3},
        "change": {"files": {"a.py": 1, "c.py": 4, "d.py": 8}, "total": 13,
                   "code_files": {"a.py": 1, "c.py": 0, "d.py": 3}, "code_total": 4},
        "delta": 10,
        "code_delta": 1,
    }


def test_tree_digests_count_the_byte_identical_pairs(monkeypatch, tmp_path):
    def write_tree(root, files):
        for rel, data in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(data)

    files = {"models/ubm.agm": b"\x00\x01", "reports/eval.json": b"{}\n", "a": b""}
    for side in ("parent", "change"):
        write_tree(tmp_path / side, files)
    digest = bench_pairs.tree_digest(tmp_path / "parent")
    assert digest == bench_pairs.tree_digest(tmp_path / "change")
    assert bench_pairs.tree_digest(tmp_path / "missing") is None
    (tmp_path / "change" / "a").write_bytes(b"\n")  # one changed byte
    assert bench_pairs.tree_digest(tmp_path / "change") != digest
    (tmp_path / "change" / "a").write_bytes(b"")
    (tmp_path / "change" / "a").rename(tmp_path / "change" / "b")  # same bytes, renamed
    assert bench_pairs.tree_digest(tmp_path / "change") != digest

    # main digests each side's .perfbench-work/<workload>/ tree after each run
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "accent_forge").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))

    def fake_run(checkout, workload, seed, trace=False):
        tree = {"out.bin": bytes([seed])}
        if seed == 2 and checkout.endswith("change"):
            tree["extra"] = b"x"
        root = Path(checkout, ".perfbench-work", workload)
        shutil.rmtree(root, ignore_errors=True)  # run.py rebuilds the workspace each run
        write_tree(root, tree)
        return json.loads(_line(1.0, 1.0))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "environment", lambda: {})
    out = tmp_path / "BENCH.json"
    bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                      "--workload", "aff_score", "--seeds", "1..3", "--out", str(out)])
    doc = json.loads(out.read_text())["workloads"]["aff_score"]
    assert doc["summary"]["identical_trees"] == 2
    trees = [run["trees"] for run in doc["runs"]]
    assert [t["parent"] == t["change"] for t in trees] == [True, False, True]
    assert trees[0]["parent"] != trees[2]["parent"]


STAGE_STDOUT = ("check ok  : baseline accuracy the same in every round\n"
                "stage seconds: vad 0.010 features 0.500 ubm %.3f adapt 0.250\n"
                "pass seconds: baseline 0.100; vowel 0.200\n%s\n")


def test_stage_seconds_give_per_stage_rows(monkeypatch):
    assert bench_pairs.parse_stage_seconds(STAGE_STDOUT % (2.5, "{}")) == {
        "vad": 0.01, "features": 0.5, "ubm": 2.5, "adapt": 0.25}
    assert bench_pairs.parse_stage_seconds(_stdout(_line(1.0, 1.0))) == {}

    outputs = {}
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, cwd, **kwargs:
                        subprocess.CompletedProcess(cmd, 0, stdout=outputs[cwd]))
    runs = []
    parent_ubm, change_ubm = [2.5, 2.7, 2.6, 2.4], [1.7, 1.8, 2.8, 1.6]
    for seed, (p, c) in enumerate(zip(parent_ubm, change_ubm)):
        outputs["parent"] = STAGE_STDOUT % (p, _line(10.0, 1.0))
        outputs["change"] = STAGE_STDOUT % (c, _line(9.0, 1.0))
        runs.append({"seed": seed, **{side: bench_pairs.run_once(side, "aff_score", seed)
                                      for side in bench_pairs.SIDES}})
    assert runs[0]["parent"]["stages"]["ubm"] == 2.5
    # a run without the line records no stages and is not a failed run
    outputs["change"] = _stdout(_line(9.0, 1.0))
    runs.append({"seed": 9, "parent": bench_pairs.run_once("parent", "aff_score", 9),
                 "change": bench_pairs.run_once("change", "aff_score", 9)})
    assert "stages" not in runs[-1]["change"]

    summary = bench_pairs.summarize(runs, RULES)
    assert (summary["pairs"], summary["failed_runs"]) == (5, 0)
    assert list(summary["stages"]) == ["vad", "features", "ubm", "adapt"]
    ubm = summary["stages"]["ubm"]
    assert ubm["pairs"] == 4 and ubm["unit"] == "s" and ubm["better"] == "lower"
    assert ubm["parent"]["median"] == pytest.approx(2.55)
    assert ubm["change"]["median"] == pytest.approx(1.75)
    assert ubm["change_wins"] == 3 and not ubm["gain_holds"]
    assert "within_bound" not in ubm
    assert summary["stages"]["vad"]["change_wins"] == 0
    assert bench_pairs.summarize(runs[-1:], RULES)["stages"] == {}


def test_subtree_digests_count_the_byte_identical_pairs_per_subtree(monkeypatch, tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "accent_forge").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))

    def fake_run(checkout, workload, seed, trace=False):
        change = checkout.endswith("change")
        tree = {"features/feat/u1.aff": b"feat", "features/reduced/u1.aff": b"red",
                "models/ubm.agm": b"ubm", "reports/eval.json": b"{}",
                "manifest.tsv": bytes([seed])}
        if change:  # an announced change: the reduced features and the models move
            tree["features/reduced/u1.aff"] = b"red2"
            tree["models/ubm.agm"] = b"ubm2"
            if seed == 2:
                tree["features/feat/u2.aff"] = b"new"
                del tree["reports/eval.json"]
        root = Path(checkout, ".perfbench-work", workload)
        shutil.rmtree(root, ignore_errors=True)
        for rel, data in tree.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(data)
        return json.loads(_line(1.0, 1.0))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "environment", lambda: {})
    out = tmp_path / "BENCH.json"
    bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                      "--workload", "wav_paper", "--seeds", "1..3", "--out", str(out)])
    doc = json.loads(out.read_text())["workloads"]["wav_paper"]
    assert doc["summary"]["identical_trees"] == 0
    assert doc["summary"]["identical_subtrees"] == {
        "features/feat": 2, "features/reduced": 0, "models": 0, "reports": 2}
    # a subtree missing on one side is a digest of None, never identical
    assert doc["runs"][1]["subtrees"]["change"]["reports"] is None
    assert doc["runs"][1]["subtrees"]["parent"]["reports"] is not None

    # a subtree that no run's workspace holds gets no count
    runs = [{side: run[side] for side in ("seed", "parent", "change", "trees", "subtrees")}
            for run in doc["runs"]]
    for run in runs:
        for side in ("parent", "change"):
            run["subtrees"][side]["features/reduced"] = None
    assert "features/reduced" not in bench_pairs.summarize(runs, {})["identical_subtrees"]


def test_prediction_digests_count_the_pairs_with_identical_predictions(monkeypatch, tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "accent_forge").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))

    def fake_run(checkout, workload, seed, trace=False):
        change = checkout.endswith("change")
        # the provenance records hash the models, so reports/ differs on every pair
        tree = {"models/ubm.agm": b"ubm2" if change else b"ubm",
                "reports/provenance/classify.json": b"ubm2" if change else b"ubm",
                "reports/predictions_baseline.tsv": b"u1\ta\n",
                "reports/predictions_vowel.tsv": b"u1\tb\n"}
        vowel = 0.5
        if change and seed == 2:
            tree["reports/predictions_vowel.tsv"] = b"u1\ta\n"
            vowel = 0.25
        if change and seed == 3:
            del tree["reports/predictions_baseline.tsv"]
        root = Path(checkout, ".perfbench-work", workload)
        shutil.rmtree(root, ignore_errors=True)
        for rel, data in tree.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(data)
        result = json.loads(_line(1.0, 1.0))
        result["metrics"].update({"accuracy.baseline": {"unit": "fraction", "value": 0.75},
                                  "accuracy.vowel": {"unit": "fraction", "value": vowel}})
        return result

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "environment", lambda: {})
    out = tmp_path / "BENCH.json"
    bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                      "--workload", "aff_score", "--seeds", "1..4", "--out", str(out)])
    doc = json.loads(out.read_text())["workloads"]["aff_score"]
    summary = doc["summary"]
    assert summary["identical_subtrees"]["reports"] == 0
    assert summary["identical_predictions"] == 2
    assert summary["differing_predictions"] == [
        {"seed": 2, "accuracy": {"parent": {"accuracy.baseline": 0.75, "accuracy.vowel": 0.5},
                                 "change": {"accuracy.baseline": 0.75,
                                            "accuracy.vowel": 0.25}}},
        {"seed": 3, "accuracy": {"parent": {"accuracy.baseline": 0.75, "accuracy.vowel": 0.5},
                                 "change": {"accuracy.baseline": 0.75, "accuracy.vowel": 0.5}}},
    ]
    # a predictions file missing on one side is a digest of None, never identical
    assert doc["runs"][2]["predictions"]["change"]["reports/predictions_baseline.tsv"] is None
    # a failed run has no accuracies
    runs = [dict(run, change=None) if run["seed"] == 2 else run for run in doc["runs"]]
    assert bench_pairs.summarize(runs, {})["differing_predictions"][0]["accuracy"][
        "change"] is None


TRACED_STDOUT = ("stage seconds: vad 0.100 features 1.000 transforms 2.000\n"
                 "traced wall_s 9.0 s (train 7.0 s + median passes)\n"
                 "frontend.feature_warp.s = 1.38 s\n%s\n")


def test_traced_run_per_side_at_the_first_seed(monkeypatch, tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "accent_forge").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    commands = []

    def canned(cmd, cwd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 1, stdout="")
        commands.append((Path(cwd).name, cmd[2:]))
        if "--trace" not in cmd:
            return subprocess.CompletedProcess(cmd, 0, stdout=_stdout(_line(5.0, 1.0)))
        warp = 1.38 if Path(cwd).name == "parent" else 0.6
        line = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
            "frontend.feature_warp.s": {"unit": "s", "value": warp},
            "transforms.fit_hlda.iters": {"unit": "count", "value": 20}}})
        return subprocess.CompletedProcess(cmd, 0, stdout=TRACED_STDOUT % line)

    monkeypatch.setattr(bench_pairs.subprocess, "run", canned)
    monkeypatch.setattr(bench_pairs, "environment", lambda: {})
    out = tmp_path / "BENCH.json"
    bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                      "--workload", "wav_paper", "--seeds", "7..8", "--out", str(out)])
    workload = json.loads(out.read_text())["workloads"]["wav_paper"]
    traced = workload["traced"]
    assert traced["seed"] == 7
    assert traced["parent"]["metrics"]["frontend.feature_warp.s"]["value"] == 1.38
    assert traced["change"]["metrics"]["frontend.feature_warp.s"]["value"] == 0.6
    assert traced["change"]["stages"] == {"vad": 0.1, "features": 1.0, "transforms": 2.0}
    # two untraced runs per pair, then one traced run per side at the first seed
    traced_cmds = [(side, args) for side, args in commands if "--trace" in args]
    assert sorted(side for side, _ in traced_cmds) == ["change", "parent"]
    assert all(args[args.index("--seed") + 1] == "7" and args[-2:] == ["--trace", "1"]
               for _, args in traced_cmds)
    assert len(commands) == 6 and commands[-2:] == traced_cmds
    assert workload["summary"]["pairs"] == 2
    assert "frontend.feature_warp.s" not in workload["summary"]["metrics"]


def test_traced_rows_lost_names_the_per_layer_rows_that_read_0_on_the_change(
        monkeypatch, tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "accent_forge").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "train_s", "better": "lower", "bound": 0.2}]}))
    values = {"parent": {"gmm.log_component_densities.s": 0.4,
                         "gmm.log_component_densities.evals": 120,
                         "gmm.loglik.s": 0.0, "gmm.em_train.s": 0.3,
                         "classify.hellinger_gmm.samples": 5, "train_s": 2.0},
              "change": {"gmm.log_component_densities.s": 0.0,
                         "gmm.log_component_densities.evals": 0,
                         "gmm.loglik.s": 0.0, "gmm.em_train.s": 0.1, "train_s": 0.0}}

    def fake_run(checkout, workload, seed, trace=False):
        if not trace:
            return json.loads(_line(1.0, 1.0))
        side = Path(checkout).name
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": {
            name: {"unit": "s", "value": value} for name, value in values[side].items()}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "environment", lambda: {})
    out = tmp_path / "BENCH.json"
    bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                      "--workload", "aff_score", "--seeds", "1..2", "--out", str(out)])
    workload = json.loads(out.read_text())["workloads"]["aff_score"]
    # a row missing on the change counts as lost; an end-to-end metric does not
    assert workload["traced_rows_lost"] == ["classify.hellinger_gmm.samples",
                                            "gmm.log_component_densities.evals",
                                            "gmm.log_component_densities.s"]
    same = {"seed": 1, "parent": fake_run("parent", "w", 1, True),
            "change": fake_run("parent", "w", 1, True)}
    assert bench_pairs.traced_rows_lost(same, {}) == []
    assert bench_pairs.traced_rows_lost(dict(same, change=None), {}) is None
