"""Batch command-line interface.

    accent-forge <command> --config <path> --workspace <dir> [--seed N]
                 [--mode baseline|vowel]

Commands are the pipeline stages, one per entry of pipeline.STAGES and in
its order, plus corpus helpers: synth, split, stats, all (the stages of
pipeline.stage_chain), and print-config. Exit codes: 0 success, 2 config
error, 3 missing prerequisite, 1 other pipeline errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import AccentForgeError, ConfigError, MissingPrerequisiteError
from .pipeline import (
    MODES,
    STAGES,
    CorpusManifest,
    Workspace,
    config_to_text,
    corpus_stats,
    generate_synthetic_corpus,
    load_config,
    run_stage,
    split_corpus,
    stage_chain,
)

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="accent-forge",
        description="GMM-UBM accent classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, workspace=True):
        p.add_argument("--config", default=None, help="config file (defaults if omitted)")
        if workspace:
            p.add_argument("--workspace", required=True, help="workspace directory")
        p.add_argument("--seed", type=int, default=None, help="override corpus.seed")

    for stage, (_, stage_help) in STAGES.items():
        p = sub.add_parser(stage, help=stage_help)
        add_common(p)
        if stage in ("classify", "evaluate"):
            p.add_argument("--mode", choices=MODES, default="baseline")

    p = sub.add_parser("synth", help="generate a synthetic corpus into the workspace")
    add_common(p)

    p = sub.add_parser("split", help="assign a 70:15:15 split to a corpus manifest")
    add_common(p)
    p.add_argument("--manifest", required=True, help="input manifest (3 columns)")

    p = sub.add_parser("stats", help="per-accent corpus statistics (needs vad)")
    add_common(p)

    p = sub.add_parser("all", help="run every stage the config enables, then evaluate")
    add_common(p)
    p.add_argument("--mode", choices=MODES, default="baseline")

    p = sub.add_parser("print-config", help="print the effective configuration")
    add_common(p, workspace=False)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            cfg.corpus.seed = args.seed
            cfg.synth.seed = args.seed
            cfg.validate()

        if args.command == "print-config":
            sys.stdout.write(config_to_text(cfg))
            return 0

        ws = Workspace(args.workspace)
        if args.command == "synth":
            ws.root.mkdir(parents=True, exist_ok=True)
            manifest = generate_synthetic_corpus(cfg.synth, ws.root)
            print("synthetic corpus: %d utterances, %d accents -> %s"
                  % (len(manifest.entries), len(manifest.accents()), ws.manifest_path))
            return 0
        if args.command == "split":
            manifest = CorpusManifest.load(args.manifest)
            ws.root.mkdir(parents=True, exist_ok=True)
            split_corpus(manifest, cfg.corpus.seed).save(ws.manifest_path)
            print("split manifest written to %s" % ws.manifest_path)
            return 0
        if args.command == "stats":
            manifest = CorpusManifest.load(ws.manifest_path)
            text = corpus_stats(manifest, ws)
            (ws.dir("reports") / "corpus_stats.txt").write_text(text, encoding="utf-8")
            sys.stdout.write(text)
            return 0
        if args.command == "all":
            for stage in stage_chain(cfg, args.mode):
                print("[accent-forge] stage %s" % stage)
                run_stage(stage, cfg, ws, mode=args.mode)
            report_path = ws.dir("reports") / ("evaluation_%s.txt" % args.mode)
            sys.stdout.write(report_path.read_text(encoding="utf-8"))
            return 0

        result = run_stage(args.command, cfg, ws, mode=getattr(args, "mode", "baseline"))
        if args.command == "evaluate" and result is not None:
            sys.stdout.write(result.to_text())
        if args.command == "calibrate" and result is not None:
            print("calibrated confidence threshold: %r" % result)
        return 0
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except MissingPrerequisiteError as exc:
        print("missing prerequisite: %s" % exc, file=sys.stderr)
        return 3
    except (AccentForgeError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
