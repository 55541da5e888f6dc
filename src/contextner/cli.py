"""Command-line pipeline: acquire, weigh, recognize, evaluate, growth.

Exit codes: 0 success, 2 usage or input error, 3 empty result,
4 malformed stored data (manifest, model, TSV).

Each command imports the modules it runs inside its handler, so a
command's start-up loads only what that command uses.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import tsv
from .errors import DataFormatError, EmptyResultError, PipelineError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_DATA = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _step_list(text: str) -> list[int]:
    try:
        steps = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad step list {text!r}, expected e.g. 80,110")
    if not steps:
        raise argparse.ArgumentTypeError("step list is empty")
    return steps


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        tsv.write_text(output, text)
    else:
        sys.stdout.write(text)


def _add_extraction_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--context-len",
        type=_positive_int,
        default=2,
        metavar="N",
        help="context window length in words (default 2)",
    )
    parser.add_argument(
        "--side",
        choices=["left", "right"],
        default="left",
        help="which side of the entity the context sits on (default left)",
    )


def cmd_acquire(args: argparse.Namespace) -> int:
    from .acquire import FixtureClient, acquire, build_queries
    from .corpus import MANIFEST_NAME, CorpusManifest, load_corpus, save_corpus
    from .seeds import load_examples, single_class

    examples = load_examples(args.examples)
    single_class(examples)
    queries = build_queries(examples, args.query_suffix)
    corpus_dir = Path(args.corpus_dir)
    if (corpus_dir / MANIFEST_NAME).is_file():
        existing = load_corpus(corpus_dir)
    else:
        existing = CorpusManifest([])
    client = FixtureClient(args.fixtures)
    result = acquire(
        client, queries, existing, workers=args.workers, max_results=args.max_results
    )
    for failure in result.failures:
        print(failure.message(), file=sys.stderr)
    save_corpus(result.manifest, corpus_dir)
    added = len(result.manifest) - len(existing)
    print(f"{added} new documents, {len(result.manifest)} documents total")
    if result.failures:
        print(f"{len(result.failures)} fetches failed", file=sys.stderr)
    return EXIT_OK


def cmd_weigh(args: argparse.Namespace) -> int:
    from .corpus import load_corpus
    from .seeds import load_examples, single_class
    from .weighting import TableConfig, build_weight_table, format_weight_table

    examples = load_examples(args.examples)
    label = single_class(examples)
    if args.model_dir:
        from .recognize import check_model_update

        check_model_update(args.model_dir, label)
    corpus = load_corpus(args.corpus_dir)
    config = TableConfig(
        context_len=args.context_len, side=args.side, min_count=args.min_count
    )
    table = build_weight_table(corpus, examples, config)
    _emit(format_weight_table(table), args.output)
    if args.model_dir:
        from .recognize import update_model

        update_model(
            args.model_dir,
            label,
            table,
            threshold=args.threshold,
            margin=args.margin,
        )
    print(
        f"{len(table)} contexts, {table.totals.total_with_examples} occurrences",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_recognize(args: argparse.Namespace) -> int:
    from .annotations import format_annotations
    from .corpus import load_corpus
    from .recognize import load_model, recognize_corpus

    model = load_model(
        args.model_dir,
        side=args.side,
        threshold=args.threshold,
        margin=args.margin,
        max_entity_tokens=args.max_entity_tokens,
    )
    corpus = load_corpus(args.corpus_dir)
    annotations = recognize_corpus(corpus, model)
    _emit(format_annotations(annotations), args.output)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .annotations import load_annotations, load_gold
    from .evaluate import evaluate, format_report, write_report

    system = load_annotations(args.annotations)
    gold = load_gold(args.gold)
    report = evaluate(system, gold)
    sys.stdout.write(format_report(report))
    if args.output:
        write_report(report, args.output)
    return EXIT_OK


def cmd_growth(args: argparse.Namespace) -> int:
    from .corpus import load_corpus
    from .seeds import load_examples
    from .weighting import TableConfig, format_growth, growth_curve

    examples = load_examples(args.examples)
    corpus = load_corpus(args.corpus_dir)
    config = TableConfig(context_len=args.context_len, side=args.side)
    points = growth_curve(corpus, examples, args.steps, config)
    _emit(format_growth(points), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextner",
        description=(
            "Learn entity-predicting word contexts from seed examples and"
            " recognize entities in new text by weighted context votes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "acquire", help="build or grow a corpus from search results"
    )
    p.add_argument("examples", help="learning examples TSV (surface, class)")
    p.add_argument("corpus_dir", help="corpus directory to create or extend")
    p.add_argument(
        "--fixtures",
        required=True,
        metavar="DIR",
        help="fixture search-client directory containing queries.tsv",
    )
    p.add_argument(
        "--max-results",
        type=_positive_int,
        default=10,
        metavar="N",
        help="links to keep per query (default 10)",
    )
    p.add_argument(
        "--query-suffix",
        default="",
        metavar="WORDS",
        help="extra words appended to every query (default none)",
    )
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="concurrent fetches (default 1)",
    )
    p.set_defaults(func=cmd_acquire)

    p = sub.add_parser("weigh", help="score contexts for one class's examples")
    p.add_argument("examples", help="learning examples TSV (surface, class)")
    p.add_argument("corpus_dir", help="corpus directory to scan")
    _add_extraction_flags(p)
    p.add_argument(
        "--min-count",
        type=_positive_int,
        default=1,
        metavar="N",
        help="drop contexts seen with examples fewer than N times (default 1)",
    )
    p.add_argument("--output", metavar="PATH", help="weight table TSV (default stdout)")
    p.add_argument(
        "--model-dir",
        metavar="DIR",
        help="also store the table as this class's entry in a model directory",
    )
    p.add_argument(
        "--threshold",
        type=_nonneg_float,
        default=None,
        metavar="X",
        help="decision threshold recorded in the model (default keep/0)",
    )
    p.add_argument(
        "--margin",
        type=_nonneg_float,
        default=None,
        metavar="X",
        help="decision margin recorded in the model (default keep/0)",
    )
    p.set_defaults(func=cmd_weigh)

    p = sub.add_parser("recognize", help="annotate a corpus with a trained model")
    p.add_argument("model_dir", help="model directory (model.tsv plus class tables)")
    p.add_argument("corpus_dir", help="corpus directory to annotate")
    p.add_argument(
        "--side",
        choices=["left", "right"],
        default="left",
        help="side the model's contexts sit on (default left)",
    )
    p.add_argument(
        "--threshold",
        type=_nonneg_float,
        default=None,
        metavar="X",
        help="decision threshold (default: the model's stored value)",
    )
    p.add_argument(
        "--margin",
        type=_nonneg_float,
        default=None,
        metavar="X",
        help="decision margin (default: the model's stored value)",
    )
    p.add_argument(
        "--max-entity-tokens",
        type=_positive_int,
        default=4,
        metavar="N",
        help="longest entity span to consider (default 4)",
    )
    p.add_argument("--output", metavar="PATH", help="annotations TSV (default stdout)")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("evaluate", help="score annotations against a gold file")
    p.add_argument("annotations", help="system annotations TSV")
    p.add_argument("gold", help="gold annotations TSV (doc, start, end, class)")
    p.add_argument("--output", metavar="PATH", help="also write a machine-readable TSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "growth", help="context and occurrence counts over corpus prefixes"
    )
    p.add_argument("examples", help="learning examples TSV (surface, class)")
    p.add_argument("corpus_dir", help="corpus directory to scan")
    p.add_argument(
        "--steps",
        type=_step_list,
        required=True,
        metavar="N,N,...",
        help="increasing prefix sizes, e.g. 80,110",
    )
    _add_extraction_flags(p)
    p.add_argument("--output", metavar="PATH", help="growth TSV (default stdout)")
    p.set_defaults(func=cmd_growth)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EmptyResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
