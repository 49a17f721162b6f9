"""Command-line front end.

Subcommands: ``restructure``, ``validate``, ``metrics``, ``generate``.
Exit codes: 0 success, 1 validation/model failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import logging
import os
import secrets
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .engine import EngineOptions, restructure
from .errors import ModelError
from .generate import Family, GeneratorSpec, element_count, generate_model
from .metrics import MetricsSnapshot, effectiveness, snapshot
from .modelfile import load_model, save_model

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pullup",
        description="Pull duplicated class-model attributes into superclasses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("restructure", help="transform a model file")
    p.add_argument("input", help="input model file")
    p.add_argument("-o", "--output", required=True, help="output model file")
    p.add_argument(
        "--multi-inheritance",
        action="store_true",
        help="run the duplication-eliminating multiple-inheritance pass",
    )
    p.add_argument(
        "--min-subclasses",
        type=_positive_int,
        default=2,
        metavar="N",
        help="rule-1 guard: minimum subclasses sharing the keys (default 2)",
    )
    p.add_argument(
        "--max-iterations",
        type=_positive_int,
        default=None,
        metavar="N",
        help="abort if the fixpoint needs more than N outer passes",
    )
    p.add_argument(
        "--metrics", action="store_true", help="print a before/after report"
    )
    p.add_argument(
        "--trace", action="store_true", help="log each rule application to stderr"
    )

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("input")

    p = sub.add_parser("metrics", help="print model metrics")
    p.add_argument("input")

    p = sub.add_parser("generate", help="generate a synthetic model")
    p.add_argument(
        "--family",
        required=True,
        choices=[f.value for f in Family],
    )
    p.add_argument("--scale", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    return parser


def _print_snapshot(label: str, snap: MetricsSnapshot) -> None:
    print(f"{label}:")
    print(f"  entities       {snap.entity_count}")
    print(f"  declarations   {snap.declaration_count}")
    print(f"  duplications   {snap.duplication_count}")
    print(f"  top-level      {snap.top_level_count}")
    print(f"  max depth      {snap.max_inheritance_depth}")


def _write_atomically(path: Path, data: bytes) -> None:
    """Write ``data`` to a new file next to ``path``, then rename it over
    ``path``: a reader, or a crash, sees the old file or the whole new one,
    never part of it."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    f = open(tmp, "xb")  # a fresh name, created with the usual permissions
    try:
        with f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cmd_restructure(args: argparse.Namespace) -> int:
    model = load_model(Path(args.input).read_bytes())
    options = EngineOptions(
        multi_inheritance=args.multi_inheritance,
        min_subclasses=args.min_subclasses,
        max_iterations=args.max_iterations,
    )
    if args.trace:
        logging.basicConfig(stream=sys.stderr)
        logging.getLogger("pullup.engine").setLevel(logging.DEBUG)
    start = time.perf_counter()
    report = restructure(model, options)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    _write_atomically(Path(args.output), save_model(model))
    if args.metrics:
        _print_snapshot("before", report.metrics_before)
        _print_snapshot("after", report.metrics_after)
        eff = effectiveness(report.metrics_before, report.metrics_after)
        eff_text = "n/a (no duplication)" if eff is None else f"{eff:.1%}"
        print(f"effectiveness    {eff_text}")
        print(f"new classes      {report.new_class_count}")
        print(f"rule firings     {len(report.applications)}")
        print(f"iterations       {report.iterations}")
        print(f"time             {elapsed_ms:.0f} ms")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    model = load_model(Path(args.input).read_bytes())
    violations = model.validate()
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return EXIT_FAILURE
    print("OK")
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    model = load_model(Path(args.input).read_bytes())
    _print_snapshot("metrics", snapshot(model))
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(Family(args.family), args.scale, args.seed)
    model = generate_model(spec)
    _write_atomically(Path(args.output), save_model(model))
    print(f"elements         {element_count(model)}")
    return EXIT_OK


_COMMANDS = {
    "restructure": _cmd_restructure,
    "validate": _cmd_validate,
    "metrics": _cmd_metrics,
    "generate": _cmd_generate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ModelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
