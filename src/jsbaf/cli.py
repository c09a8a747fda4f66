"""Command-line driver.

Exit codes: 0 success, 1 postulate violation (or oracle mismatch) found,
2 input error, 3 enumeration or search limit exceeded, 141 (128 + SIGPIPE)
stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .arguments import DEFAULT_MAX_ARGUMENTS, construct_arguments
from .dsl import SourceDocument, parse_system, print_system
from .errors import (
    GenerationFailedError,
    InconsistentSystemError,
    JsbafError,
    LimitExceededError,
    ParseError,
    SearchLimitExceededError,
    ValidationError,
)
from .frameworks import flatten_joint_attacks, flatten_one_step
from .oracle import ORACLE_NODE_CAP, brute_force_extensions
from .postulates import (
    DEFAULT_NODE_BOUND, MODES, POSTULATES, Prepared, SystemParams, check_shape, compare_modes,
    evaluate, prepare, random_system,
)
from .reporting import (
    REPORT_FORMATS, emit_apx, emit_dot, report_settings, write_limit_report, write_report,
)
from .semantics import FLATTEN_MODES, SEMANTICS, extension_ids

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_BROKEN_PIPE = 141


def _read_source(path: str) -> SourceDocument:
    """The rule file at ``path``, or stdin for ``-``, decoded as UTF-8 with
    universal newlines.  Stdin is read as bytes when it has a byte buffer,
    so that its decoding does not depend on the locale."""
    name = "<stdin>" if path == "-" else path
    try:
        if path != "-":
            with open(path, encoding="utf-8") as handle:
                return SourceDocument(handle.read(), name)
        raw = getattr(sys.stdin, "buffer", None)
        if raw is None:  # a text stream in place of stdin
            return SourceDocument(sys.stdin.read(), name)
        text = raw.read().decode("utf-8")
        return SourceDocument(text.replace("\r\n", "\n").replace("\r", "\n"), name)
    except OSError as exc:
        raise ValidationError(f"cannot read {name}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {name}: not valid UTF-8 at byte {exc.start}") from exc


def _non_negative_int(text: str) -> int:
    """The argparse type of the size limits."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _add_common(parser, *, semantics=False, flatten=False, max_nodes=False):
    """--file and --max-arguments, plus those of the other shared options
    that the command reads."""
    parser.add_argument("--file", required=True, help="rule file, or - for stdin")
    if semantics:
        parser.add_argument("--semantics", choices=SEMANTICS, default="preferred")
    if flatten:
        parser.add_argument(
            "--flatten", choices=FLATTEN_MODES, default="literal",
            help="how empty-source support bars are treated after flattening",
        )
    parser.add_argument("--max-arguments", type=_non_negative_int, default=DEFAULT_MAX_ARGUMENTS)
    if max_nodes:
        parser.add_argument(
            "--max-nodes", type=_non_negative_int, default=DEFAULT_NODE_BOUND,
            help="refuse complete, stable and preferred search above this node count",
        )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="jsbaf",
        description="Structured argumentation solver with deductive joint support.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="compute extensions, conclusions, postulates")
    _add_common(p_eval, semantics=True, flatten=True, max_nodes=True)
    p_eval.add_argument("--mode", choices=MODES, default="deductive")
    p_eval.add_argument("--report", choices=REPORT_FORMATS, default="json")
    p_eval.add_argument(
        "--allow-inconsistent", action="store_true",
        help="evaluate anyway; postulate verdicts are then out of scope",
    )

    p_flat = sub.add_parser("flatten", help="flatten the joint-support framework of a system")
    _add_common(p_flat, flatten=True)
    p_flat.add_argument("--stage", choices=("one-step", "two-step", "simplified"), default="simplified")
    p_flat.add_argument("--emit", choices=("dot", "apx"), default="dot")

    p_args = sub.add_parser("arguments", help="list the argument store")
    _add_common(p_args)

    p_check = sub.add_parser("check-postulates", help="both modes, all four semantics")
    _add_common(p_check, flatten=True, max_nodes=True)
    p_check.add_argument("--allow-inconsistent", action="store_true")

    p_rand = sub.add_parser("random", help="emit a seeded random consistent system")
    p_rand.add_argument("--seed", type=int, required=True)
    p_rand.add_argument("--atoms", type=int, default=4)
    p_rand.add_argument("--strict", type=int, default=3)
    p_rand.add_argument("--defeasible", type=int, default=3)
    p_rand.add_argument("--max-body", type=int, default=2)
    p_rand.add_argument("--undercut-density", type=float, default=0.2)

    p_oracle = sub.add_parser("oracle", help="cross-check the engine against brute force")
    _add_common(p_oracle, semantics=True, flatten=True)
    p_oracle.add_argument("--mode", choices=MODES, default="deductive")
    p_oracle.add_argument(
        "--oracle-cap", type=_non_negative_int, default=12,
        help=f"refuse frameworks above this node count (hard cap {ORACLE_NODE_CAP})",
    )

    return parser


def _prepare(args, require_consistent: bool) -> Prepared:
    system = parse_system(_read_source(args.file))
    return prepare(system, args.max_arguments, args.flatten, require_consistent)


def _check_flatten_mode(args) -> None:
    """Refuse ``--flatten prune-inert`` where nothing is flattened."""
    if args.mode == "aspic-minus" and args.flatten == "prune-inert":
        raise ValidationError(
            f"--flatten prune-inert applies only to --mode deductive, not --mode {args.mode}"
        )


def _cmd_eval(args) -> int:
    _check_flatten_mode(args)
    settings = report_settings(
        args.semantics, args.mode, args.flatten, args.max_arguments, args.max_nodes
    )
    # The path as typed, each byte of it that is not UTF-8 shown as \xNN, so
    # that the report is UTF-8 whatever the file is called.
    source = os.fsencode(args.file).decode("utf-8", "backslashreplace")
    try:
        prepared = _prepare(args, not args.allow_inconsistent)
        ev = evaluate(prepared, args.semantics, args.mode, args.max_nodes)
    except (LimitExceededError, SearchLimitExceededError) as exc:
        write_limit_report(source, settings, exc, args.report, sys.stdout.write)
        return EXIT_LIMIT
    if write_report(ev, source, settings, args.report, sys.stdout.write):
        return EXIT_OK
    return EXIT_VIOLATION


def _cmd_flatten(args) -> int:
    if args.stage == "one-step" and args.emit == "apx":
        raise ValidationError("APX cannot represent joint attacks; use --emit dot")
    if args.stage != "simplified" and args.flatten == "prune-inert":
        raise ValidationError(
            f"--flatten prune-inert applies only to --stage simplified, not --stage {args.stage}"
        )
    prepared = _prepare(args, False)
    if args.stage == "one-step":
        framework = flatten_one_step(prepared.jsbaf, prepared.shielded)
    elif args.stage == "two-step":
        framework = flatten_joint_attacks(flatten_one_step(prepared.jsbaf, prepared.shielded))
    else:
        framework = prepared.flat
    sys.stdout.write(emit_dot(framework) if args.emit == "dot" else emit_apx(framework))
    return EXIT_OK


def _cmd_arguments(args) -> int:
    system = parse_system(_read_source(args.file))
    store = construct_arguments(system, args.max_arguments)
    for arg in store.arguments:
        sys.stdout.write(
            f"{arg.canonical_id} = {arg.compact}  |  {arg.form}  |  {arg.structure}\n"
        )
    if store.acyclicity_pruned:
        sys.stdout.write("# note: enumeration pruned repeated-conclusion branches\n")
    return EXIT_OK


def _cmd_check_postulates(args) -> int:
    prepared = _prepare(args, not args.allow_inconsistent)
    violated = False
    for semantics in SEMANTICS:
        comparison = compare_modes(prepared, semantics, args.max_nodes)
        for mode in MODES:
            for postulate in POSTULATES:
                holds = comparison.summary[postulate][mode]
                violated = violated or not holds
                state = "satisfied" if holds else "VIOLATED"
                sys.stdout.write(f"{semantics:<9} {mode:<12} {postulate:<21} {state}\n")
    if not prepared.consistent:  # prepare refused it unless --allow-inconsistent
        sys.stdout.write("# note: system is inconsistent; verdicts are out of postulate scope\n")
    return EXIT_VIOLATION if violated else EXIT_OK


# The options of ``random`` and the ``SystemParams`` fields they set.
_SHAPE_OPTIONS = {
    "--atoms": "n_atoms",
    "--strict": "n_strict",
    "--defeasible": "n_defeasible",
    "--max-body": "max_body",
    "--undercut-density": "undercut_density",
}


def _cmd_random(args) -> int:
    shape = {}
    for option, field in _SHAPE_OPTIONS.items():
        shape[field] = getattr(args, option[2:].replace("-", "_"))
        check_shape(field, shape[field], option)
    generated = random_system(SystemParams(**shape), args.seed)
    sys.stdout.write(f"# seed {generated.seed}, attempt {generated.attempts}\n")
    sys.stdout.write(print_system(generated.system))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    _check_flatten_mode(args)
    cap = args.oracle_cap
    if cap > ORACLE_NODE_CAP:
        raise ValidationError(f"--oracle-cap {cap} is above the hard cap {ORACLE_NODE_CAP}")
    prepared = _prepare(args, False)
    searched = prepared.searched(args.mode)
    table = searched.node_table
    if len(table) > cap:
        raise ValidationError(f"framework has {len(table)} nodes, above --oracle-cap {cap}")
    engine = [frozenset(table[i] for i in ext) for ext in extension_ids(searched, args.semantics)]
    brute = brute_force_extensions(searched, args.semantics)
    if engine == brute:
        sys.stdout.write(f"{args.semantics}: OK ({len(engine)} extensions agree)\n")
        return EXIT_OK
    sys.stdout.write(f"{args.semantics}: MISMATCH\n")
    sys.stdout.write(f"  engine: {[sorted(n.label for n in e) for e in engine]}\n")
    sys.stdout.write(f"  oracle: {[sorted(n.label for n in e) for e in brute]}\n")
    return EXIT_VIOLATION


_COMMANDS = {
    "eval": _cmd_eval,
    "flatten": _cmd_flatten,
    "arguments": _cmd_arguments,
    "check-postulates": _cmd_check_postulates,
    "random": _cmd_random,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except (ParseError, ValidationError, InconsistentSystemError, GenerationFailedError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (LimitExceededError, SearchLimitExceededError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_LIMIT
    except JsbafError as exc:  # pragma: no cover
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except BrokenPipeError:
        # The reader of stdout has gone; point stdout at /dev/null, so that
        # the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
