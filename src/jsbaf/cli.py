"""Command-line driver.

A canonical command line, the command followed by exact option strings of
its parser, each value option once with a value that is ``-`` or does not
start with ``-`` and passes the option's type and choices, each flag bare,
every required option present, is read straight from the option table of
its parser, the one ``_build_parser`` builds, into the namespace argparse
would make of it.  Every other command line goes to argparse: ``--help``,
abbreviations, ``--opt=value``, repeated options, dash-led values and every
error, so their messages and exit codes are argparse's.

Exit codes: 0 success, 1 postulate violation (or oracle mismatch) found,
2 input error, 3 enumeration or search limit exceeded, 141 (128 + SIGPIPE)
stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

from .arguments import DEFAULT_MAX_ARGUMENTS, construct_arguments
from .dsl import parse_system, print_system
from .errors import JsbafError, LimitExceededError, ValidationError
from .frameworks import flatten_one_step, flatten_two_step
from .oracle import brute_force_extensions
from .postulates import (
    DEFAULT_NODE_BOUND, MODES, POSTULATES, Prepared, SystemParams, check_rule_counts, check_shape,
    evaluate, prepare, random_system,
)
from .reporting import REPORT_FORMATS, emit_apx, emit_dot, write_limit_report, write_report
from .semantics import SEMANTICS, extensions

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_BROKEN_PIPE = 141


def _read_source(path: str) -> str:
    """The rule file at ``path``, or stdin for ``-``, read as bytes and
    decoded as UTF-8, so that the decoding does not depend on the locale.
    ``parse_system`` ends lines at ``\\r\\n``, ``\\r`` and ``\\n`` alike."""
    name = "<stdin>" if path == "-" else path
    try:
        if path != "-":
            with open(path, "rb") as handle:
                data = handle.read()
        elif sys.stdin is None:
            raise ValidationError(f"cannot read {name}: stdin is closed")
        elif hasattr(sys.stdin, "buffer"):
            data = sys.stdin.buffer.read()
        else:  # a text stream in place of stdin
            return sys.stdin.read()
        return data.decode("utf-8")
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


def _add_common(parser, *, semantics=False, max_nodes=False):
    """--file and --max-arguments, plus those of the other shared options
    that the command reads."""
    parser.add_argument("--file", required=True, help="rule file, or - for stdin")
    if semantics:
        parser.add_argument("--semantics", choices=SEMANTICS, default="preferred")
    parser.add_argument("--max-arguments", type=_non_negative_int, default=DEFAULT_MAX_ARGUMENTS)
    if max_nodes:
        parser.add_argument(
            "--max-nodes", type=_non_negative_int, default=DEFAULT_NODE_BOUND,
            help="refuse complete, stable and preferred search above this node count",
        )


# The options of ``random`` and the ``SystemParams`` fields they set; each
# takes its type and default from ``SystemParams()``.
_SHAPE_OPTIONS = {
    "--atoms": "n_atoms",
    "--strict": "n_strict",
    "--defeasible": "n_defeasible",
    "--max-body": "max_body",
    "--undercut-density": "undercut_density",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="jsbaf",
        description="Structured argumentation solver with deductive joint support.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="compute extensions, conclusions, postulates")
    _add_common(p_eval, semantics=True, max_nodes=True)
    p_eval.add_argument("--mode", choices=MODES, default="deductive")
    p_eval.add_argument("--report", choices=REPORT_FORMATS, default="json")
    p_eval.add_argument(
        "--allow-inconsistent", action="store_true",
        help="evaluate anyway; postulate verdicts are then out of scope",
    )

    p_flat = sub.add_parser("flatten", help="flatten the joint-support framework of a system")
    _add_common(p_flat)
    p_flat.add_argument("--stage", choices=("one-step", "two-step", "simplified"), default="simplified")
    p_flat.add_argument("--emit", choices=("dot", "apx"), default="dot")

    p_args = sub.add_parser("arguments", help="list the argument store")
    _add_common(p_args)

    p_check = sub.add_parser("check-postulates", help="both modes, all four semantics")
    _add_common(p_check, max_nodes=True)
    p_check.add_argument("--allow-inconsistent", action="store_true")

    p_rand = sub.add_parser("random", help="emit a seeded random consistent system")
    p_rand.add_argument("--seed", type=int, required=True)
    defaults = SystemParams()
    for option, field in _SHAPE_OPTIONS.items():
        default = getattr(defaults, field)
        p_rand.add_argument(option, type=default.__class__, default=default)

    p_oracle = sub.add_parser("oracle", help="cross-check the engine against brute force")
    _add_common(p_oracle, semantics=True)
    p_oracle.add_argument("--mode", choices=MODES, default="deductive")

    return parser


def _command_parsers() -> dict[str, argparse.ArgumentParser]:
    """Each command's parser, by name."""
    (commands,) = (
        a.choices for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return commands


def _read_canonical(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse makes of a canonical ``argv`` (see the module
    docstring), or None for any other ``argv``, which argparse then reads."""
    parser = _command_parsers().get(argv[0]) if argv else None
    if parser is None:
        return None
    given = {}
    i = 1
    while i < len(argv):
        action = parser._option_string_actions.get(argv[i])
        if action is None or action.dest in given:
            return None
        if isinstance(action, argparse._StoreConstAction):  # a bare flag
            given[action.dest] = action.const
            i += 1
            continue
        if type(action) is not argparse._StoreAction or action.nargs is not None:
            return None
        if i + 1 == len(argv) or argv[i + 1].startswith("-") and argv[i + 1] != "-":
            return None
        try:
            value = argv[i + 1] if action.type is None else action.type(argv[i + 1])
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
        i += 2
    namespace = argparse.Namespace(command=argv[0])
    for action in parser._actions:
        if action.dest in given:
            setattr(namespace, action.dest, given[action.dest])
        elif action.required:
            return None
        elif action.default is not argparse.SUPPRESS:  # -h puts nothing in the namespace
            setattr(namespace, action.dest, action.default)
    return namespace


def _prepare(args, require_consistent: bool) -> Prepared:
    system = parse_system(_read_source(args.file))
    return prepare(system, args.max_arguments, require_consistent)


def _cmd_eval(args) -> int:
    # The path as typed, each byte of it that is not UTF-8 shown as \xNN, so
    # that the report is UTF-8 whatever the file is called.
    source = os.fsencode(args.file).decode("utf-8", "backslashreplace")
    try:
        prepared = _prepare(args, not args.allow_inconsistent)
        ev = evaluate(prepared, args.semantics, args.mode, args.max_nodes)
    except LimitExceededError as exc:
        write_limit_report(source, args.semantics, args.mode, args.max_arguments, args.max_nodes,
                           exc, args.report, sys.stdout.write)
        return EXIT_LIMIT
    if write_report(ev, source, args.report, sys.stdout.write):
        return EXIT_OK
    return EXIT_VIOLATION


def _cmd_flatten(args) -> int:
    if args.stage == "one-step" and args.emit == "apx":
        raise ValidationError("APX cannot represent joint attacks; use --emit dot")
    prepared = _prepare(args, False)
    if args.stage == "one-step":
        framework = flatten_one_step(prepared.jsbaf)
    elif args.stage == "two-step":
        framework = flatten_two_step(prepared.jsbaf)
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
        # Evaluate both modes before printing, so a search bound hit in one
        # prints no row of that semantics.
        evs = [evaluate(prepared, semantics, mode, args.max_nodes) for mode in MODES]
        for mode, ev in zip(MODES, evs):
            for postulate, holds in zip(POSTULATES, ev.holds):
                violated = violated or not holds
                state = "satisfied" if holds else "VIOLATED"
                sys.stdout.write(f"{semantics:<9} {mode:<12} {postulate:<21} {state}\n")
    if not prepared.consistent:  # prepare refused it unless --allow-inconsistent
        sys.stdout.write("# note: system is inconsistent; verdicts are out of postulate scope\n")
    return EXIT_VIOLATION if violated else EXIT_OK


def _cmd_random(args) -> int:
    shape = {}
    for option, field in _SHAPE_OPTIONS.items():
        shape[field] = getattr(args, option[2:].replace("-", "_"))
        check_shape(field, shape[field], option)
    check_rule_counts(shape, {field: option for option, field in _SHAPE_OPTIONS.items()}.get)
    generated = random_system(SystemParams(**shape), args.seed)
    sys.stdout.write(f"# seed {generated.seed}, attempt {generated.attempts}\n")
    sys.stdout.write(print_system(generated.system))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    searched = _prepare(args, False).searched(args.mode)
    brute = brute_force_extensions(searched, args.semantics)  # refuses a framework above its cap
    engine = extensions(searched, args.semantics)
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
    """Run ``argv``, by default ``sys.argv[1:]``; return the exit code.  A
    command makes no reference cycle, so the cyclic collector is paused for
    it, and left as it was found, also when argparse exits."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    args = _read_canonical(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except LimitExceededError as exc:  # either limit of a run
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_LIMIT
    except JsbafError as exc:  # every other error of this package is an input error
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except BrokenPipeError:
        # The reader of stdout has gone; point stdout at /dev/null, so that
        # the flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
