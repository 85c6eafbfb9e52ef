"""Command-line entry point.

Subcommands expose the library operations behind deterministic reports:
`basis`, `mul`, `pair`, `gram`, `verify-ck`, `verify-mck`, `lemma-ok`,
`gamma3`, `euler`, `kimura`, `scan`.  Exit codes: 0 all checks pass,
1 a mathematical check failed, 2 usage or structural error, 3 resource
limit reached.  With --no-timing the reports are byte-identical across
runs.
"""

from __future__ import annotations

import io
import os
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter built without the C accelerator
    from json.encoder import py_encode_basestring_ascii as _quote

from .algebra import ModelParams, basis_count, class_codim, enumerate_basis, multiply
from .calculus import gram, pair, pullback
from .grammar import ParseError, format_class, parse_class
from .kimura import (
    DEFAULT_B_CAP,
    DEFAULT_GRAM_CAP,
    ResourceLimitError,
    scan_injectivity,
    verify_kimura_vanishing,
)
from .motives import (
    ck_projectors,
    euler_char,
    expand_diagonal_times_h,
    solve_gamma3,
    verify_ck,
    verify_mck,
)


class UsageError(Exception):
    pass


# Largest basis `basis` and `gram` build, checked against basis_count first.
BASIS_CAP = 10**6

# Options as (flag, add_argument keywords); every subcommand takes _COMMON first.
# The action "negatable" is argparse.BooleanOptionalAction (--x / --no-x).
_COMMON = (
    ("--profile", {"choices": ["three-quadrics", "double-plane", "custom"], "default": "custom"}),
    ("--n", {"type": int}),
    ("--d", {"type": int}),
    ("--b", {"type": int}),
    ("--delta", {"help": "loop value override, as p or p/q (test-only)"}),
    ("--format", {"choices": ["json", "csv", "text"], "default": "text"}),
    ("--no-timing", {"action": "store_true"}),
)
_M_CODIM = (("--m", {"type": int, "required": True}), ("--codim", {"type": int, "required": True}))
_OPERANDS = (
    ("x", {}),
    ("y", {}),
    ("--m", {"type": int}),
    ("--normalize-input", {"action": "negatable", "default": True}),
)
_CAP_GRAM = ("--cap-gram", {"type": int, "default": DEFAULT_GRAM_CAP})


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone.

    `main` runs the one-command parser on what `_parse_table` declines; it
    names all the subcommands in its usage line, so its errors read as the
    full one's.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="tautring", description=__doc__)
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}" if command else None
    )
    for name in (command,) if command else COMMANDS:
        helptext, options = COMMANDS[name][:2]
        p = sub.add_parser(name, help=helptext)
        p.register("action", "negatable", argparse.BooleanOptionalAction)
        for flag, kwargs in _COMMON + options:
            p.add_argument(flag, **kwargs)
    return parser


def _parse_table(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a complete, well-formed argv, or None.

    Read straight from the option table: an exact command name, exact
    flags (the last of a repeated one wins, as in argparse), every value
    the next token and not starting with '-', ints through int(), choices
    and required options met, and exactly the command's positionals.
    Everything else (help, --x=y, abbreviations, values starting with
    '-', '--', every error) is left to argparse, so what it prints does
    not change.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    values = {"command": argv[0]}
    flags: dict[str, tuple[str, dict]] = {}
    positionals: list[str] = []
    required: list[str] = []
    for flag, kwargs in _COMMON + COMMANDS[argv[0]][1]:
        dest = flag.lstrip("-").replace("-", "_")
        if flag[0] != "-":
            positionals.append(dest)
            continue
        action = kwargs.get("action")
        values[dest] = kwargs.get("default", False if action == "store_true" else None)
        flags[flag] = dest, kwargs
        if action == "negatable":
            flags["--no-" + flag[2:]] = dest, kwargs
        if kwargs.get("required"):
            required.append(dest)
    seen: set[str] = set()
    given: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            given.append(token)
            continue
        if token not in flags:
            return None
        dest, kwargs = flags[token]
        seen.add(dest)
        action = kwargs.get("action")
        if action == "store_true":
            values[dest] = True
        elif action == "negatable":
            values[dest] = not token.startswith("--no-")
        else:
            value = next(tokens, None)
            if value is None or value[:1] == "-":
                return None
            if kwargs.get("type") is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
            values[dest] = value
    if len(given) != len(positionals) or not seen.issuperset(required):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def _resolve_params(args: SimpleNamespace) -> ModelParams:
    n, d, b = args.n, args.d, args.b
    if args.profile == "three-quadrics":
        if d not in (None, 8):
            raise UsageError("profile three-quadrics fixes d = 8")
        d = 8
        if n is None:
            raise UsageError("profile three-quadrics requires --n")
    elif args.profile == "double-plane":
        if n not in (None, 2):
            raise UsageError("profile double-plane fixes n = 2")
        if d not in (None, 2):
            raise UsageError("profile double-plane fixes d = 2")
        n, d = 2, 2
    else:
        if n is None or d is None:
            raise UsageError("profile custom requires --n and --d")
    if b is None:
        raise UsageError("--b is required (no default Betti number is assumed)")
    try:
        delta = Fraction(args.delta) if args.delta is not None else None
    except ZeroDivisionError:
        raise UsageError(f"--delta {args.delta} has a zero denominator") from None
    except TypeError:  # argparse reads --delta=-- as []
        raise UsageError("--delta needs a value, as p or p/q") from None
    return ModelParams(n, d, b, delta)


def _check_basis_cap(params, m, codim):
    """Refuse a basis over BASIS_CAP monomials before building it; inputs
    out of range are left to the library's own errors."""
    if m >= 1 and 0 <= codim <= m * params.n:
        size = basis_count(params, m, codim)
        if size > BASIS_CAP:
            raise ResourceLimitError(
                f"basis at m={m}, codim={codim} has {size} monomials, over the cap {BASIS_CAP}"
            )


def _cmd_basis(args, params):
    _check_basis_cap(params, args.m, args.codim)
    basis = enumerate_basis(params, args.m, args.codim)
    return "pass", {"count": len(basis), "monomials": [mono.canonical_str() for mono in basis]}


def _parse_operands(args, params):
    """Both operands on a common number of factors, which becomes args.m
    (and so the m of the report's inputs)."""
    x = parse_class(args.x, params, m=args.m, normalize=args.normalize_input)
    y = parse_class(args.y, params, m=args.m, normalize=args.normalize_input)
    args.m = m = max(x.m, y.m)
    if x.m < m:
        x = pullback(x, m, tuple(range(1, x.m + 1)))
    if y.m < m:
        y = pullback(y, m, tuple(range(1, y.m + 1)))
    return x, y


def _cmd_mul(args, params):
    x, y = _parse_operands(args, params)
    product = multiply(x, y, params)
    try:
        codim = class_codim(product, params)
    except ValueError:
        codim = None
    return "pass", {"product": format_class(product, params), "codim": codim}


def _cmd_pair(args, params):
    x, y = _parse_operands(args, params)
    return "pass", {"value": str(pair(x, y, params))}


def _cmd_gram(args, params):
    _check_basis_cap(params, args.m, args.codim)
    report = gram(params, args.m, args.codim)
    results = {
        "basis_size": len(report.basis),
        "dual_size": len(report.dual_basis),
        "rank": report.rank,
        "deficiency": len(report.kernel_basis),
        "basis": [mono.canonical_str() for mono in report.basis],
        "kernel": [format_class(cls, params) for cls in report.kernel_basis],
    }
    return "pass", results


def _cmd_verify_ck(args, params):
    report = verify_ck(ck_projectors(params))
    results = {"checks": [c._asdict() for c in report.checks], "passed": report.passed}
    return ("pass" if report.passed else "fail"), results


def _cmd_verify_mck(args, params):
    report = verify_mck(params)
    keys = ("i", "j", "k", "required_zero", "zero", "ok", "detail")  # MckCase's fields
    results = {
        "cases": [dict(zip(keys, case)) for case in report.cases],
        "partition": [p._asdict() for p in report.partition],
        "passed": report.passed,
    }
    return ("pass" if report.passed else "fail"), results


def _cmd_lemma_ok(args, params):
    checks = []
    passed = True
    for factor in (1, 2):
        try:
            product = expand_diagonal_times_h(params, factor)
            checks.append(
                {"factor": factor, "equal": True, "class": format_class(product, params)}
            )
        except ArithmeticError as exc:
            checks.append({"factor": factor, "equal": False, "class": str(exc)})
            passed = False
    results = {"checks": checks, "passed": passed}
    return ("pass" if passed else "fail"), results


def _cmd_gamma3(args, params):
    solution = solve_gamma3(params)
    symmetric = True
    for (i, j, k), value in solution.coefficients.items():
        for perm in ((i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
            if solution.coefficients.get(perm) != value:
                symmetric = False
    residual_zero = solution.residual.is_zero
    results = {
        "coefficients": {
            f"{i},{j},{k}": str(v) for (i, j, k), v in sorted(solution.coefficients.items())
        },
        "residual": format_class(solution.residual, params),
        "residual_zero": residual_zero,
        "symmetric": symmetric,
    }
    passed = residual_zero and symmetric
    return ("pass" if passed else "fail"), results


def _cmd_euler(args, params):
    value = euler_char(params)
    expected = Fraction(params.n + params.b)
    results = {"value": str(value), "expected": str(expected), "match": value == expected}
    return ("pass" if value == expected else "fail"), results


def _cmd_kimura(args, params):
    report = verify_kimura_vanishing(params, cap_b=args.cap_b, cap_gram=args.cap_gram)
    results = report._asdict()
    del results["params"]
    results["delta"] = str(report.delta)
    return ("pass" if report.passed else "fail"), results


def _cmd_scan(args, params):
    table = scan_injectivity(params, args.m_max, cap_gram=args.cap_gram)
    return "pass", {"rows": [row._asdict() for row in table.rows]}


# name -> (help, options after the common ones, handler, table columns,
# table records), in the order of --help.  A handler returns (status,
# results); _table reads the text and CSV rows from the results.
COMMANDS = {
    "basis": ("enumerate a monomial basis", _M_CODIM, _cmd_basis, ("monomial",), "monomials"),
    "mul": ("multiply two classes", _OPERANDS, _cmd_mul, ("product", "codim"), None),
    "pair": ("intersection pairing", _OPERANDS, _cmd_pair, ("value",), None),
    "gram": ("Gram matrix rank and kernel", _M_CODIM, _cmd_gram,
             ("basis_size", "dual_size", "rank", "deficiency"), None),
    "verify-ck": ("projector axioms", (), _cmd_verify_ck, ("name", "ok", "detail"), "checks"),
    "verify-mck": ("multiplicativity of the projectors", (), _cmd_verify_mck,
                   ("i", "j", "k", "required_zero", "zero", "ok"), "cases"),
    "lemma-ok": ("diagonal-times-h expansion", (), _cmd_lemma_ok, ("factor", "equal"), "checks"),
    "gamma3": ("modified small diagonal solve", (), _cmd_gamma3,
               ("i", "j", "k", "coefficient"), "coefficients"),
    "euler": ("Euler characteristic identity", (), _cmd_euler,
              ("value", "expected", "match"), None),
    "kimura": ("alternating relation vanishing",
               (("--cap-b", {"type": int, "default": DEFAULT_B_CAP}), _CAP_GRAM), _cmd_kimura,
               ("b", "delta", "vanishing", "crosscheck_ok", "dual_count"), None),
    "scan": ("injectivity scan of Gram deficiencies",
             (("--m-max", {"type": int, "required": True}), _CAP_GRAM), _cmd_scan,
             ("m", "codim", "basis_size", "rank", "deficiency"), "rows"),
}


def _report_dict(args, params, results, status, timing_ms):
    # the inputs are the command's own options that take a value
    inputs = {}
    for flag, kwargs in COMMANDS[args.command][1]:
        if "action" not in kwargs:
            dest = flag.lstrip("-").replace("-", "_")
            inputs[dest] = getattr(args, dest)
    report = {
        "command": args.command,
        "params": {
            "n": params.n,
            "d": params.d,
            "b": params.b,
            "delta": str(params.delta),
        },
        "inputs": inputs,
        "results": results,
        "status": status,
    }
    if timing_ms is not None:
        report["timing_ms"] = timing_ms
    return report


def _table(report: dict) -> tuple[tuple[str, ...], list[list]]:
    """The columns and rows of a text or CSV report: a row per record, read
    by column (a bare value is the one cell).  The records are the list
    results[records]; with records None, the results themselves unless the
    run stopped at a cap.  gamma3's "i,j,k" -> coefficient map is split
    into cells and sorted by its string keys."""
    columns, records = COMMANDS[report["command"]][3:]
    results = report["results"]
    if records is None:
        records = [] if "error" in results else [results]
    else:
        records = results.get(records, [])
    if isinstance(records, dict):
        return columns, [key.split(",") + [value] for key, value in sorted(records.items())]
    return columns, [[r[c] for c in columns] if isinstance(r, dict) else [r] for r in records]


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    params = report["params"]
    lines.append(
        f"params: n={params['n']} d={params['d']} b={params['b']} delta={params['delta']}"
    )
    if report["inputs"]:
        lines.append(
            "inputs: " + " ".join(f"{k}={v}" for k, v in report["inputs"].items())
        )
    columns, rows = _table(report)
    lines.append("  ".join(columns))
    for row in rows:
        lines.append("  ".join(str(v) for v in row))
    if "error" in report["results"]:
        lines.append(f"error: {report['results']['error']}")
    lines.append(f"status: {report['status']}")
    if "timing_ms" in report:
        lines.append(f"timing_ms: {report['timing_ms']}")
    return "\n".join(lines) + "\n"


def _render_csv(report: dict) -> str:
    import csv

    columns, rows = _table(report)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([columns, *rows])
    return out.getvalue()


# How json.dumps writes each scalar type a report holds (the float is timing_ms).
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _to_json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) for a report: dicts with str keys,
    lists, and the scalar types of _SCALARS.  A scalar member is encoded
    in the loop over its container, not by a call of its own."""
    scalar = _SCALARS.get
    encode = scalar(value.__class__)
    if encode is not None:
        return encode(value)
    inner = indent + "  "
    items = []
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key, item in value.items():
            encode = scalar(item.__class__)
            text = _to_json(item, inner) if encode is None else encode(item)
            items.append(f"{_quote(key)}: {text}")
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        for item in value:
            encode = scalar(item.__class__)
            items.append(_to_json(item, inner) if encode is None else encode(item))
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"{value.__class__.__name__} is not a report value")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_to_json(report) + "\n")
    elif fmt == "csv":
        sys.stdout.write(_render_csv(report))
    else:
        sys.stdout.write(_render_text(report))


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Called without argv, main is the program: it runs sys.argv[1:],
    flushes stdout and stderr and ends the process with os._exit, so
    neither atexit handlers nor module teardown run after the report.
    An exception escaping the command, or a flush that fails, takes the
    normal exit path instead.
    """
    if argv is not None:
        return _run(argv)
    code = _run(sys.argv[1:])
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe or file: the interpreter reports it
        return code
    os._exit(code)


def _run(argv: list[str]) -> int:
    args = _parse_table(argv)
    if args is None:
        parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (None, 0) else 2
    try:
        params = _resolve_params(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handler = COMMANDS[args.command][2]
    start = time.perf_counter()
    try:
        status, results = handler(args, params)
    except ResourceLimitError as exc:
        status, results = "error", {"error": str(exc)}
        if exc.partial is not None:  # the rows a scan finished
            results["rows"] = [row._asdict() for row in exc.partial.rows]
    except (ParseError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ArithmeticError) else 2  # 1: a mathematical check failed
    timing = None if args.no_timing else round((time.perf_counter() - start) * 1000, 3)
    _emit(_report_dict(args, params, results, status, timing), args.format)
    return {"pass": 0, "fail": 1, "error": 3}[status]


if __name__ == "__main__":
    sys.exit(main())
