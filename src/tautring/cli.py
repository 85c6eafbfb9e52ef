"""The tautring command line.

Subcommands expose the library operations behind deterministic reports:
`basis`, `mul`, `pair`, `gram`, `verify-ck`, `verify-mck`, `lemma-ok`,
`gamma3`, `euler`, `kimura`, `scan`.  Exit codes: 0 all checks pass,
1 a mathematical check failed, 2 usage or structural error, 3 resource
limit reached.  With --no-timing the reports are byte-identical across
runs.
"""

import io
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter built without the C accelerator
    from json.encoder import py_encode_basestring_ascii as _quote

from .algebra import (ModelParams, ResourceLimitError, _check_cap, basis_count, class_codim,
                      enumerate_basis, multiply)
from .calculus import gram, pair, pullback
from .grammar import format_class, format_fraction, parse_class
from .kimura import DEFAULT_B_CAP, DEFAULT_GRAM_CAP, scan_injectivity, verify_kimura_vanishing
from .motives import (
    ck_projectors,
    euler_char,
    expand_diagonal_times_h,
    solve_gamma3,
    verify_ck,
    verify_mck,
)


class UsageError(ValueError):
    pass


# Largest basis `basis` and `gram` build, checked against basis_count first.
BASIS_CAP = 10**6
# Most factors a command works on: the m of `basis` and `gram`, the common m
# of `mul` and `pair` operands.  Basis enumeration recurses once per factor.
FACTOR_CAP = 256

# The values each --profile fixes.
_PROFILES = {"three-quadrics": {"d": 8}, "double-plane": {"n": 2, "d": 2}, "custom": {}}

# Options as (flag, keywords): a flag without '-' is an operand; "type" int
# reads the value through int(); the action "store_true" takes no value.
# Every subcommand takes _COMMON first.
_COMMON = (
    ("--profile", {"choices": list(_PROFILES), "default": "custom"}),
    ("--n", {"type": int}),
    ("--d", {"type": int}),
    ("--b", {"type": int, "help": "middle Betti number; three-quadrics: n*n + 5*n + 8 if omitted"}),
    ("--delta", {"help": "loop value override, as p or p/q (test-only)"}),
    ("--format", {"choices": ["json", "csv", "text"], "default": "text"}),
    ("--no-timing", {"action": "store_true"}),
)
_M_CODIM = (("--m", {"type": int, "required": True}), ("--codim", {"type": int, "required": True}))
_OPERANDS = (
    ("x", {}),
    ("y", {}),
    ("--m", {"type": int}),
    ("--no-normalize-input", {"action": "store_true", "help": "operands must be in normal form"}),
)
_CAP_GRAM = ("--cap-gram", {"type": int, "default": DEFAULT_GRAM_CAP})
_HELP = ("-h", "--help")


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """The namespace of an argv, or the help page it asks for.

    Read against the option table, left to right: the command first,
    then exact flags (the last of a repeated one wins), each value given
    as --flag=value or as the next token if that does not start with
    '-', ints through int(), choices met.  Other tokens are operands, as
    is everything after '--'.  A bad value raises UsageError at once; an
    unknown option, a wrong number of operands or a missing required
    option only at the end, so that a later -h or --help still answers.
    """
    if argv[:1] and argv[0] in _HELP:
        return _help(COMMANDS)
    if not argv or argv[0] not in COMMANDS:
        given = f", not {argv[0]!r}" if argv else ""
        raise UsageError(f"the command must be one of {', '.join(COMMANDS)}{given}")
    name = argv[0]
    values = {"command": name}
    flags: dict[str, tuple[str, dict]] = {}
    positionals: list[str] = []
    required: dict[str, str] = {}  # dest -> flag, until given
    for flag, kwargs in _COMMON + COMMANDS[name].options:
        dest = flag.lstrip("-").replace("-", "_")
        if flag[0] != "-":
            positionals.append(dest)
            continue
        values[dest] = kwargs.get("default", False if "action" in kwargs else None)
        flags[flag] = dest, kwargs
        if kwargs.get("required"):
            required[dest] = flag
    unknown: list[str] = []
    given: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            given.append(token)
            continue
        if token == "--":
            given.extend(tokens)
            break
        if token in _HELP:
            return _help({name: COMMANDS[name]})
        flag, eq, value = token.partition("=")
        if flag not in flags:
            unknown.append(token)
            continue
        dest, kwargs = flags[flag]
        required.pop(dest, None)
        if "action" in kwargs:
            if eq:
                raise UsageError(f"{flag} takes no value")
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value[:1] == "-":
                hint = "" if value is None else f", given as {flag}=VALUE if it starts with '-'"
                raise UsageError(f"{flag} needs a value{hint}")
        if kwargs.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{flag} needs an integer, not {value!r}") from None
        if "choices" in kwargs and value not in kwargs["choices"]:
            raise UsageError(f"{flag} must be one of {', '.join(kwargs['choices'])}, not {value!r}")
        values[dest] = value
    if unknown:
        token = unknown[0]
        quoted = repr(token) if len(token) <= 40 else f"{token[:40]!r}... ({len(token)} characters)"
        hint = "" if token[1:2] == "-" else (
            "; every option is a -- flag or -h, so an operand that begins with '-' goes after '--'")
        raise UsageError(f"{name} has no option {quoted}{hint}")
    if len(given) != len(positionals):
        raise UsageError(f"{name} takes {len(positionals)} operands, not {len(given)}")
    if required:
        raise UsageError(f"{name} requires {' and '.join(required.values())}")
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def _help(commands: dict) -> str:
    """The help page of the given commands, read from the option table."""
    lines = ["usage: tautring COMMAND [OPERANDS] [OPTIONS]", "", __doc__ or "", "commands:"]
    for name, command in commands.items():
        operands = [flag.upper() for flag, _ in command.options if flag[0] != "-"]
        lines += [f"  {' '.join([name, *operands])}  {command.help}",
                  *_option_lines(command.options, "      ")]
    lines += ["options of every command:", *_option_lines(_COMMON, "  "), "  -h, --help  this page"]
    return "\n".join(lines) + "\n"


def _option_lines(options, indent: str) -> list[str]:
    lines = []
    for flag, kwargs in options:
        if flag[0] != "-":
            continue
        if "action" not in kwargs:
            flag += " " + "|".join(kwargs.get("choices", ["INT" if kwargs.get("type") else "VALUE"]))
        note = "  (required)" if kwargs.get("required") else ""
        if kwargs.get("default") is not None:
            note = f"  (default: {kwargs['default']})"
        lines.append(f"{indent}{flag}{note}  {kwargs.get('help', '')}".rstrip())
    return lines


def _resolve_params(args: SimpleNamespace) -> ModelParams:
    fixed = _PROFILES[args.profile]
    for key, value in fixed.items():
        if getattr(args, key) not in (None, value):
            raise UsageError(f"profile {args.profile} fixes {key} = {value}")
    n, d, b = fixed.get("n", args.n), fixed.get("d", args.d), args.b
    if n is None or d is None:
        needs = " and ".join(f"--{key}" for key in ("n", "d") if key not in fixed)
        raise UsageError(f"profile {args.profile} requires {needs}")
    if b is None and args.profile == "three-quadrics":  # Y's middle Betti number
        b = n * n + 5 * n + 8
        try:
            str(b)  # the report writes b
        except ValueError:  # before any work, and without echoing n
            limit = sys.get_int_max_str_digits()
            raise UsageError(f"b = n*n + 5*n + 8 is over the {limit}-digit int-string limit") from None
    elif b is None:
        raise UsageError("--b is required (no default Betti number is assumed)")
    try:
        return ModelParams(n, d, b, args.delta)
    except ZeroDivisionError:
        raise UsageError(f"--delta {args.delta} has a zero denominator") from None


def _check_caps(params, m, codim=None):
    """Refuse more than FACTOR_CAP factors, or a basis over BASIS_CAP
    monomials, before any work; inputs out of range are left to the
    library's own errors."""
    _check_cap(m, FACTOR_CAP, f"m={m} is over the factor cap {FACTOR_CAP}")
    if codim is not None and m >= 1 and 0 <= codim <= m * params.n:
        size = basis_count(params, m, codim)
        message = f"basis at m={m}, codim={codim} has {size} monomials, over the cap {BASIS_CAP}"
        _check_cap(size, BASIS_CAP, message)


def _cmd_basis(args, params):
    _check_caps(params, args.m, args.codim)
    basis = enumerate_basis(params, args.m, args.codim)
    return {"count": len(basis), "monomials": [mono.canonical_str() for mono in basis]}


def _parse_operands(args, params):
    """Both operands on a common number of factors, which becomes args.m
    (and so the m of the report's inputs)."""
    x, y = (parse_class(text, params, m=args.m, normalize=not args.no_normalize_input)
            for text in (args.x, args.y))
    args.m = m = max(x.m, y.m)
    _check_caps(params, m)
    return [c if c.m == m else pullback(c, m, tuple(range(1, c.m + 1))) for c in (x, y)]


def _cmd_mul(args, params):
    x, y = _parse_operands(args, params)
    product = multiply(x, y, params)
    try:
        codim = class_codim(product, params)
    except ValueError:
        codim = None
    return {"product": format_class(product, params), "codim": codim}


def _cmd_pair(args, params):
    x, y = _parse_operands(args, params)
    return {"value": format_fraction(pair(x, y, params))}


def _cmd_gram(args, params):
    _check_caps(params, args.m, args.codim)
    report = gram(params, args.m, args.codim)
    return {
        "basis_size": len(report.basis),
        "dual_size": len(report.dual_basis),
        "rank": report.rank,
        "deficiency": len(report.kernel_basis),
        "basis": [mono.canonical_str() for mono in report.basis],
        "kernel": [format_class(cls, params) for cls in report.kernel_basis],
    }


def _cmd_lemma_ok(args, params):
    checks = []
    for factor in (1, 2):
        try:
            product = expand_diagonal_times_h(params, factor)
            checks.append({"factor": factor, "equal": True, "class": format_class(product, params)})
        except ArithmeticError as exc:
            checks.append({"factor": factor, "equal": False, "class": str(exc)})
    return {"checks": checks, "passed": all(check["equal"] for check in checks)}


def _cmd_gamma3(args, params):
    solution = solve_gamma3(params)
    coefficients = solution.coefficients
    # each S3 orbit of keys holds one sorted triple, the one its members must agree with
    symmetric = all(coefficients.get(tuple(sorted(key))) == value for key, value in coefficients.items())
    return {
        "coefficients": {
            f"{i},{j},{k}": format_fraction(v) for (i, j, k), v in sorted(coefficients.items())
        },
        "residual": format_class(solution.residual, params),
        "residual_zero": solution.residual.is_zero,
        "symmetric": symmetric,
    }


def _cmd_euler(args, params):
    value = euler_char(params)
    expected = Fraction(params.n + params.b)
    return {"value": format_fraction(value), "expected": format_fraction(expected),
            "match": value == expected}


# A command: its help line; its options after the common ones; run(args,
# params) -> results; the columns and records of its table (see _table);
# and checks, the results keys that must all be true for status pass.
Command = namedtuple("Command", "help options run columns records checks", defaults=(None, ()))

# name -> Command, in the order of --help.  A command that reports a library
# record returns its fields as the results, the values left as they are.
COMMANDS = {
    "basis": Command("enumerate a monomial basis", _M_CODIM, _cmd_basis, ("monomial",),
                     "monomials"),
    "mul": Command("multiply two classes", _OPERANDS, _cmd_mul, ("product", "codim")),
    "pair": Command("intersection pairing", _OPERANDS, _cmd_pair, ("value",)),
    "gram": Command("Gram matrix rank and kernel", _M_CODIM, _cmd_gram,
                    ("basis_size", "dual_size", "rank", "deficiency")),
    "verify-ck": Command("projector axioms", (), lambda a, p: verify_ck(ck_projectors(p))._asdict(),
                         ("name", "ok", "detail"), "checks", ("passed",)),
    "verify-mck": Command("multiplicativity of the projectors", (),
                          lambda a, p: verify_mck(p)._asdict(),
                          ("i", "j", "k", "required_zero", "zero", "ok"), "cases", ("passed",)),
    "lemma-ok": Command("diagonal-times-h expansion", (), _cmd_lemma_ok, ("factor", "equal"),
                        "checks", ("passed",)),
    "gamma3": Command("modified small diagonal solve", (), _cmd_gamma3,
                      ("i", "j", "k", "coefficient"), "coefficients",
                      ("residual_zero", "symmetric")),
    "euler": Command("Euler characteristic identity", (), _cmd_euler,
                     ("value", "expected", "match"), checks=("match",)),
    "kimura": Command("alternating relation vanishing",
                      (("--cap-b", {"type": int, "default": DEFAULT_B_CAP}), _CAP_GRAM),
                      lambda a, p: verify_kimura_vanishing(p, a.cap_b, a.cap_gram)._asdict(),
                      ("b", "delta", "vanishing", "crosscheck_ok", "dual_count"),
                      checks=("vanishing", "crosscheck_ok")),
    "scan": Command("injectivity scan of Gram deficiencies",
                    (("--m-max", {"type": int, "required": True}), _CAP_GRAM),
                    lambda a, p: {"rows": scan_injectivity(p, a.m_max, a.cap_gram)},
                    ("m", "codim", "basis_size", "rank", "deficiency"), "rows"),
}


def _report_dict(args, params, results, status, start):
    # the inputs are the command's own options that take a value
    inputs = {}
    for flag, kwargs in COMMANDS[args.command].options:
        if "action" not in kwargs:
            dest = flag.lstrip("-").replace("-", "_")
            inputs[dest] = getattr(args, dest)
    report = {
        "command": args.command,
        "params": params._asdict(),
        "inputs": inputs,
        "results": results,
        "status": status,
    }
    if not args.no_timing:
        report["timing_ms"] = round((time.perf_counter() - start) * 1000, 3)
    return report


def _table(report: dict) -> tuple[tuple[str, ...], list[list]]:
    """The columns and rows of a text or CSV report: a row per record, its
    columns read as attributes of a library record and as keys of a dict
    (a bare value is the one cell).  The records are the list
    results[records]; with records None, the results themselves unless the
    run stopped at a cap.  gamma3's "i,j,k" -> coefficient map is split
    into cells and sorted by its string keys."""
    command = COMMANDS[report["command"]]
    columns, records = command.columns, command.records
    results = report["results"]
    if records is None:
        records = [] if "error" in results else [results]
    else:
        records = results.get(records, [])
    if isinstance(records, dict):
        return columns, [key.split(",") + [value] for key, value in sorted(records.items())]
    return columns, [[getattr(r, c) for c in columns] if isinstance(r, tuple)
                     else [r[c] for c in columns] if isinstance(r, dict) else [r] for r in records]


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    params = report["params"]
    lines.append(f"params: n={params['n']} d={params['d']} b={params['b']} delta={params['delta']}")
    if report["inputs"]:
        lines.append("inputs: " + " ".join(f"{k}={v}" for k, v in report["inputs"].items()))
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


# How json.dumps writes each scalar type a report holds (the float is timing_ms),
# and a Fraction as its quoted text.
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    Fraction: lambda q: _quote(format_fraction(q)),
}


def _to_json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) for a report: dicts with str keys and
    namedtuples as objects (a namedtuple's fields in order), lists and
    other tuples as arrays, and the scalar types of _SCALARS.  A scalar
    member is encoded in the loop over its container, not by a call of
    its own."""
    scalar = _SCALARS.get
    encode = scalar(value.__class__)
    if encode is not None:
        return encode(value)
    inner = indent + "  "
    if isinstance(value, dict) or hasattr(value, "_fields"):
        pairs = value.items() if isinstance(value, dict) else zip(value._fields, value)
        items = [_quote(key) + ": " + (_to_json(item, inner) if (encode := scalar(item.__class__)) is None
                                       else encode(item)) for key, item in pairs]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_to_json(item, inner) if (encode := scalar(item.__class__)) is None else encode(item)
                 for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"{value.__class__.__name__} is not a report value")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


_RENDERERS = {"json": lambda report: _to_json(report) + "\n", "csv": _render_csv, "text": _render_text}


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
    try:
        args = _parse(argv)
        if isinstance(args, str):  # the help page
            sys.stdout.write(args)
            return 0
        params = _resolve_params(args)
        command = COMMANDS[args.command]
        start = time.perf_counter()
        try:
            results = command.run(args, params)
            status = "pass" if all(results[key] for key in command.checks) else "fail"
        except ResourceLimitError as exc:  # a cap reached is still a report
            status, results = "error", {"error": str(exc)}
            if args.format == "csv":  # the table has no place for the reason
                print(f"error: {exc}", file=sys.stderr)
            if exc.partial is not None:  # the rows a scan finished
                results["rows"] = exc.partial
        sys.stdout.write(_RENDERERS[args.format](_report_dict(args, params, results, status, start)))
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ArithmeticError) else 2  # 1: a mathematical check failed
    return {"pass": 0, "fail": 1, "error": 3}[status]


if __name__ == "__main__":
    sys.exit(main())
