"""Benchmark workloads: the argument lists one pass sends to the tautring CLI.

A workload is built from a seed and nothing else.  `scan` is a single
fixed command; `cli_batch` is a seeded shuffle of short commands plus
`mul`/`pair` on seeded random operands.  The program only
ever sees the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("scan", "cli_batch")

# Groups of seeded mul/pair commands; a group's commands are checked against each other.
OPERAND_GROUPS = ("operands1", "operands2")

# mul/pair operands live on M factors of the three-quadrics profile with n = N.
N, M = 4, 4
OPERAND_PARAMS = ("--profile", "three-quadrics", "--n", str(N), "--b", "5", "--m", str(M))
OPERAND_TERMS = 6


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `argv` follows the program name."""

    argv: tuple[str, ...]
    group: str | None = None  # commands cross-checked against each other
    role: str = ""  # the command's part in its group

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def option(self, flag: str) -> str | None:
        """Value following `flag` in argv, or None."""
        argv = self.argv
        for i in range(len(argv) - 1):
            if argv[i] == flag:
                return argv[i + 1]
        return None

    @property
    def fmt(self) -> str:
        return self.option("--format") or "text"

    @property
    def n(self) -> int:
        """Dimension: from --n, else 2 (the double plane)."""
        return int(self.option("--n") or 2)

    @property
    def b(self) -> int:
        return int(self.option("--b"))


def _cmd(*argv: str, fmt: str, group: str | None = None, role: str = "") -> Command:
    return Command(tuple(argv) + ("--format", fmt, "--no-timing"), group, role)


def _scan(short: bool) -> list[Command]:
    m_max = "3" if short else "6"
    return [_cmd("scan", "--n", "2", "--d", "8", "--b", "3", "--m-max", m_max,
                 "--cap-gram", "100000", fmt="json")]


# (profile arguments, output format) for the verifier commands of cli_batch.
_PROFILES = (
    (("--profile", "three-quadrics", "--n", "2"), "json"),
    (("--profile", "three-quadrics", "--n", "4"), "text"),
    (("--profile", "three-quadrics", "--n", "6"), "csv"),
    (("--profile", "three-quadrics", "--n", "12"), "json"),
    (("--profile", "double-plane"), "text"),
)
_VERIFIERS = ("verify-ck", "verify-mck", "lemma-ok", "gamma3", "euler")
_SMALL = ("--n", "2", "--d", "8", "--b", "3")


def _fixed_batch(short: bool) -> list[Command]:
    profiles = _PROFILES[:2] + _PROFILES[4:] if short else _PROFILES
    out = [
        _cmd(verb, *profile, "--b", "22", fmt=fmt)
        for profile, fmt in profiles
        for verb in _VERIFIERS
    ]
    m = "3" if short else "5"
    for delta, fmt in (("2", "json"), ("1/2", "csv"), ("0", "text")):
        out.append(_cmd("gram", *_SMALL, "--m", m, "--codim", m, "--delta", delta, fmt=fmt))
    m = "4" if short else "7"
    out.append(_cmd("basis", *_SMALL, "--m", m, "--codim", m, fmt="json"))
    out.append(_cmd("kimura", "--n", "2", "--d", "8", "--b", "2" if short else "3", fmt="json"))
    out.append(_cmd("scan", "--n", "4", "--d", "8", "--b", "3", "--m-max", "2" if short else "3",
                    fmt="csv"))
    return out


def _random_monomial(rng: random.Random, codim: int) -> str:
    """A normal-form monomial of the given codimension on M factors, as text."""
    while True:
        factors = list(range(1, M + 1))
        rng.shuffle(factors)
        k = rng.randrange(M // 2 + 1)
        pairs = [sorted(factors[2 * i : 2 * i + 2]) for i in range(k)]
        free = sorted(factors[2 * k :])
        degrees = [rng.randrange(N + 1) for _ in free]
        if N * k + sum(degrees) != codim:
            continue
        atoms = [f"t({i},{j})" for i, j in sorted(pairs)]
        for f, e in zip(free, degrees):
            if e == N:
                atoms.append(f"o{f}")
            elif e:
                atoms.append(f"h{f}" if e == 1 else f"h{f}^{e}")
        return "*".join(atoms)


def random_class(rng: random.Random, codim: int) -> str:
    """A homogeneous class with distinct monomials and rational coefficients.

    The first coefficient is positive so the text never starts with '-',
    which the argument parser would take for an option.
    """
    monos: list[str] = []
    while len(monos) < OPERAND_TERMS:
        mono = _random_monomial(rng, codim)
        if mono not in monos:
            monos.append(mono)
    parts = []
    for idx, mono in enumerate(monos):
        coeff = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        if idx and rng.random() < 0.5:
            coeff = -coeff
        sign = ("-" if coeff < 0 else "") if idx == 0 else (" - " if coeff < 0 else " + ")
        parts.append(f"{sign}{abs(coeff)}*{mono}")
    return "".join(parts)


def _operand_commands(rng: random.Random, group: str) -> list[Command]:
    """pair x y, pair y x, mul x y (complementary, so a multiple of the point
    class), mul x z and mul z x (a product below the top codimension)."""
    top = M * N
    c1 = rng.randint(4, top - 4)
    c3 = rng.randint(2, top - 2 - c1)
    x, y, z = (random_class(rng, c) for c in (c1, top - c1, c3))
    spec = (("pair", x, y, "pair_xy"), ("pair", y, x, "pair_yx"), ("mul", x, y, "mul_xy"),
            ("mul", x, z, "mul_xz"), ("mul", z, x, "mul_zx"))
    return [_cmd(verb, a, c, *OPERAND_PARAMS, fmt="json", group=group, role=role)
            for verb, a, c, role in spec]


def build(workload: str, seed: int, short: bool = False) -> list[Command]:
    """The commands of one pass, in order.  `short` shrinks every command
    for a quick check of the harness itself."""
    if workload == "scan":
        return _scan(short)
    if workload == "cli_batch":
        rng = random.Random(seed)
        commands = _fixed_batch(short)
        for group in OPERAND_GROUPS:
            commands += _operand_commands(rng, group)
        rng.shuffle(commands)
        return commands
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def fixed_commands() -> list[Command]:
    """Every command whose output does not depend on the seed, in both sizes."""
    out: list[Command] = []
    for short in (False, True):
        out += _scan(short) + _fixed_batch(short)
    return out
