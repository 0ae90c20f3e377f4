"""Versioned text scenarios for torus-quotient computations.

A scenario declares factors, generators, and expected outputs:

    version 1
    name bielliptic
    factor torus e1
    factor torus e2
    factor k3 -1
    generator z1+1/2, -z2, -
    expect order 2
    expect free true
    expect hodge 1,1,0,1,1

One `factor` line per torus coordinate or formal factor, in order.  Each
`generator` line has one comma-separated field per factor line: torus fields
are `z<j>` or `-z<j>` plus shift terms `num[/den]`, `num[/den]*t<i>` or
`t<i>[/den]` in ASCII digits (`-z4+1/4`, `z3+t3/2`; the period symbol t<i>
belongs to coordinate i), reduced mod 1 and written over one common D.
Formal fields are `-` (act by the factor's sign) or `+` (act trivially).
Lines starting with `#` and blank lines are skipped.

`run_scenario` returns the Hodge numbers of every four-fold quotient; the
report decides whether h^{4,0} = 1, and `expect hodge` reads null when not.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import lcm
from pathlib import Path

from .torusquot import (
    FormalFactor,
    FreeCertificate,
    HodgeData,
    TorusModel,
    _check_codes,
    action_free,
    delegated_elements,
    first_fixed,
    generate_group,
    invariant_form_dims,
    quotient_hodge,
)

SCHEMA_VERSION = 1

# each expectation key, in the order the unknown-key message lists them,
# with the citation id of the record that checks it and the kind of its value
EXPECTATIONS = {
    "order": ("group-closure", "an integer"),
    "abelian": ("group-closure", "true or false"),
    "max-order": ("group-closure", "an integer"),
    "free": ("snf-fixed-point", "true or false"),
    "forms": ("invariant-forms", "comma-separated integers"),
    "hodge": ("hodge-quotient", "comma-separated integers"),
}


class ScenarioError(ValueError):
    """Malformed scenario input; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


@dataclass(frozen=True)
class Scenario:
    name: str
    model: TorusModel
    formal: tuple[FormalFactor, ...]  # K3 / CY3 factors in declaration order
    generators: tuple[tuple, ...]  # codes (perm, signs, t, parities) over D
    D: int  # the lcm of the generators' shift denominators
    expectations: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class ExpectationCheck:
    key: str
    expected: object
    actual: object
    ok: bool


@dataclass(frozen=True)
class ScenarioResult:
    order: int
    abelian: bool
    max_order: int
    free: bool
    fixed: tuple[tuple, tuple, FreeCertificate] | None  # first_fixed when not free
    delegated: int
    dimension: int
    forms: tuple[int, ...]
    hodge: HodgeData | None  # for every four-fold, whatever its h^{4,0}
    checks: tuple[ExpectationCheck, ...]


_Z_HEAD = re.compile(r"(-?)z([0-9]+)")
_SHIFT_TERMS = re.compile(r"([+-])([^+-]*)")
# num[/den], num[/den]*t<i> or t<i>[/den]
_SHIFT_TERM = re.compile(r"([0-9]+)(?:/([0-9]+))?(?:\*t([0-9]+))?|t([0-9]+)(?:/([0-9]+))?")
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def _digits(value: str, what: str, where: str, line: int) -> int:
    """The integer of a run of ASCII digits; past Python's limit on the
    digits int() reads, a ScenarioError that names the number."""
    try:
        return int(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ScenarioError(line, f"{where}: {what} has {len(value)} digits (limit {limit})") from None


def _parse_coord_field(field: str, coord: int, n: int, line: int):
    """One torus field: sign, source coordinate, (real, period) shift mod 1."""
    where = f"field {coord + 1}"
    s = field.replace(" ", "")
    m = _Z_HEAD.match(s)
    if not m:
        raise ScenarioError(line, f"{where}: expected a term like z{coord + 1}")
    sign = -1 if m.group(1) else 1
    src = _digits(m.group(2), "z index", where, line)
    if not 1 <= src <= n:
        raise ScenarioError(line, f"{where}: z{src} out of range (n = {n})")
    rest = s[m.end() :]
    if rest[:1] not in ("", "+", "-"):
        raise ScenarioError(line, f"{where}: expected + or - before a shift")
    shift = [Fraction(0), Fraction(0)]
    for tsign, term in _SHIFT_TERMS.findall(rest):
        t = _SHIFT_TERM.fullmatch(term)
        if t is None:
            raise ScenarioError(line, f"{where}: cannot parse shift term {term!r}")
        num, den, idx = (t[1], t[2], t[3]) if t[4] is None else ("1", t[5], t[4])
        if idx is not None and _digits(idx, "t index", where, line) != coord + 1:
            raise ScenarioError(line, f"{where}: period symbol t{int(idx)} belongs to coordinate {int(idx)}")
        d = _digits(den or "1", "shift denominator", where, line)
        if d == 0:
            raise ScenarioError(line, f"{where}: zero denominator in shift term {term!r}")
        value = _digits(num, "shift numerator", where, line)
        shift[idx is not None] += Fraction(-value if tsign == "-" else value, d)
    return sign, src - 1, (shift[0] % 1, shift[1] % 1)


def _parse_generator(body: str, labels, formal_count: int, torus_positions, line: int):
    """(kind, shifts): the generator's lattice map as a kind (perm, signs, (),
    parities), checked by `_check_codes`, and its shifts as Fractions mod 1."""
    fields = [f.strip() for f in body.split(",")]
    total_fields = len(torus_positions) + formal_count
    if len(fields) != total_fields:
        raise ScenarioError(
            line, f"generator has {len(fields)} fields, scenario declares {total_fields} factors"
        )
    perm, signs, shifts, parities = [], [], [], []
    for pos, field in enumerate(fields):
        if pos in torus_positions:
            sign, src, shift = _parse_coord_field(field, len(perm) // 2, len(labels), line)
            perm += (2 * src, 2 * src + 1)
            signs += (sign, sign)
            shifts += shift
        elif field in ("+", "-"):
            parities.append(int(field == "-"))
        else:
            raise ScenarioError(
                line, f"field {pos + 1}: formal factor field must be + or -, got {field!r}"
            )
    kind = (tuple(perm), tuple(signs), (), tuple(parities))
    try:
        _check_codes([kind], (), labels, 1, formal_count)
    except ValueError as e:
        raise ScenarioError(line, str(e)) from None
    return kind, shifts


def _integer(value: str) -> int:
    if _INTEGER.fullmatch(value) is None:
        raise ValueError(value)
    return int(value)


# the reader of each value kind in EXPECTATIONS; a malformed value raises ValueError
_READERS = {
    "an integer": _integer,
    "true or false": lambda value: bool(["false", "true"].index(value)),
    "comma-separated integers": lambda value: tuple(map(_integer, value.split(","))),
}


def _parse_expect(body: str, line: int):
    parts = body.split(None, 1)
    if len(parts) != 2:
        raise ScenarioError(line, "expect needs a key and a value")
    key, value = parts[0], parts[1].strip()
    if key not in EXPECTATIONS:
        raise ScenarioError(line, f"unknown expectation {key!r} (one of {', '.join(EXPECTATIONS)})")
    kind = EXPECTATIONS[key][1]
    try:
        return key, _READERS[kind](value)
    except ValueError:
        raise ScenarioError(line, f"{key} expects {kind}, got {value!r}") from None


def parse_scenario(text: str) -> Scenario:
    version = None
    name = "unnamed"
    labels: list[str] = []
    formal: list[FormalFactor] = []
    torus_positions: set[int] = set()
    generator_lines: list[tuple[int, str]] = []
    expectations: list[tuple[str, object]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(None, 1)
        keyword, body = parts[0], parts[1].strip() if len(parts) > 1 else ""
        if version is None:
            if keyword != "version":
                raise ScenarioError(line_no, "scenario must start with a version line")
            if body != str(SCHEMA_VERSION):
                raise ScenarioError(line_no, f"unsupported version {body!r} (expected {SCHEMA_VERSION})")
            version = SCHEMA_VERSION
            continue
        if keyword == "name":
            name = body or name
        elif keyword == "factor":
            sub = body.split()
            if not sub:
                raise ScenarioError(line_no, "factor needs a kind (torus, k3, cy3)")
            kind = sub[0]
            if kind == "torus":
                if len(sub) != 2:
                    raise ScenarioError(line_no, "torus factor needs a curve label")
                torus_positions.add(len(labels) + len(formal))
                labels.append(sub[1])
            elif kind in ("k3", "cy3"):
                if len(sub) != 2 or sub[1] not in ("-1", "1", "+1"):
                    raise ScenarioError(line_no, f"{kind} factor needs a sign +1 or -1")
                formal.append(FormalFactor(2 if kind == "k3" else 3, int(sub[1])))
            else:
                raise ScenarioError(line_no, f"unknown factor kind {kind!r}")
        elif keyword == "generator":
            generator_lines.append((line_no, body))
        elif keyword == "expect":
            key, value = _parse_expect(body, line_no)
            if any(k == key for k, _ in expectations):
                raise ScenarioError(line_no, f"duplicate expectation {key!r}")
            expectations.append((key, value))
        else:
            raise ScenarioError(line_no, f"unknown keyword {keyword!r}")
    if version is None:
        raise ScenarioError(1, "empty scenario: missing version line")
    parsed = [
        _parse_generator(body, labels, len(formal), torus_positions, line_no)
        for line_no, body in generator_lines
    ]
    D = lcm(1, *(x.denominator for _, shifts in parsed for x in shifts))
    return Scenario(
        name=name,
        model=TorusModel(tuple(labels)),
        formal=tuple(formal),
        generators=tuple(
            (perm, signs, tuple(x.numerator * (D // x.denominator) for x in shifts), parities)
            for (perm, signs, _, parities), shifts in parsed
        ),
        D=D,
        expectations=tuple(expectations),
    )


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text())


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package, e.g. 'd8.scn'."""
    return Path(resources.files("abfib").joinpath("scenarios", name))


def resolve_scenario(name_or_path) -> Path:
    p = Path(name_or_path)
    if p.is_file():
        return p
    names = [p.name] if p.suffix else [p.name + ".scn", p.name]
    for name in names:
        bundled = bundled_scenario_path(name)
        try:
            if bundled.is_file():
                return bundled
        except OSError as e:  # name the path given, not the install directory
            raise OSError(e.errno, e.strerror, str(name_or_path)) from None
    raise FileNotFoundError(f"no scenario file {name_or_path!r} (and no bundled {p.name!r})")


def run_scenario(sc: Scenario) -> ScenarioResult:
    group = generate_group(sc.generators, sc.D, sc.model, len(sc.formal))
    forms = invariant_form_dims(group)
    dimension = sc.model.n + sum(f.dim for f in sc.formal)
    hodge = quotient_hodge(sc.formal, group) if dimension == 4 else None
    free = action_free(group)
    computed = {
        "order": group.order,
        "abelian": group.is_abelian,
        "max-order": group.max_element_order,
        "free": free,
        "forms": forms,
        # a quotient without trivial canonical bundle has no Hodge numbers to expect
        "hodge": hodge.h_q if hodge and hodge.h_q[4] == 1 else None,
    }
    checks = tuple(
        ExpectationCheck(key, expected, computed[key], computed[key] == expected)
        for key, expected in sc.expectations
    )
    return ScenarioResult(
        order=group.order,
        abelian=computed["abelian"],
        max_order=computed["max-order"],
        free=free,
        fixed=None if free else first_fixed(group),
        delegated=len(delegated_elements(group)),
        dimension=dimension,
        forms=forms,
        hodge=hodge,
        checks=checks,
    )
