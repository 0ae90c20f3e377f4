"""Seeded command lists for the three benchmark workloads.

Every workload is an endless, deterministic stream of `abfib` argv lists:
the same (workload, seed) always yields the same commands, so the parent
process can regenerate exactly what a worker ran in order to check it.

Each stream repeats a fixed schedule of command *shapes* (subcommand and
size parameters).  The seed draws what varies inside a shape: the prime,
the family seed, the scenario generators, the enumeration window.  Keeping
the shapes fixed and interleaved means a time-boxed run completes the same
kind of prefix whatever the seed, so the seed adds little run-to-run
spread; what remains is mostly the machine's own speed drift.

Why each workload exists:

scan   `weierstrass` at l in {1, 2}, 1-3 trials, half of them fibre
       products, p drawn without repeats from the primes in [101, 257].
       This is the F_p point-scan shape that dominates `report all`.  A new
       prime per command keeps the per-process plane-point grid cache cold,
       as it is in a real CLI invocation.
deep   `weierstrass --l {3, 4}` at p <= 47, four primes per 16-command
       cycle, each reused four times.
       Many terms (703-1225) and few points: the dict-based discriminant
       build carries a large share here and about 1% in `scan`, so a scan
       change that costs on many-term polynomials shows here.
exact  `torus` on generated signed-permutation scenarios (group orders 2 to
       512), `classify all --window LO 0` (LO in [-800, -30]) and `jacfib`.
       No F_p scan: it loads torusquot, scenario, classifier and sheafcalc,
       and a weierstrass change is predicted to move nothing here.

Inputs stay inside the CLI's documented budgets (5 <= p <= 257, group
order <= CLOSURE_CAP = 1024); bad-input handling is not a workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("scan", "deep", "exact")


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


# --- scan -------------------------------------------------------------------

SCAN_PRIMES = _primes(101, 257)  # 30 primes
# twelve strata of 2-3 consecutive primes (p^2 spreads by at most 13% in a
# stratum); a 24-command cycle takes two primes from each, so no prime
# repeats within a cycle and every seed sees nearly the same sizes
SCAN_STRATA = (
    (101, 103), (107, 109, 113), (127, 131), (137, 139), (149, 151, 157), (163, 167),
    (173, 179, 181), (191, 193, 197), (199, 211), (223, 227, 229), (233, 239, 241), (251, 257),
)
# family seeds are drawn from this pool so that every command any run can
# issue has a recorded outcome in golden.json
SCAN_FAMILY_SEEDS = (0, 1, 2)

# (l, trials, l2 or None for no fibre product, prime stratum).  The 24
# shapes are l x trials x {plain, plain, product l2=1, product l2=2}.
# Heavier shapes sit in lower-prime strata, two per stratum, so every
# command costs 0.5-3 s at the commit that defined the benchmark and one
# command can never swallow a run's time box.  The order cycles through a
# heavy, a light and a middle-cost slot, so that the median of any prefix
# a time box cuts falls among the middle slots, whose costs are close.
SCAN_SCHEDULE = (
    (2, 3, 2, 0), (1, 3, None, 9), (2, 3, None, 3),
    (2, 2, 1, 2), (1, 1, None, 11), (2, 1, 1, 4),
    (1, 3, 1, 5), (2, 1, None, 7), (1, 3, 2, 1),
    (1, 1, 2, 7), (1, 2, None, 10), (2, 1, 2, 3),
    (2, 3, 1, 0), (1, 3, None, 9), (2, 2, None, 5),
    (2, 2, 2, 1), (1, 1, 1, 8), (1, 2, 2, 2),
    (2, 3, None, 4), (1, 1, None, 11), (1, 2, 1, 6),
    (2, 2, None, 6), (1, 2, None, 10), (2, 1, None, 8),
)

# --- deep -------------------------------------------------------------------

DEEP_BINS = ((5, 7, 11, 13), (17, 19, 23), (29, 31, 37), (41, 43, 47))
DEEP_FAMILY_SEEDS = tuple(range(8))
_DEEP_SHAPES = ((3, 1), (4, 2), (4, 1), (3, 2))
# (l, trials, prime bin): a Latin square, so each shape meets each bin once
# and consecutive commands change both shape and prime
DEEP_SCHEDULE = tuple((*_DEEP_SHAPES[i % 4], (i + i // 4) % 4) for i in range(16))

# --- exact ------------------------------------------------------------------

# ("torus", lo, hi) group-order bins, ("classify", lo, hi) window-LO bins.
# Per cycle: three heavy slots (~0.5-1 s at the commit that defined the
# benchmark), four light ones (< 0.1 s) and four middle ones (~0.25 s).
# The median command then always falls among the middle slots, whose costs
# are close, instead of on the jump between light and heavy ones.
EXACT_SCHEDULE = (
    ("torus", 257, 512),
    ("classify", -560, -460),
    ("torus", 2, 8),
    ("torus", 65, 128),
    ("classify", -800, -700),
    ("classify", -299, -30),
    ("classify", -560, -460),
    ("torus", 9, 32),
    ("torus", 129, 256),
    ("jacfib", 0, 0),
    ("torus", 65, 128),
)


@dataclass
class Command:
    """One CLI invocation plus what the checker needs to know about it."""

    index: int
    kind: str  # "weierstrass", "torus", "classify" or "jacfib"
    argv: list[str]
    params: dict = field(default_factory=dict)
    scenario_text: str | None = None


def commands(workload: str, seed: int, scenario_dir: Path | None = None):
    """Endless deterministic command stream for one workload and seed.

    `torus` commands refer to `<scenario_dir>/g<index>.scn`; the caller
    writes `scenario_text` there before running the command.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (one of {', '.join(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}")
    gen = {"scan": _scan, "deep": _deep, "exact": _exact}[workload]
    for index, cmd in enumerate(gen(rng, scenario_dir)):
        cmd.index = index
        cmd.argv += ["--format", "json"]
        yield cmd


def _weierstrass(l, p, trials, family_seed, l2=None) -> Command:
    argv = ["weierstrass", "--l", str(l), "--p", str(p), "--trials", str(trials)]
    if l2 is not None:
        argv += ["--fibre-product", "--l2", str(l2)]
    argv += ["--seed", str(family_seed)]
    params = {"l": l, "p": p, "trials": trials, "seed": family_seed, "l2": l2}
    return Command(0, "weierstrass", argv, params)


def _scan(rng, _scenario_dir):
    while True:
        pools = [rng.sample(st, len(st)) for st in SCAN_STRATA]
        for l, trials, l2, b in SCAN_SCHEDULE:
            yield _weierstrass(l, pools[b].pop(), trials, rng.choice(SCAN_FAMILY_SEEDS), l2)


def _deep(rng, _scenario_dir):
    while True:
        # four primes per 16-command cycle, each used four times
        primes = [rng.choice(b) for b in DEEP_BINS]
        for l, trials, b in DEEP_SCHEDULE:
            yield _weierstrass(l, primes[b], trials, rng.choice(DEEP_FAMILY_SEEDS))


def _exact(rng, scenario_dir):
    n = 0
    while True:
        for kind, lo, hi in EXACT_SCHEDULE:
            cmd_seed = str(rng.randrange(1000))
            if kind == "torus":
                name = f"g{n}"
                text, expected = torus_scenario(rng, name, lo, hi)
                path = str((scenario_dir or Path(".")) / f"{name}.scn")
                yield Command(0, kind, ["torus", path, "--seed", cmd_seed], expected, text)
            elif kind == "classify":
                window_lo = rng.randint(lo, hi)
                argv = ["classify", "all", "--window", str(window_lo), "0", "--seed", cmd_seed]
                yield Command(0, kind, argv, {"lo": window_lo})
            else:
                yield Command(0, kind, ["jacfib", "--seed", cmd_seed])
            n += 1


# --- generated torus scenarios ------------------------------------------------
#
# Four elliptic-curve coordinates z1, z2 (same curve), z3, z4.  The group is
# T x| H: H is a small abelian group of signed permutations fixing z4, each
# element tagged by a translation of z4 through an injective map H -> Q/Z
# (so every element outside T moves z4 without a fixed point, and T acts by
# nonzero translations), and T is generated by single-slot translations on slots H maps to
# themselves up to sign (so H normalises T).  Hence, by construction:
# order = |H| * prod(denominators), the action is free, every det L = 1
# (h^{4,0} = 1), and the invariant forms depend on H alone.

# name -> (generator lines over (z1, z2, z3, z4-real, z4-period), allowed T slots)
_H_TYPES = {
    "1": ((), ("1r", "1p", "2r", "2p", "3r", "3p", "4r", "4p")),
    "C2": ((("-z1", "-z2", "z3", "1/2", None),), ("1r", "1p", "2r", "2p", "3r", "3p", "4p")),
    "C2b": ((("-z1", "z2", "-z3", "1/2", None),), ("1r", "1p", "2r", "2p", "3r", "3p", "4p")),
    "C4": ((("z2", "-z1", "z3", "1/4", None),), ("3r", "3p", "4p")),
    "C2xC2": (
        (("-z1", "-z2", "z3", "1/2", None), ("-z1", "z2", "-z3", None, "1/2")),
        ("1r", "1p", "2r", "2p", "3r", "3p"),
    ),
}
# powers of two keep every element order <= 8, so a scenario's cost tracks
# its group order rather than the lcm of its denominators
_DENOMINATORS = (2, 4, 8)


def _signed_perm(fields) -> tuple[tuple[int, int], ...]:
    """(source index, sign) per target coordinate from 'z2', '-z1', ..."""
    out = []
    for f in fields:
        sign = -1 if f.startswith("-") else 1
        out.append((int(f.lstrip("-")[1:]) - 1, sign))
    return tuple(out + [(3, 1)])  # z4 is always fixed by H


def _compose(f, g):
    """f after g on signed permutations."""
    return tuple((g[src][0], sign * g[src][1]) for src, sign in f)


def _linear_closure(gens):
    ident = tuple((i, 1) for i in range(4))
    elems = {ident}
    frontier = [ident]
    while frontier:
        frontier = [h for e in frontier for g in gens if (h := _compose(g, e)) not in elems]
        elems.update(frontier)
    return sorted(elems)


def _exterior_character(sp) -> list[int]:
    """Coefficients of det(1 + x L) for a signed permutation L, by cycles.

    A cycle of length k whose signs multiply to e contributes 1 - e (-x)^k;
    this is independent of the principal-minor sums the engine uses.
    """
    poly = [1]
    seen = set()
    for start in range(len(sp)):
        if start in seen:
            continue
        k, e, i = 0, 1, start
        while i not in seen:
            seen.add(i)
            k += 1
            i, s = sp[i]
            e *= s
        factor = [1] + [0] * (k - 1) + [-e * (-1) ** k]
        poly = [
            sum(poly[j] * factor[d - j] for j in range(len(poly)) if 0 <= d - j < len(factor))
            for d in range(len(poly) + k)
        ]
    return poly


def torus_scenario(rng: random.Random, name: str, lo: int, hi: int):
    """A scenario whose group order lies in [lo, hi], with its expected values."""
    while True:
        h_name = rng.choice(sorted(_H_TYPES))
        h_gens, slots = _H_TYPES[h_name]
        linear = _linear_closure([_signed_perm(g[:3]) for g in h_gens])
        chosen = rng.sample(slots, rng.randint(0, min(3, len(slots))))
        dens = [rng.choice(_DENOMINATORS) for _ in chosen]
        order = len(linear)
        for d in dens:
            order *= d
        if lo <= order <= hi:
            break
    lines = [
        "version 1",
        f"name {name}",
        "factor torus e",
        "factor torus e",
        "factor torus e3",
        "factor torus e4",
    ]
    gen_lines = []
    for z1, z2, z3, z4r, z4p in h_gens:
        z4 = "z4" + (f"+{z4r}" if z4r else "") + (f"+{z4p}*t4" if z4p else "")
        gen_lines.append(f"{z1}, {z2}, {z3}, {z4}")
    abelian = True
    for slot, d in zip(chosen, dens):
        k = rng.choice([k for k in range(1, d) if Fraction(k, d).denominator == d])
        coord, part = int(slot[0]), slot[1]
        fields = [f"z{i}" for i in range(1, 5)]
        shift = f"{k}/{d}" if part == "r" else f"{k}/{d}*t{coord}"
        fields[coord - 1] += f"+{shift}"
        gen_lines.append(", ".join(fields))
        # conjugating by an element that negates the slot's coordinate sends
        # the shift s to -s, which differs from s unless d <= 2
        if d > 2 and any(sp[coord - 1][1] == -1 for sp in linear):
            abelian = False
    rng.shuffle(gen_lines)
    lines += [f"generator {g}" for g in gen_lines]
    chars = [_exterior_character(sp) for sp in linear]
    forms = tuple(sum(c[p] for c in chars) // len(linear) for p in range(5))
    lines += [
        f"expect order {order}",
        f"expect abelian {'true' if abelian else 'false'}",
        "expect free true",
        f"expect forms {','.join(map(str, forms))}",
        f"expect hodge {','.join(map(str, forms))}",
    ]
    expected = {
        "name": name,
        "h": h_name,
        "order": order,
        "abelian": abelian,
        "free": True,
        "forms": list(forms),
        "hodge": list(forms),
    }
    return "\n".join(lines) + "\n", expected
