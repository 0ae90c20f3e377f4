import contextlib
import io
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from abfib.scenario import bundled_scenario_path, load_scenario
from abfib import torusquot
from abfib.cli import main
from abfib.torusquot import (
    ClosureError,
    FormalFactor,
    TorusModel,
    _lhat,
    action_free,
    delegated_elements,
    first_fixed,
    fixed_point_free,
    generate_group,
    graded_character,
    invariant_form_dims,
    linear_part,
    quotient_hodge,
    smith_normal_form,
)

from oracles import (
    Element,
    compose,
    element_order_by_powers,
    elements,
    fixed_point_free_brute,
    generate_group_by_compose,
    generators,
    graded_character_minors,
    lhat,
    S_by_powers,
    snf_null_rows,
    sparse_rows,
)

F = Fraction


# ---------------------------------------------------------------------------
# oracles, written before the expectations they freeze


def grid_fixed_points(auto, denom):
    """All fixed points on the (1/denom)-grid, exact Fraction arithmetic."""
    m = 2 * auto.model.n
    Lhat = lhat(auto)
    M = [[Lhat[i][j] - (i == j) for j in range(m)] for i in range(m)]
    pts = []
    for combo in itertools.product(range(denom), repeat=m):
        z = [F(k, denom) for k in combo]
        w = [sum(M[i][j] * z[j] for j in range(m)) + auto.that[i] for i in range(m)]
        if all(x.denominator == 1 for x in w):
            pts.append(tuple(z))
    return pts


def frac_det(mat):
    """Determinant by Fraction Gaussian elimination."""
    n = len(mat)
    A = [[F(x) for x in row] for row in mat]
    det = F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    return det


def certificate(f):
    """`fixed_point_free` for the element f over its own denominator, with a
    fresh `LinearPart`."""
    D = f.denominator
    return fixed_point_free(f.code(D)[2], D, linear_part(f.L))


def mat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


# ---------------------------------------------------------------------------
# the dihedral model


def d8_setup():
    m = TorusModel(("e", "e", "e3", "e4"))
    g1 = Element.of(
        m,
        [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
        [(0, 0), (0, 0), (F(1, 2), 0), (F(1, 4), 0)],
    )
    g2 = Element.of(
        m,
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
        [(0, 0), (0, 0), (F(1, 2), 0), (F(3, 4), 0)],
    )
    g3 = Element.of(
        m,
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
        [(0, 0), (0, 0), (0, F(1, 2)), (0, 0)],
    )
    return m, g1, g2, g3


def test_compose_identity():
    m, g1, _, _ = d8_setup()
    e = Element.identity(m)
    assert compose(e, g1) == g1
    assert compose(g1, e) == g1
    assert compose(g1, g1) == e  # involution


def test_compose_dihedral_relation():
    m, g1, g2, g3 = d8_setup()
    assert compose(g3, compose(g1, g3)) == g2


def test_rotation_element():
    m, g1, _, g3 = d8_setup()
    r = compose(g1, g3)
    # z1 -> -z2, z2 -> z1; z3 shifts by 1/2 + tau3/2; z4 by 1/4
    assert r.L[0] == (0, -1, 0, 0) and r.L[1] == (1, 0, 0, 0)
    assert r.that[4:6] == (F(1, 2), F(1, 2))
    assert r.that[6:] == (F(1, 4), 0)
    e = Element.identity(m)
    p = r
    orders = []
    for k in range(1, 6):
        orders.append(p == e)
        p = compose(r, p)
    assert orders == [False, False, False, True, False]  # order exactly 4


def test_signed_permutation_validation():
    # `generate_group` checks its generator codes before closing: a bad one
    # is an input error, not a runaway or a wrong closure
    m = TorusModel(("a", "b"))
    perm, signs, t = (0, 1, 2, 3), (1, 1, 1, 1), (0, 0, 0, 0)
    bad = [
        (((0, 1, 0, 1), signs, t, ()), "linear part is not a signed permutation"),
        ((perm, (2, 2, 1, 1), t, ()), "pairs alike"),
        # swapping curves with different period labels is not an automorphism
        (((2, 3, 0, 1), signs, t, ()), "coordinate 1 maps onto coordinate 0 but the curves differ"),
        ((perm, signs, (6, 0, 0, 0), ()), "translation not reduced"),
        ((perm, signs, t, (1,)), "parities must be 0 bits"),
    ]
    generate_group([(perm, signs, (3, 0, 0, 1), ())], 4, m, 0)
    for code, message in bad:
        with pytest.raises(ValueError, match=message):
            generate_group([code], 4, m, 0)


def test_group_d8_profile():
    m, g1, g2, g3 = d8_setup()
    G = closed([g1, g2, g3])
    assert G.order == 8
    assert not G.is_abelian
    assert G.max_element_order == 4
    assert sorted(G.element_orders) == [1, 2, 2, 2, 2, 2, 4, 4]
    # closure contains every inverse
    elems = elements(G)
    for e, k in zip(elems, G.element_orders):
        inv = e
        for _ in range(max(0, k - 2)):
            inv = compose(inv, e)
        assert compose(inv, e) == elems[0]
        assert inv in elems


def test_group_trivial_and_involution():
    m = TorusModel(("e1", "e2"))
    G0 = closed([], model=m)
    assert G0.order == 1 and G0.is_abelian
    gamma = Element.of(m, [[1, 0], [0, -1]], [(F(1, 2), 0), (0, 0)])
    G = closed([gamma])
    assert G.order == 2
    assert G.element_orders == (1, 2)


def closed(gens, model=None, parity_width=None):
    """`generate_group` on the codes of the elements `gens` over their common
    denominator, checked to keep them: the closure oracles rebuild each
    group from `generators(G)`, so this ties them to the inputs and
    `Element.code` to the decoder.  The model and the parity width default
    to those of the first generator (no parities without one)."""
    gens = tuple(gens)
    model = gens[0].model if model is None else model
    if parity_width is None:
        parity_width = len(gens[0].parities) if gens else 0
    D = lcm(1, *(g.denominator for g in gens))
    G = generate_group([g.code(D) for g in gens], D, model, parity_width)
    assert generators(G) == gens
    return G


def bundled_groups():
    for name in ("d8.scn", "bielliptic.scn", "enriques.scn", "empty.scn"):
        sc = load_scenario(bundled_scenario_path(name))
        G = generate_group(sc.generators, sc.D, sc.model, len(sc.formal))
        assert G.generator_codes == sc.generators
        yield G


def random_linear(rng, model):
    """A random signed permutation that maps each coordinate from one with
    the same curve label.  The labels are visited sorted: the order of a set
    of strings changes with the hash seed, and so would the groups."""
    n = model.n
    perm = list(range(n))
    for lab in sorted(set(model.labels)):
        idx = [i for i in range(n) if model.labels[i] == lab]
        tgt = idx[:]
        rng.shuffle(tgt)
        for i, j in zip(idx, tgt):
            perm[i] = j
    L = [[0] * n for _ in range(n)]
    for i in range(n):
        L[i][perm[i]] = rng.choice([-1, 1])
    return L


def random_groups(seed, count):
    """Seeded groups of one to three random signed-permutation generators on a
    labelled model, with random shifts and parity bits; capped closures skipped."""
    rng = random.Random(seed)
    groups = []
    while len(groups) < count:
        n = rng.randint(1, 3)
        model = TorusModel(tuple(rng.choice(("e", "e", "f")) for _ in range(n)))
        width = rng.randint(0, 2)
        gens = []
        for _ in range(rng.randint(1, 3)):
            L = random_linear(rng, model)
            denom = rng.choice([1, 2, 3, 4])
            shifts = [
                (F(rng.randrange(denom), denom), F(rng.randrange(denom), denom)) for _ in range(n)
            ]
            parities = tuple(rng.randint(0, 1) for _ in range(width))
            gens.append(Element.of(model, L, shifts, parities))
        try:
            groups.append(closed(gens))
        except ClosureError:
            continue
    return groups


def wide_groups(seed, count):
    """Seeded groups on four coordinates of order 64 to 512 with at least
    three linear parts: two random signed permutations with shifts of
    denominator 1-4 and parity bits, and one or two translations of
    denominator 2, 4 or 8; other closures skipped."""
    rng = random.Random(seed)
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    groups = []
    while len(groups) < count:
        model = TorusModel(rng.choice((("e", "e", "f", "f"), ("e", "e", "e", "f"), ("e",) * 4)))
        width = rng.randint(0, 1)
        gens = []
        for k in range(rng.randint(3, 4)):
            translation = k >= 2
            L = identity if translation else random_linear(rng, model)
            denom = rng.choice([2, 4, 8] if translation else [1, 2, 3, 4])
            shifts = [
                (F(rng.randrange(denom), denom), F(rng.randrange(denom), denom)) for _ in range(4)
            ]
            parities = tuple(0 if translation else rng.randint(0, 1) for _ in range(width))
            gens.append(Element.of(model, L, shifts, parities))
        try:
            G = closed(gens)
        except ClosureError:
            continue
        if 64 <= G.order <= 512 and len(set(G.linears)) >= 3:
            groups.append(G)
    return groups


@pytest.fixture(scope="module")
def oracle_groups():
    _, g1, g2, g3 = d8_setup()
    return [closed([g1, g2, g3]), *bundled_groups(), *random_groups(31, 24)]


@pytest.fixture(scope="module")
def four_fold_groups():
    return wide_groups(14, 6)


def test_four_fold_groups_match_the_fraction_oracles(four_fold_groups):
    # larger closures than random_groups reaches: BFS order against composing
    # Fractions from the inputs (`closed` checks generators(G) against them),
    # and every element order against composing powers
    orders = set()
    for G in four_fold_groups:
        elems = elements(G)
        ref = generate_group_by_compose(generators(G), G.model, len(elems[0].parities))
        assert elems == ref
        for e, k in zip(elems, G.element_orders, strict=True):
            orders.add(k)
            assert k == element_order_by_powers(G, e)
    assert max(G.order for G in four_fold_groups) == 512
    assert min(G.order for G in four_fold_groups) == 64
    assert {3, 8, 12} <= orders


def test_linear_part_rows_match_dense_oracles(oracle_groups, four_fold_groups):
    # the sparse S rows against m - 1 dense products; the order gcd over the
    # sparse S rows against the dense rows, and the obstruction over the
    # cycle null rows against the null rows of the SNF of Lhat - I
    for G in [*oracle_groups, *four_fold_groups]:
        D = G.D
        dense = [S_by_powers(L) for L in G.linears]
        snf_nulls = [snf_null_rows(L) for L in G.linears]
        for kind, S in enumerate(dense):
            assert G.parts[kind].S_rows == sparse_rows(S)
        for (kind, t), order in zip(G.entries, G.element_orders, strict=True):
            lp = G.parts[kind]
            k = lp.order * (D // gcd(D, *(sum(map(mul, row, t)) for row in dense[kind])))
            assert order == (2 * k if k % 2 and any(G.kinds[kind][3]) else k)
            assert G.torus_free(kind, t) == obstructed(snf_nulls[kind], t, D)


def obstructed(rows, t, D) -> bool:
    """Whether y t is nonzero mod D for some sparse row y among rows."""
    return any(sum(c * t[j] for j, c in row) % D for row in rows)


@st.composite
def signed_permutations(draw, max_n=4):
    n = draw(st.integers(0, max_n))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return tuple(tuple(signs[i] if perm[i] == j else 0 for j in range(n)) for i in range(n))


@settings(max_examples=300, deadline=None)
@given(L=signed_permutations(), D=st.integers(2, 8), data=st.data())
def test_cycle_rows_match_the_snf_rows(L, D, data):
    # the rows read off the cycles are invariant, as many as the SNF's null
    # rows, and decide every translation over D as they and the certificate
    # do; the S rows are the sparse dense S
    lp, snf = linear_part(L), snf_null_rows(L)
    assert lp.S_rows == sparse_rows(S_by_powers(L))
    assert len(lp.null_rows) == len(snf)
    Lhat = _lhat(L)
    for row in lp.null_rows:
        y = [dict(row).get(j, 0) for j in range(len(Lhat))]
        assert [sum(map(mul, y, col)) for col in zip(*Lhat)] == y
    ts = st.lists(st.integers(0, D - 1), min_size=len(Lhat), max_size=len(Lhat))
    for t in data.draw(st.lists(ts, min_size=1, max_size=6)):
        cycle = obstructed(lp.null_rows, t, D)
        assert cycle == obstructed(snf, t, D)
        if lp.order > 1 or any(t):
            assert fixed_point_free(t, D, lp).free == cycle


def test_kinds_are_distinct_used_and_closed_under_products(oracle_groups, four_fold_groups):
    # the kinds are the image of the group in (signed permutations) x
    # (parities): each appears once, carries an element and every product of
    # two is a kind; one LinearPart per distinct L, shared across parities
    for G in [*oracle_groups, *four_fold_groups]:
        assert len(set(G.kinds)) == len(G.kinds) == len({k for k, _ in G.entries})
        for a in G.kinds:
            for b in G.kinds:
                assert torusquot._compose_codes(a, b, G.D) in G.kinds
        assert len(set(map(id, G.parts))) == len(set(G.linears))
        for kind, L in enumerate(G.linears):
            assert G.parts[kind] is G.parts[G.linears.index(L)]


def test_element_order_matches_powers(oracle_groups):
    orders = set()
    for G in oracle_groups:
        for e, k in zip(elements(G), G.element_orders, strict=True):
            orders.add(k)
            assert k == element_order_by_powers(G, e)
    # odd translation orders, sign flips and parity doubling all occur
    assert {3, 4, 6} <= orders


def test_group_table_certificates_match_fresh_ones(oracle_groups):
    for G in oracle_groups:
        # over the group's D and its kept LinearPart, against the element's
        # own denominator and a fresh one: the same diagonal and witness
        for (kind, t), e in zip(G.entries, elements(G), strict=True):
            if not e.is_identity():
                assert fixed_point_free(t, G.D, G.parts[kind]) == certificate(e)


def test_snf_runs_only_for_a_reported_witness(monkeypatch):
    # the cycle rows decide freeness, so the formal-only group and d8 run no
    # SNF through closure, orders, freeness, forms and Hodge, nor a free
    # `abfib torus` run; neg runs one, for the certificate of its witness
    calls, snf = [], torusquot.smith_normal_form
    monkeypatch.setattr(torusquot, "smith_normal_form", lambda M: calls.append(M) or snf(M))
    G = closed([Element.of(TorusModel(()), [], [], (1, 1))])
    assert len(G.kinds) == 2 and G.linears[0] == G.linears[1]
    G.element_orders, delegated_elements(G), action_free(G), first_fixed(G)
    invariant_form_dims(G), quotient_hodge((FormalFactor(2, -1), FormalFactor(2, -1)), G)
    _, g1, g2, g3 = d8_setup()
    G = closed([g1, g2, g3])
    G.element_orders, action_free(G), first_fixed(G)
    invariant_form_dims(G), quotient_hodge((), G)
    assert len(set(G.linears)) == 8
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["torus", "d8"]) == main(["torus", "bielliptic"]) == 0
    assert calls == []
    neg = closed([Element.of(one_curve(), [[-1]], [(0, 0)])])
    neg.element_orders, action_free(neg)
    assert calls == []
    assert first_fixed(neg)[2].witness is not None
    assert calls == [[[-2, 0], [0, -2]]]


def test_code_path_matches_decoded_fraction_path(oracle_groups):
    # orders, freeness, delegation and the character classes read off the
    # integer codes, against the same quantities on the decoded elements
    outcomes = set()
    for G in oracle_groups:
        elems = elements(G)
        assert G.order == len(elems)
        # orders: test_element_order_matches_powers
        for (k, t), e in zip(G.entries, elems, strict=True):
            if e.is_identity():
                assert not G.torus_free(k, t)  # the torus identity fixes every point
                continue
            free = G.torus_free(k, t)
            assert free == certificate(e).free == fixed_point_free_brute(e), e
            outcomes.add(free)
        delegated = [
            entry
            for entry, e in zip(G.entries, elems)
            if any(e.parities) and (e.is_identity() or not certificate(e).free)
        ]
        assert list(delegated_elements(G)) == delegated
        counted = [e for e in elems if not e.is_identity() and not any(e.parities)]
        fixed = [e for e in counted if not certificate(e).free]
        found = first_fixed(G)
        if fixed:
            L, shifts, cert = found
            assert (L, sum(shifts, ())) == (fixed[0].L, fixed[0].that)
            assert cert == certificate(fixed[0])
        else:
            assert found is None
        # the per-kind weighted average against one principal-minor
        # character per decoded element
        totals = [sum(col) for col in zip(*(graded_character_minors(e.L) for e in elems))]
        assert all(x % G.order == 0 for x in totals)
        assert invariant_form_dims(G) == tuple(x // G.order for x in totals)
    assert outcomes == {True, False}


def test_first_entry_decodes_to_the_identity(oracle_groups):
    for G in oracle_groups:
        kind, t = G.entries[0]
        assert not any(t) and kind == 0
        assert elements(G)[0] == Element.identity(G.model, len(G.kinds[0][3]))


def corrupted_codes():
    """(name, code) pairs over D = 4 on the model (e, e, f) with one parity
    bit: each breaks one rule that `_check_codes` enforces."""
    perm, signs = (0, 1, 2, 3, 4, 5), (1, 1, 1, 1, 1, 1)
    t, par = (0, 0, 0, 0, 0, 0), (0,)
    return [
        ("label-crossing permutation", ((4, 5, 2, 3, 0, 1), signs, t, par)),
        ("unequal block signs", (perm, (1, -1, 1, 1, 1, 1), t, par)),
        ("t == D", (perm, signs, (0, 0, 4, 0, 0, 0), par)),
        ("negative t", (perm, signs, (0, -1, 0, 0, 0, 0), par)),
        ("pair split", ((1, 0, 2, 3, 4, 5), signs, t, par)),
        ("not a permutation", ((0, 1, 0, 1, 4, 5), signs, t, par)),
        ("sign 2", (perm, (2, 2, 1, 1, 1, 1), t, par)),
        ("parity 2", (perm, signs, t, (2,))),
    ]


CHECK_LABELS, CHECK_D, CHECK_WIDTH = ("e", "e", "f"), 4, 1


def check_codes(codes):
    """`_check_codes` on codes that each carry their own translation."""
    torusquot._check_codes(codes, [c[2] for c in codes], CHECK_LABELS, CHECK_D, CHECK_WIDTH)


@pytest.mark.parametrize("name, code", corrupted_codes())
def test_check_codes_rejects_corrupted_codes(name, code):
    valid = ((2, 3, 0, 1, 4, 5), (-1, -1, 1, 1, 1, 1), (3, 0, 1, 2, 0, 3), (1,))
    check_codes([valid])
    with pytest.raises(ValueError):
        check_codes([valid, code])


def test_check_codes_is_not_an_assert_statement():
    # python -O strips assert statements; the closure check must survive it
    script = (
        "import ast, sys\n"
        "from abfib import torusquot\n"
        "for name, code in ast.literal_eval(sys.argv[1]):\n"
        "    try:\n"
        "        torusquot._check_codes(\n"
        f"            [code], [code[2]], {CHECK_LABELS!r}, {CHECK_D}, {CHECK_WIDTH}\n"
        "        )\n"
        "    except ValueError:\n"
        "        continue\n"
        "    sys.exit('accepted: ' + name)\n"
        "print(sys.flags.optimize)\n"
    )
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, repr(corrupted_codes())],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_generate_group_checks_every_closed_code(monkeypatch):
    # a composition that leaves [0, D) is caught before the group is built
    m = TorusModel(("e",))
    shift = Element.of(m, [[1]], [(F(1, 4), 0)])
    translate = torusquot._translate

    def off_by_d(rows, t, D):
        return tuple(x + D * (x == 2) for x in translate(rows, t, D))

    monkeypatch.setattr(torusquot, "_translate", off_by_d)
    with pytest.raises(ValueError, match="translation not reduced"):
        closed([shift])


def test_closure_matches_fraction_oracle(oracle_groups):
    # same elements in the same BFS order as composing Fractions from the
    # inputs (`closed` checks generators(G) against them)
    for G in oracle_groups:
        elems = elements(G)
        ref = generate_group_by_compose(generators(G), G.model, len(elems[0].parities))
        assert elems == ref


def test_closure_cap():
    m = TorusModel(("e",))
    shift = Element.of(m, [[1]], [(F(1, 2048), 0)])
    with pytest.raises(ClosureError):
        closed([shift])
    with pytest.raises(ClosureError):
        generate_group_by_compose([shift], m, 0)


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_known_matrix():
    M = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    U, D, V = smith_normal_form(M)
    assert [D[i][i] for i in range(3)] == [2, 6, 12]
    assert mat_mul(mat_mul([list(r) for r in U], M), [list(r) for r in V]) == [
        list(r) for r in D
    ]


def test_snf_properties_random():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        U, D, V = smith_normal_form(M)
        assert mat_mul(mat_mul([list(r) for r in U], M), [list(r) for r in V]) == [
            list(r) for r in D
        ]
        assert abs(frac_det(U)) == 1
        assert abs(frac_det(V)) == 1
        diag = [D[i][i] for i in range(min(m, n))]
        assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0


def sympy_diagonal(M):
    """SNF diagonal by sympy, an independent second implementation."""
    D = sympy_snf(Matrix(M), domain=ZZ)
    return [abs(int(D[i, i])) for i in range(min(D.shape))]


def test_snf_diagonal_matches_sympy():
    rng = random.Random(5)  # the matrices of test_snf_properties_random
    mats = []
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mats.append([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
    # Lhat - I for every signed permutation L with n <= 3
    for n in range(1, 4):
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((-1, 1), repeat=n):
                L = [[signs[i] * (perm[i] == j) for j in range(n)] for i in range(n)]
                Lhat = lhat(Element.of(TorusModel(("e",) * n), L, [(0, 0)] * n))
                mats.append([[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(Lhat)])
    assert len(mats) == 60 + 2 + 8 + 48
    for M in mats:
        _, D, _ = smith_normal_form(M)
        assert [D[i][i] for i in range(min(len(D), len(D[0])))] == sympy_diagonal(M)


# ---------------------------------------------------------------------------
# fixed points


def one_curve(label="e"):
    return TorusModel((label,))


def test_negation_has_fixed_points():
    m = one_curve()
    neg = Element.of(m, [[-1]], [(0, 0)])
    cert = certificate(neg)
    assert not cert.free
    assert cert.witness is not None
    # the 2-torsion points, found independently on the half-integer grid
    assert len(grid_fixed_points(neg, 2)) == 4
    assert fixed_point_free_brute(neg) is False


def test_half_shift_is_free():
    m = one_curve()
    shift = Element.of(m, [[1]], [(F(1, 2), 0)])
    cert = certificate(shift)
    assert cert.free
    assert cert.witness is None
    assert grid_fixed_points(shift, 8) == []
    assert fixed_point_free_brute(shift) is True


def test_period_shift_is_free():
    m = one_curve()
    shift = Element.of(m, [[1]], [(0, F(1, 2))])
    assert certificate(shift).free
    assert fixed_point_free_brute(shift) is True


def test_negation_with_quarter_shift():
    # fixed points exist but only at denominator 8 = 2 * 4: the grid must be
    # twice as fine as the translation denominator
    m = one_curve()
    f = Element.of(m, [[-1]], [(F(1, 4), 0)])
    cert = certificate(f)
    assert not cert.free
    assert cert.witness[0].denominator == 8
    assert grid_fixed_points(f, 4) == []
    assert len(grid_fixed_points(f, 8)) == 4
    assert fixed_point_free_brute(f) is False


def test_identity_rejected():
    m = one_curve()
    with pytest.raises(ValueError):
        certificate(Element.identity(m))
    with pytest.raises(ValueError):
        fixed_point_free_brute(Element.identity(m))


def test_gamma1_on_e3_e4():
    m = TorusModel(("e3", "e4"))
    f = Element.of(m, [[1, 0], [0, -1]], [(F(1, 2), 0), (F(1, 4), 0)])
    assert certificate(f).free
    assert fixed_point_free_brute(f) is True


def test_d8_action_is_free():
    m, g1, g2, g3 = d8_setup()
    G = closed([g1, g2, g3])
    assert action_free(G)
    for e in elements(G):
        if not e.is_identity():
            assert fixed_point_free_brute(e) is True


def random_auto(rng, n, max_label_groups=2):
    """Random signed permutation that respects curve labels, random shifts."""
    labels = tuple(f"e{rng.randrange(max_label_groups)}" for _ in range(n))
    perm = list(range(n))
    for lab in set(labels):
        idx = [i for i in range(n) if labels[i] == lab]
        tgt = idx[:]
        rng.shuffle(tgt)
        for i, j in zip(idx, tgt):
            perm[i] = j
    L = [[0] * n for _ in range(n)]
    for i in range(n):
        L[i][perm[i]] = rng.choice([-1, 1])
    denom = rng.choice([1, 2, 4, 8])
    shifts = [(F(rng.randrange(denom), denom), F(rng.randrange(denom), denom)) for _ in range(n)]
    return Element.of(TorusModel(labels), L, shifts)


def test_snf_agrees_with_brute_force_sample():
    rng = random.Random(11)
    checked = 0
    while checked < 80:
        auto = random_auto(rng, rng.randint(1, 3))
        if auto.is_identity():
            continue
        assert certificate(auto).free == fixed_point_free_brute(auto)
        checked += 1


def test_group_certificates_match_brute_force():
    # every non-identity torus part of seeded random groups (shift
    # denominators 1-4), against the grid search rather than a second SNF
    outcomes = []
    for G in random_groups(47, 12):
        for (kind, t), e in zip(G.entries, elements(G), strict=True):
            if not e.is_identity():
                free = fixed_point_free(t, G.D, G.parts[kind]).free
                assert free == fixed_point_free_brute(e), e
                outcomes.append(free)
    assert True in outcomes and False in outcomes


def test_brute_force_matches_grid_oracle_on_curves():
    rng = random.Random(23)
    for _ in range(40):
        denom = rng.choice([1, 2, 4])
        m = one_curve()
        auto = Element.of(
            m,
            [[rng.choice([-1, 1])]],
            [(F(rng.randrange(denom), denom), F(rng.randrange(denom), denom))],
        )
        if auto.is_identity():
            continue
        pts = grid_fixed_points(auto, 2 * denom)
        assert fixed_point_free_brute(auto) == (not pts)
        assert certificate(auto).free == (not pts)


# ---------------------------------------------------------------------------
# invariant forms


def test_exterior_trace_small():
    L = [[0, -1], [1, 0]]
    assert graded_character(L) == [1, 0, 1]
    I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert graded_character(I3) == [1, 3, 3, 1]


def signed_permutations(n):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield [[signs[i] * (perm[i] == j) for j in range(n)] for i in range(n)]


def test_graded_character_matches_principal_minors():
    mats = [L for n in range(5) for L in signed_permutations(n)]
    assert len(mats) == 1 + 2 + 8 + 48 + 384  # n = 0..4; 442 with n >= 1
    for L in mats:
        assert graded_character(L) == graded_character_minors(L), L


def test_invariant_forms_d8():
    m, g1, g2, g3 = d8_setup()
    G = closed([g1, g2, g3])
    assert invariant_form_dims(G) == (1, 1, 0, 1, 1)


def test_invariant_forms_trivial_group():
    m = TorusModel(("a", "b", "c", "d"))
    G = closed([], model=m)
    assert invariant_form_dims(G) == (1, 4, 6, 4, 1)


def test_invariant_forms_bielliptic_torus():
    m = TorusModel(("e1", "e2"))
    gamma = Element.of(m, [[1, 0], [0, -1]], [(F(1, 2), 0), (0, 0)])
    G = closed([gamma])
    assert invariant_form_dims(G) == (1, 1, 0)


def test_invariant_forms_ignore_translations():
    m, g1, g2, g3 = d8_setup()
    zeroed = [
        Element.of(m, g.L, [(0, 0)] * 4) for g in (g1, g2, g3)
    ]
    G = closed(zeroed)
    assert invariant_form_dims(G) == (1, 1, 0, 1, 1)


# ---------------------------------------------------------------------------
# quotient Hodge numbers


def bielliptic_group():
    m = TorusModel(("e1", "e2"))
    gamma = Element.of(m, [[1, 0], [0, -1]], [(F(1, 2), 0), (0, 0)], (1,))
    return closed([gamma])


def test_hodge_d8():
    m, g1, g2, g3 = d8_setup()
    G = closed([g1, g2, g3])
    h = quotient_hodge((), G)
    assert h.h_q == (1, 1, 0, 1, 1)
    assert h.h_q[1:4] == (1, 0, 1)


def test_hodge_bielliptic():
    G = bielliptic_group()
    assert action_free(G)
    h = quotient_hodge((FormalFactor(2, -1),), G)
    assert h.h_q == (1, 1, 0, 1, 1)
    assert h.h_q[1:4] == (1, 0, 1)


def test_hodge_enriques_pair():
    m = TorusModel(())
    G = closed([Element.of(m, [], [], (1, 1))])
    assert G.order == 2
    assert len(delegated_elements(G)) == 1
    assert action_free(G)  # vacuous on the torus block; freeness is delegated
    h = quotient_hodge((FormalFactor(2, -1), FormalFactor(2, -1)), G)
    assert h.h_q == (1, 0, 0, 0, 1)


def test_hodge_trivial_four_torus():
    m = TorusModel(("a", "b", "c", "d"))
    G = closed([], model=m)
    h = quotient_hodge((), G)
    assert h.h_q == (1, 4, 6, 4, 1)


def test_hodge_elliptic_times_cy3():
    m = one_curve()
    G = closed([], model=m, parity_width=1)
    h = quotient_hodge((FormalFactor(3, -1),), G)
    assert h.h_q == (1, 1, 0, 1, 1)


def test_hodge_rejects_wrong_dimension():
    G = bielliptic_group()
    with pytest.raises(ValueError):
        quotient_hodge((), G)


def test_hodge_nontrivial_canonical():
    # the Hodge numbers come back whatever h^{4,0} is, and the report decides
    # canonical triviality: here the K3 2-form is invariant and dz1 ^ dz2 is
    # not, so h^{4,0} = 0
    G = bielliptic_group()
    h = quotient_hodge((FormalFactor(2, 1),), G)
    assert h.h_q == (1, 1, 1, 1, 0)
