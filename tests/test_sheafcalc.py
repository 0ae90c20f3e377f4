"""Sheaf-calculus tests.

The cotangent-twist table is checked against an independent oracle that
works the twisted Euler sequence 0 -> Omega^1(k) -> O(k-1)^3 -> O(k) -> 0
mechanically: monomial counting for h^0/h^2 of line bundles and exact
matrix ranks for the multiplication maps.  The only classical input the
oracle takes on faith is h^1(O(j)) = 0 on the plane.
"""

import itertools
from fractions import Fraction

import pytest

from abfib.sheafcalc import (
    ChernPair,
    CohVector,
    Cotangent,
    DirectSum,
    Line,
    chern,
    coh,
    coh_cotangent_twist,
    coh_line,
    riemann_roch,
    sym6_dual_twist,
)


def twist_chern(c: ChernPair, k: int) -> ChernPair:
    """Chern data of V(k) given that of V; ranks 1 and 2 only."""
    if c.rank == 1:
        return ChernPair(1, c.c1 + k, 0)
    if c.rank == 2:
        return ChernPair(2, c.c1 + 2 * k, c.c2 + k * c.c1 + k * k)
    raise ValueError(f"unsupported rank {c.rank}")


# ---------------------------------------------------------------------------
# oracle


def monomials(d):
    if d < 0:
        return []
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]


def h0_oracle(k):
    return len(monomials(k))


def h2_oracle(k):
    return len(monomials(-k - 3))


def exact_rank(rows):
    """Row reduction over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    col = 0
    ncols = len(m[0]) if m else 0
    while rank < len(m) and col < ncols:
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def mult_map_rank(src_deg, dst_deg):
    """Rank of (f0,f1,f2) -> x0 f0 + x1 f1 + x2 f2 on global sections."""
    src = monomials(src_deg)
    dst = monomials(dst_deg)
    if not src or not dst:
        return 0
    index = {m: r for r, m in enumerate(dst)}
    cols = []
    for i in range(3):
        for mono in src:
            shifted = list(mono)
            shifted[i] += 1
            col = [0] * len(dst)
            col[index[tuple(shifted)]] = 1
            cols.append(col)
    rows = [[cols[c][r] for c in range(len(cols))] for r in range(len(dst))]
    return exact_rank(rows)


def comult_map_rank(src_deg):
    """Rank of f -> (x0 f, x1 f, x2 f) on global sections."""
    src = monomials(src_deg)
    dst = monomials(src_deg + 1)
    if not src:
        return 0
    index = {m: r for r, m in enumerate(dst)}
    rows = []
    for i in range(3):
        for mono in dst:
            row = [0] * len(src)
            for c, m in enumerate(src):
                shifted = list(m)
                shifted[i] += 1
                if tuple(shifted) == mono:
                    row[c] = 1
            rows.append(row)
    return exact_rank(rows)


def cotangent_twist_oracle(k):
    """(h^0, h^1, h^2) of Omega^1(k) from the twisted Euler sequence."""
    rank_alpha = mult_map_rank(k - 1, k)
    h0 = 3 * h0_oracle(k - 1) - rank_alpha
    h1 = h0_oracle(k) - rank_alpha
    # h^2 of the twist is the kernel of H^2(O(k-1))^3 -> H^2(O(k)); that map
    # is Serre-dual to the co-multiplication f -> (x0 f, x1 f, x2 f)
    rank_beta = comult_map_rank(-k - 3)
    h2 = 3 * h2_oracle(k - 1) - rank_beta
    return CohVector(h0, h1, h2)


def test_oracle_self_consistency():
    # the co-multiplication map is injective, so rank equals source h^0
    for k in range(-8, 2):
        assert comult_map_rank(-k - 3) == h2_oracle(k)


# ---------------------------------------------------------------------------
# line bundles


def test_coh_line_table():
    assert coh_line(0) == (1, 0, 0)
    assert coh_line(-3) == (0, 0, 1)
    assert coh_line(6) == (28, 0, 0)
    assert coh_line(-1) == (0, 0, 0)
    assert coh_line(12) == (91, 0, 0)
    assert coh_line(18) == (190, 0, 0)


def test_coh_line_matches_monomial_count():
    for k in range(-15, 16):
        assert coh_line(k) == (h0_oracle(k), 0, h2_oracle(k))


def test_line_serre_duality():
    for k in range(-15, 16):
        v = coh_line(k)
        w = coh_line(-k - 3)
        assert (v.h0, v.h1, v.h2) == (w.h2, w.h1, w.h0)


# ---------------------------------------------------------------------------
# cotangent twists; frozen values were computed with cotangent_twist_oracle


def test_cotangent_twist_frozen_values():
    assert coh_cotangent_twist(0) == (0, 1, 0)
    assert coh_cotangent_twist(1) == (0, 0, 0)
    assert coh_cotangent_twist(3) == (8, 0, 0)


def test_cotangent_twist_against_euler_oracle():
    for k in range(-8, 9):
        assert coh_cotangent_twist(k) == cotangent_twist_oracle(k), k


def test_cotangent_twist_euler_characteristic():
    for k in range(-20, 21):
        assert coh_cotangent_twist(k).chi == k * k - 1


# ---------------------------------------------------------------------------
# Chern data and Riemann-Roch


def split(a, b):
    return DirectSum((Line(a), Line(b)))


def test_chern_examples():
    assert chern(split(-1, -2)) == (2, -3, 2)
    assert chern(split(0, -3)) == (2, -3, 0)
    assert chern(Cotangent()) == (2, -3, 3)


def test_riemann_roch_examples():
    assert riemann_roch(ChernPair(2, -3, 0)) == 2
    assert riemann_roch(ChernPair(2, -3, 2)) == 0
    assert riemann_roch(ChernPair(2, 0, 0)) == 2
    assert riemann_roch(ChernPair(1, 0, 0)) == 1
    assert riemann_roch(ChernPair(1, -3, 0)) == 1


def test_riemann_roch_rejects_bad_rank():
    with pytest.raises(ValueError):
        riemann_roch(ChernPair(3, 0, 0))
    with pytest.raises(ValueError):
        riemann_roch(ChernPair(1, 0, 5))


def test_twist_chern_examples():
    assert twist_chern(ChernPair(2, -3, 0), 1) == (2, -1, -2)
    assert twist_chern(ChernPair(2, -3, 2), 1) == (2, -1, 0)


def test_twist_raises_chi_by_c1_plus_4():
    # chi(V(1)) = chi(V) + c1 + 4 for every rank-2 V on the plane
    for c1 in range(-10, 5):
        for c2 in range(-6, 7):
            c = ChernPair(2, c1, c2)
            assert riemann_roch(twist_chern(c, 1)) == riemann_roch(c) + c1 + 4


def test_riemann_roch_agrees_with_cohomology():
    for a in range(-9, 5):
        for b in range(-9, a + 1):
            e = split(a, b)
            assert coh(e).chi == riemann_roch(chern(e))
    for k in range(-7, 8):
        assert coh_cotangent_twist(k).chi == riemann_roch(twist_chern(chern(Cotangent()), k))


def test_twist_chern_matches_normal_form():
    # O(a)+O(b) twisted by k is O(a+k)+O(b+k)
    for a in range(-5, 4):
        for b in range(-5, 4):
            for k in range(-3, 4):
                assert twist_chern(chern(split(a, b)), k) == chern(split(a + k, b + k))


# ---------------------------------------------------------------------------
# expression calculus


def test_coh_of_split_bundles():
    assert coh(split(0, -3)) == (1, 0, 1)
    assert coh(split(-1, -2)) == (0, 0, 0)
    assert coh(Cotangent()) == (0, 1, 0)


def test_serre_duality_for_supported_expressions():
    # the Serre dual of O(a) is O(-a-3) and that of Omega^1(k) is
    # T(-k-3) = Omega^1(-k), so Omega^1 is its own Serre dual
    def swapped(v, w):
        return (v.h0, v.h1, v.h2) == (w.h2, w.h1, w.h0)

    for a in range(-6, 4):
        for b in range(-6, a + 1):
            assert swapped(coh(split(a, b)), coh(split(-a - 3, -b - 3)))
            assert swapped(
                coh(DirectSum((Line(a), Line(b), Cotangent()))),
                coh(DirectSum((Line(-a - 3), Line(-b - 3), Cotangent()))),
            )
    for k in range(-6, 7):
        assert swapped(coh_cotangent_twist(k), coh_cotangent_twist(-k))


def test_direct_sum_needs_two_summands():
    with pytest.raises(ValueError):
        DirectSum((Line(1),))


# ---------------------------------------------------------------------------
# sextic coefficient degrees


def test_sym6_dual_twist_examples():
    assert sym6_dual_twist(0, -3, -6) == [-6, -3, 0, 3, 6, 9, 12]
    assert sym6_dual_twist(-1, -2, -6) == [0, 1, 2, 3, 4, 5, 6]
    assert sorted(sym6_dual_twist(-1, -2, -6), reverse=True) == [6, 5, 4, 3, 2, 1, 0]
    assert sym6_dual_twist(0, 0, 0) == [0] * 7
    assert sym6_dual_twist(-2, -2, -6) == [6] * 7


def test_sym6_dual_twist_is_symmetric_in_summands():
    for a in range(-4, 3):
        for b in range(-4, 3):
            assert sym6_dual_twist(a, b, -6) == sym6_dual_twist(b, a, -6)


def test_sym6_matches_expression_normal_form():
    # degrees agree (as multisets) with the degree-6 monomials in the
    # summands O(-a), O(-b) of the dual, twisted by t
    for a in range(-4, 3):
        for b in range(-4, 3):
            for t in (-6, 0, 3):
                monomials = itertools.combinations_with_replacement((-a, -b), 6)
                degs = sorted(t + sum(m) for m in monomials)
                assert degs == sorted(sym6_dual_twist(a, b, t))
