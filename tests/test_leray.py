from dataclasses import dataclass
from math import isqrt

import pytest

from abfib.leray import DirectImageData, total_coh
from abfib.sheafcalc import Cotangent, DirectSum, Line, coh_line


@dataclass(frozen=True)
class DegreeSolutions:
    """Degrees k with h^2(O(k)) equal to a target.

    `finite` lists isolated solutions; `all_k_at_least` is set when the
    solution set is co-finite (target 0: every k >= -2).
    """

    finite: frozenset[int]
    all_k_at_least: int | None = None

    def __contains__(self, k: int) -> bool:
        if self.all_k_at_least is not None and k >= self.all_k_at_least:
            return True
        return k in self.finite

    def __str__(self) -> str:
        if self.all_k_at_least is not None:
            parts = [f"k >= {self.all_k_at_least}"]
            parts += [str(k) for k in sorted(self.finite)]
            return "{" + ", ".join(parts) + "}"
        return "{" + ", ".join(str(k) for k in sorted(self.finite)) + "}"


def solve_R2(h4_target: int) -> DegreeSolutions:
    """All degrees k with h^2(O(k)) = h4_target.

    h^2(O(k)) = h^0(O(-k-3)) runs through the triangular numbers as k
    decreases from -3, so positive targets have at most one solution.
    """
    if h4_target < 0:
        raise ValueError("cohomology target must be >= 0")
    if h4_target == 0:
        return DegreeSolutions(frozenset(), all_k_at_least=-2)
    # (j+1)(j+2)/2 = target with j = -k-3 >= 0
    disc = 1 + 8 * h4_target
    s = isqrt(disc)
    if s * s != disc:
        return DegreeSolutions(frozenset())
    j, rem = divmod(s - 3, 2)
    if rem != 0 or j < 0:
        return DegreeSolutions(frozenset())
    assert coh_line(-j - 3).h2 == h4_target
    return DegreeSolutions(frozenset({-j - 3}))


def triple(r1):
    return DirectImageData(Line(0), r1, Line(-3))


def split(a, b):
    return DirectSum((Line(a), Line(b)))


def test_total_coh_of_the_three_fibration_types():
    assert total_coh(triple(split(0, -3))) == (1, 1, 0, 1, 1)
    assert total_coh(triple(split(-1, -2))) == (1, 0, 0, 0, 1)
    assert total_coh(triple(Cotangent())) == (1, 0, 1, 0, 1)


def test_total_coh_with_trivial_rank_two_middle():
    # the (2,2,2)-type bookkeeping: R^1 = O + O forces h^1 = 2
    assert total_coh(triple(split(0, 0)))[1] == 2


def test_total_coh_symmetry():
    # h^3 = h^1 whenever R^1 is self-dual up to the -3 twist; true for all
    # three fibration triples above
    for r1 in (split(0, -3), split(-1, -2), Cotangent()):
        v = total_coh(triple(r1))
        assert v[0] == v[4] == 1
        assert v[1] == v[3]


def test_direct_image_rank_validation():
    with pytest.raises(ValueError):
        DirectImageData(Line(0), Line(1), Line(-3))
    with pytest.raises(ValueError):
        DirectImageData(Cotangent(), split(0, -3), Line(-3))


# independent route: scan a window and compare against solve_R2
def brute_degrees(target, lo=-60, hi=10):
    return {k for k in range(lo, hi + 1) if coh_line(k).h2 == target}


def test_solve_R2_isolated_targets():
    assert solve_R2(1).finite == {-3}
    assert solve_R2(1).all_k_at_least is None
    assert solve_R2(3).finite == {-4}
    assert solve_R2(6).finite == {-5}
    assert solve_R2(2).finite == frozenset()  # skips non-triangular targets


def test_solve_R2_zero_target_is_cofinite():
    sols = solve_R2(0)
    assert sols.all_k_at_least == -2
    assert sols.finite == frozenset()
    assert str(sols) == "{k >= -2}"


def test_solve_R2_against_window_scan():
    for target in range(0, 30):
        sols = solve_R2(target)
        window = {k for k in range(-60, 11) if k in sols}
        assert window == brute_degrees(target)


def test_solve_R2_rejects_negative_target():
    with pytest.raises(ValueError):
        solve_R2(-1)


def test_degree_solutions_membership():
    s = DegreeSolutions(frozenset({-9}), all_k_at_least=-2)
    assert -9 in s and -2 in s and 5 in s
    assert -3 not in s
