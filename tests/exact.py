"""Exact ranks over the rationals: ground truth for the fingerprint core.

An integer matrix A, such as R(x, Jx) of small-integer generators on an
integer line x, whose float entries are exact, has exact ranks of its
shifted powers (A - i lam I)^k for rational lam.  The complex map
u + iv -> (A - i lam)(u + iv) = (A u + lam v) + i(A v - lam u) is the real
map [[A, lam I], [-lam I, A]] on (u, v), its realification; the real rank of
a realification is twice the complex rank, and the realification of a power
is the power of the realification.  So rank_C((A - i lam I)^k) is half the
rank over Q of [[A, lam I], [-lam I, A]]^k, which Gaussian elimination over
fractions.Fraction gives exactly.

Standard library only: the test environment has numpy, pytest and
hypothesis, and no computer algebra system.
"""

from fractions import Fraction


def integer_matrix(rows) -> list[list[int]]:
    """The rows of a square matrix of integral numbers (floats included) as
    Python ints; raises ValueError on an entry that is not an integer."""
    out = [[int(v) for v in row] for row in rows]
    if any(int(v) != v for row in rows for v in row) or any(len(row) != len(out) for row in out):
        raise ValueError("expected a square matrix of integers")
    return out


def rank(rows) -> int:
    """Rank over Q of a matrix of ints or Fractions, by Gaussian elimination."""
    rest = [[Fraction(v) for v in row] for row in rows]
    found = 0
    while rest and rest[0]:
        pivot = next((row for row in rest if row[0]), None)
        if pivot is not None:
            found += 1
            rest = [[v - row[0] / pivot[0] * p for v, p in zip(row, pivot)]
                    for row in rest if row is not pivot]
        rest = [row[1:] for row in rest]
    return found


def _matmul(a: list[list], b: list[list]) -> list[list]:
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def shifted_power_ranks(a: list[list[int]], lam: Fraction | int, powers: int) -> tuple[int, ...]:
    """rank_C((A - i lam I)^k) for k = 1..powers, for a square integer matrix A
    and a rational lam: half the rank over Q of the k-th power of the
    realification [[A, lam I], [-lam I, A]]."""
    n = len(a)
    eye = [[lam if i == j else 0 for j in range(n)] for i in range(n)]
    real = ([row + shift for row, shift in zip(a, eye)]
            + [[-v for v in shift] + row for row, shift in zip(a, eye)])
    power, ranks = real, []
    for k in range(powers):
        if k:
            power = _matmul(power, real)
        r = rank(power)
        assert r % 2 == 0, "the realification of a complex map has even rank"
        ranks.append(r // 2)
    return tuple(ranks)
