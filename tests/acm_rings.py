"""Generators of arithmetically Cohen-Macaulay rings that are not complete
intersections, written as ring data (variable names and relation strings)
for tests that check the code against closed-form invariants."""

from itertools import combinations_with_replacement, product
from operator import add


def generic_minors(c: int) -> tuple[list[str], list[str]]:
    """The 2 x 2 minors ``x_a*y_b - x_b*y_a`` (a < b) of the generic 2 x c
    matrix with rows ``x_1..x_c`` and ``y_1..y_c``: the rational normal
    scroll, Segre ``P^1 x P^(c-1)``, in 2c variables."""
    xs = [f"x{a}" for a in range(1, c + 1)]
    ys = [f"y{a}" for a in range(1, c + 1)]
    minors = [
        f"{xs[a]}*{ys[b]} - {xs[b]}*{ys[a]}"
        for a in range(c)
        for b in range(a + 1, c)
    ]
    return xs + ys, minors


def veronese(n: int, k: int) -> tuple[list[str], list[str]]:
    """The Veronese ring ``v_k(P^(n-1))``: one variable ``x_a`` per exponent
    vector a of degree k in n letters (``x_2_0_1`` for a = (2, 0, 1)), and
    the binomials ``x_a*x_b - x_c*x_d`` with a + b = c + d.  Of each set of
    products with one sum, the first is paired with every other; the other
    binomials are their differences.  Its Hilbert function is
    ``C(kt + n - 1, n - 1)``."""
    exps = [a for a in product(range(k + 1), repeat=n) if sum(a) == k]
    name = {a: "x_" + "_".join(map(str, a)) for a in exps}
    by_sum: dict[tuple, list[str]] = {}
    for a, b in combinations_with_replacement(exps, 2):
        by_sum.setdefault(tuple(map(add, a, b)), []).append(f"{name[a]}*{name[b]}")
    relations = [
        f"{first} - {other}" for first, *others in by_sum.values() for other in others
    ]
    return [name[a] for a in exps], relations


def rational_normal_curve(k: int) -> tuple[list[str], list[str]]:
    """The 2 x 2 minors ``x_i*x_(j+1) - x_j*x_(i+1)`` (i < j) of the Hankel
    matrix with rows ``x_0..x_(k-1)`` and ``x_1..x_k``: the rational normal
    curve of degree k in k + 1 variables, Hilbert function ``kt + 1``."""
    xs = [f"x{i}" for i in range(k + 1)]
    minors = [
        f"{xs[i]}*{xs[j + 1]} - {xs[j]}*{xs[i + 1]}"
        for i in range(k)
        for j in range(i + 1, k)
    ]
    return xs, minors
