"""Generators of arithmetically Cohen-Macaulay rings that are not complete
intersections, written as ring data (variable names and relation strings)
for tests that check the code against closed-form invariants."""


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
