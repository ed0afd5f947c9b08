#!/usr/bin/env python3
"""Minimal free resolutions, Koszul complexes, and the comparison map.

Builds the Koszul complex on a verified regular sequence, checks that it
agrees with the stepwise minimal resolution of the quotient, and lifts
the identity to a certified chain map from the Koszul complex into the
resolution of a more interesting module.
"""

from cmwild import (
    ModulePresentation,
    QuotientRing,
    comparison_map,
    koszul_complex,
    minimal_resolution,
)


def betti_table(res):
    rows = {}
    for (i, j), r in res.betti().items():
        rows.setdefault(i, []).append((j, r))
    return {i: sorted(v) for i, v in sorted(rows.items())}


def main():
    ring = QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"])
    ys = [ring.parse("x^2"), ring.parse("y^2")]

    kos = koszul_complex(ring, ys)
    print("Koszul complex on (x^2, y^2):")
    for i in range(kos.length + 1):
        print(f"  K_{i}: twists {kos.frees[i].twists}")

    # the quotient by a regular sequence resolves by its Koszul complex;
    # the generic machinery has to rediscover that shape
    pres = ModulePresentation(
        ring, [0], [{(0, m): c for m, c in y.terms.items()} for y in ys]
    )
    res = minimal_resolution(pres, 2)
    print("minimal resolution of R/(x^2, y^2):", betti_table(res))
    print("matches Koszul:", res.betti() == kos.betti())
    print()

    # a module that is NOT resolved by the Koszul complex alone: the
    # Koszul part still splits in, everything else sits in high degrees
    member = ModulePresentation(
        ring,
        [0],
        [
            {(0, (1, 1, 2)): 1, (0, (1, 0, 3)): 1, (0, (0, 1, 3)): 2},
            {(0, (2, 0, 0)): 1},
            {(0, (0, 2, 0)): 1},
        ],
    )
    res2 = minimal_resolution(member, 3)
    print("resolution of the member module:", betti_table(res2))
    phis = comparison_map(kos, res2)
    for i, phi in enumerate(phis):
        entries = sum(1 for col in phi.columns for _ in col)
        print(f"  phi_{i}: K_{i} -> F_{i}, {entries} nonzero terms")
    print("chain map certified (construction raises otherwise)")


if __name__ == "__main__":
    main()
