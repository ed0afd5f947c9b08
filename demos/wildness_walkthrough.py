#!/usr/bin/env python3
"""Walk the wildness criterion across four rings.

The test is one-sided: find a regular sequence y of full length, pass to
the Artinian reduction Rbar = R/(y), and scan degrees c past the socle
threshold.  A component of dimension >= 3 certifies CM-wild, dimension 2
certifies strictly CM-infinite, and anything less proves nothing.
"""

from cmwild import (
    QuotientRing,
    artinian_reduction,
    find_regular_sequence,
    wildness_certificate,
)

CASES = [
    ("quartic surface", ["x", "y", "z"], ["x^4+y^4+z^4"]),
    ("binary quartic", ["x", "y"], ["x^4+y^4"]),
    ("cubic surface", ["x", "y", "z"], ["x^3+y^3+z^3"]),
    ("cubic-quadric CI", ["x0", "x1", "x2", "x3"],
     ["x0^3+x1^3+x2^3+x3^3", "x0*x1+x2*x3"]),
]


def main():
    for name, variables, relations in CASES:
        ring = QuotientRing.from_strings(variables, relations)
        rep = wildness_certificate(ring)
        print(f"== {name}  (dim {rep.dimension})")
        print("   sequence:", ", ".join(str(y) for y in rep.sequence),
              f"  m = {rep.m}")
        _, rbar = artinian_reduction(ring, rep.sequence)
        print("   reduction Hilbert function:", rbar.hilbert_function())
        for c, dim in rep.scan:
            marker = " <-- witness" if c == rep.witness_c else ""
            print(f"   c = {c}: dim = {dim}{marker}")
        print("   verdict:", rep.verdict)
        print()

    # the recipe matters: plain variables on the quartic surface would
    # leave a one-dimensional tail and prove nothing
    ring = QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"])
    seq, _ = find_regular_sequence(ring)
    print("recipe sequence for the quartic surface:",
          ", ".join(str(y) for y in seq))


if __name__ == "__main__":
    main()
