#!/usr/bin/env python3
"""Build a strict family of MCM modules and verify its guarantees.

Members are parameterized by matrix pairs (Ax, Ay): the module
M(Ax, Ay) = n Rbar / <columns of I e1 + Ax e2 + Ay e3> is finite length,
and its d-th syzygy over R is a maximal Cohen-Macaulay module.  The
family is strict: members are isomorphic exactly when the matrix pairs
are simultaneously conjugate, and indecomposability transfers.
"""

import json

from cmwild import (
    FamilySpec,
    QuotientRing,
    indecomposability_test,
    iso_test,
    verify_resolution_shape,
    verify_shift_embedding,
)


def main():
    ring = QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"])

    spec = FamilySpec(ring, ["x^2", "y^2"], 4, [[1]], Ay=[[2]])
    print("frame: c =", spec.c, " basis =", [str(e) for e in spec.basis])

    member = spec.member
    print("member relation:", [str(p) for p in member.free.component_polys(
        member.relations[0])])
    print("member Hilbert function:", member.hilbert_function())

    omega = spec.syzygy
    print("syzygy generators in degrees:", list(omega.gen_degrees))
    print("sequence regular on the syzygy:", spec.mcm_verified)
    print()

    # distinct scalars give non-isomorphic members, conjugate Jordan data
    # give isomorphic ones, and the runtime hands back exact witnesses
    other = FamilySpec(ring, ["x^2", "y^2"], 4, [[1]], Ay=[[3]])
    print("scalar (1,2) vs (1,3):", iso_test(spec, other).outcome)

    jordan = FamilySpec(ring, ["x^2", "y^2"], 4,
                        [[0, 1], [0, 0]], Ay=[[1, 0], [0, 1]])
    scaled = FamilySpec(ring, ["x^2", "y^2"], 4,
                        [[0, 9], [0, 0]], Ay=[[1, 0], [0, 1]])
    cert = iso_test(jordan, scaled)
    print("Jordan vs scaled Jordan:", cert.outcome,
          " witness:", cert.witness)

    ind = indecomposability_test(jordan)
    print("Jordan member indecomposable:", ind["verdict"])
    print()

    # the two structural facts behind strictness, checked exactly
    shift = verify_shift_embedding(spec)
    shape = verify_resolution_shape(spec)
    print("shift embedding:", "pass" if shift["passed"] else "FAIL")
    for row in shift["rows"]:
        if row["submodule"] or row["shifted_member"]:
            print(f"   t = {row['t']}: submodule {row['submodule']},"
                  f" member shifted {row['shifted_member']}")
    print("resolution shape:", "pass" if shape["passed"] else "FAIL")
    for row in shape["rows"]:
        print(f"   i = {row['i']}: koszul {row['koszul']},"
              f" resolution {row['resolution']}, bound {row['bound']}")
    print()

    print("instance JSON:")
    print(json.dumps(spec.to_json(), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
