"""The differentials of fixed resolutions, pinned as values.

Golden reports pin only invariants (Betti numbers, Hilbert functions), so
these digests are what shows that a change to the resolution code computes
the same matrices.  Each case is hashed as the twists of every free module,
then every column of every differential, written canonically as a sorted
list of ``((position, exponents), coefficient)`` pairs: the digest does not
depend on the order of a column's dict.  Family members also pin their
comparison maps from the n-fold Koszul complex.
"""

import hashlib
import json

import pytest

from cmwild.family import FamilySpec
from cmwild.modules import ModulePresentation
from cmwild.resolution import comparison_map, koszul_complex, minimal_resolution
from cmwild.rings import QuotientRing

RINGS = {
    "fermat": (["x", "y", "z"], ["x^4+y^4+z^4"]),
    "binary": (["x", "y"], ["x^4+y^4"]),
    "cubic": (["x", "y", "z"], ["x^3+y^3+z^3"]),
    "ci": (["x0", "x1", "x2", "x3"], ["x0^3+x1^3+x2^3+x3^3", "x0*x1+x2*x3"]),
}

# name -> (ring, sequence, c, Ax, Ay)
MEMBERS = {
    "fermat-n1": ("fermat", ["x^2", "y^2"], 4, [[1]], [[2]]),
    "fermat-n2": ("fermat", ["x^2", "y^2"], 4, [[0, 1], [0, 0]], [[1, 0], [0, 1]]),
    "fermat-n3": (
        "fermat", ["x^2", "y^2"], 4,
        [[1, 1, 0], [0, 1, 0], [0, 0, 2]], [[3, 0, 0], [0, 3, 0], [0, 0, 5]],
    ),
    # the Jordan block with eigenvalue 1 and its square
    "fermat-jordan3": (
        "fermat", ["x^2", "y^2"], 4,
        [[1, 1, 0], [0, 1, 1], [0, 0, 1]], [[1, 2, 1], [0, 1, 2], [0, 0, 1]],
    ),
    "binary-n1": ("binary", ["x^2"], 3, [[4]], None),
    "binary-n2": ("binary", ["x^2"], 3, [[2, 1], [0, 3]], None),
    "binary-n3": ("binary", ["x^2"], 3, [[1, 2, 0], [0, 3, 1], [1, 0, 2]], None),
    "binary-jordan2": ("binary", ["x^2"], 3, [[1, 1], [0, 1]], None),
}

# ring -> the sequence of ``resolve --ring RING --sequence x^2,y^2``; the
# complete intersection names its variables x0..x3
SEQUENCES = {
    "fermat": ["x^2", "y^2"],
    "binary": ["x^2", "y^2"],
    "cubic": ["x^2", "y^2"],
    "ci": ["x0^2", "x1^2"],
}


def ring(name):
    return QuotientRing.from_strings(*RINGS[name])


def canonical(free_maps):
    """Columns as sorted ((position, exponents), coefficient) lists."""
    return [[sorted(col.items()) for col in f.columns] for f in free_maps]


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def resolution_payload(res):
    return {
        "twists": [list(f.twists) for f in res.frees],
        "maps": canonical(res.maps[i] for i in sorted(res.maps)),
        "terminated": res.terminated,
    }


def member_payloads(name):
    rname, seq, c, Ax, Ay = MEMBERS[name]
    spec = FamilySpec(ring(rname), seq, c, Ax, Ay=Ay)
    res = spec.resolution
    kos = koszul_complex(spec.ring, spec.sequence, copies=spec.n)
    return resolution_payload(res), canonical(comparison_map(kos, res))


def sequence_payload(rname):
    R = ring(rname)
    ys = [R.parse(s) for s in SEQUENCES[rname]]
    pres = ModulePresentation(R, [0], [{(0, m): c for m, c in y.terms.items()} for y in ys])
    # the length ``resolve`` uses by default
    return resolution_payload(minimal_resolution(pres, len(ys)))


# name -> (resolution digest, comparison-map digest)
MEMBER_DIGESTS = {
    "binary-jordan2": (
        "37b9d0063025a03ab0ab2b237987e477a9a19edf9e6b42ca67d517264ace9c95",
        "b4381f1858b655ec8b89718c7d3f32f344f14a7081efc73f89a783a6556ad2c5",
    ),
    "binary-n1": (
        "2e25d3957e6873e801829f7526bdc7136d53c5a8756dd8d218b1310bf32707f3",
        "6985e5f9ae94c2ed3680897cf570a4335981118a17ab7012c5132edfa02fa2c9",
    ),
    "binary-n2": (
        "bad65d29080c3cb21102b85199d8a29d1cd00695242acd91ec798dc2b202b8d1",
        "b4381f1858b655ec8b89718c7d3f32f344f14a7081efc73f89a783a6556ad2c5",
    ),
    "binary-n3": (
        "7523819289739d0d447e098a9c88ac3d3a46a5f7aeec58a963f314b552204c40",
        "507beac9ae14ed1eee3c51242687c6bfa5405f5e3f99be232f664d7cc6122488",
    ),
    "fermat-jordan3": (
        "8ed229e3e924ed993a7e3b360285474834de872e67875d5f8054bd4f45eaa4af",
        "47f2d7c2274054d796564f3fe036c6e5611a05a265ee81ab2068a5f7c93f779b",
    ),
    "fermat-n1": (
        "590cec2b67736e27d4d9df17ec44503cb119734999e612d1389c19563c99297f",
        "391edd1a3988a0f79da8888add4fddbd0d97afb6e3883e9676a5ef311eaac993",
    ),
    "fermat-n2": (
        "a39575c446987ee7b84cce91ea69ea69c3c86d9e9ce9dcdf3edf1904829a1e82",
        "055aad03cffd17babb805ef0a3f6b256cb7ce32625ad30f9aa6988a0a2a07017",
    ),
    "fermat-n3": (
        "719ee59bce33ec857060ccdd5815c5b977b0e3568f575af0263d41b087d7970a",
        "47f2d7c2274054d796564f3fe036c6e5611a05a265ee81ab2068a5f7c93f779b",
    ),
}

SEQUENCE_DIGESTS = {
    "binary": "8b5d6d4807e990b43e208e86eb1e2bdbcd45fdc76328bd151202292208283344",
    "ci": "e4c3debdcb58677b68454a425a5ee9f6b8d0cf205bbe21691c7e378b6567b38a",
    "cubic": "a0f17ebb1aa3905089e93ab8fff70c2b2324c38d767db6e7676897b8339e5d67",
    "fermat": "a0f17ebb1aa3905089e93ab8fff70c2b2324c38d767db6e7676897b8339e5d67",
}


@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_member_differentials_pinned(name):
    res, phis = member_payloads(name)
    assert (digest(res), digest(phis)) == MEMBER_DIGESTS[name]


@pytest.mark.parametrize("rname", sorted(SEQUENCES))
def test_ring_sequence_differentials_pinned(rname):
    assert digest(sequence_payload(rname)) == SEQUENCE_DIGESTS[rname]
