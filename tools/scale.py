"""Run a fixed list of larger inputs, time them and compare their results
with pinned digests.

    python3 tools/scale.py [--pin] [NAME ...]

runs every entry of ``ENTRIES`` (or only the ones named) and prints one
JSON line per entry: its ``name``, ``wall_s`` (the decision call alone)
and ``sha256``, the SHA-256 of its result as canonical JSON (sorted keys,
no spaces).  The digests are compared with ``scale.json`` next to this
script: it exits 1 and lists on stderr each entry whose digest differs or
is not pinned, or whose witness fails its check.  Times are printed, never
compared.  With ``--pin`` it records the digests of the entries run
instead, and lists each one that changed on stderr as
``<name>: <old> -> <new>``.  An unknown name prints a usage line and
exits 2.

The entries are at p = 32003.  Most are matrix-level, on the Jordan pair
(J, J^2) with J = J_n(1):

- ``jordan_conjugacy_n24``, ``jordan_conjugacy_n32``,
  ``jordan_conjugacy_n48``: simultaneous conjugacy against S (J, J^2) S^-1
  for a seeded unit-triangular product S.  The target is cyclic, so the
  spin of its transpose takes one generator and the hom system has n
  unknowns, not the n^2 entries of the witness.  The witness is re-checked
  in Python ints before the result is hashed;
- ``jordan_indecomposability_n32``, ``jordan_indecomposability_n64``: the
  indecomposability decision, whose endomorphism algebra is F_p[J]
  (J is cyclic), read off the powers of J with no spin.

Two entries are module-level, on the 56 x 56 actions of x, y, z on the
member of the Fermat quartic x^4 + y^4 + z^4 with sequence x^2, y^2,
c = 4, Ax = J_4(1) and Ay = Ax^2; the member is built before the clock
starts:

- ``fermat_module_indecomposability_n4``: the indecomposability
  decision.  The first action squares to zero, so the endomorphism
  algebra comes from the spin;
- ``fermat_module_conjugacy_n4``: simultaneous conjugacy of the actions
  M against S M S^-1 for a seeded S as above, with the witness re-checked
  in Python ints.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from cmwild import matalg  # noqa: E402
from cmwild.family import FamilySpec, action_matrices, build_family_member  # noqa: E402
from cmwild.rings import QuotientRing  # noqa: E402

PINS = os.path.join(HERE, "scale.json")
P = 32003


def jordan_pair(n: int, p: int):
    J = matalg.as_matrix([[int(j == i or j == i + 1) for j in range(n)] for i in range(n)], p)
    return [J, matalg.mat_mul(J, J, p)]


def seeded_conjugate(mats, seed: int, p: int):
    """S M S^-1 for each M, with S = L U for seeded unit lower and upper
    triangular L and U (so S is invertible)."""
    n = mats[0].shape[0]
    rng = random.Random(seed)
    L = [[rng.randrange(p) if i > j else int(i == j) for j in range(n)] for i in range(n)]
    U = [[rng.randrange(p) if i < j else int(i == j) for j in range(n)] for i in range(n)]
    S = matalg.mat_mul(matalg.as_matrix(L, p), matalg.as_matrix(U, p), p)
    S_inv = np.stack(matalg.solve_many(S, matalg.identity_matrix(n), p), axis=1)
    return [matalg.mat_mul(matalg.mat_mul(S, M, p), S_inv, p) for M in mats]


def int_rank(rows, p: int) -> int:
    """The rank of a list of rows of Python ints, by row reduction."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def int_product(X, Y, p: int):
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*Y)] for row in X]


def conjugacy(As, seed: int):
    Bs = seeded_conjugate(As, seed, P)
    start = time.perf_counter()
    result = matalg.simultaneous_conjugacy(As, Bs, P)
    wall = time.perf_counter() - start
    w = result["witness"]
    ok = result["verdict"] == "Isomorphic" and int_rank(w, P) == len(w) and all(
        int_product(w, A.tolist(), P) == int_product(B.tolist(), w, P) for A, B in zip(As, Bs)
    )
    return result, wall, ok


def indecomposability(mats):
    start = time.perf_counter()
    result = matalg.endomorphism_indecomposability(mats, P)
    return result, time.perf_counter() - start, True


def fermat_module_actions(n: int):
    """The actions of x, y, z on the Fermat quartic member with
    Ax = J_n(1) and Ay = Ax^2."""
    ring = QuotientRing.from_strings(["x", "y", "z"], ["x^4+y^4+z^4"], P)
    Ax = [[int(j == i or j == i + 1) for j in range(n)] for i in range(n)]
    Ay = (np.array(Ax) @ np.array(Ax)).tolist()
    spec = FamilySpec(ring, ["x^2", "y^2"], 4, Ax, Ay=Ay)
    return action_matrices(build_family_member(spec))[0]


# name -> a function of no arguments returning (result, wall_s, witness ok)
ENTRIES = {
    "jordan_conjugacy_n24": lambda: conjugacy(jordan_pair(24, P), 24),
    "jordan_conjugacy_n32": lambda: conjugacy(jordan_pair(32, P), 32),
    "jordan_conjugacy_n48": lambda: conjugacy(jordan_pair(48, P), 48),
    "jordan_indecomposability_n32": lambda: indecomposability(jordan_pair(32, P)),
    "jordan_indecomposability_n64": lambda: indecomposability(jordan_pair(64, P)),
    "fermat_module_indecomposability_n4": lambda: indecomposability(fermat_module_actions(4)),
    "fermat_module_conjugacy_n4": lambda: conjugacy(fermat_module_actions(4), 4),
}


def digest(result) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv) -> int:
    pin = "--pin" in argv
    names = [a for a in argv if a != "--pin"] or list(ENTRIES)
    if any(name not in ENTRIES for name in names):
        print(f"usage: scale.py [--pin] [{' | '.join(ENTRIES)} ...]", file=sys.stderr)
        return 2
    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    failed = False
    got = {}
    for name in names:
        result, wall, ok = ENTRIES[name]()
        got[name] = digest(result)
        print(json.dumps({"name": name, "wall_s": round(wall, 4), "sha256": got[name]}), flush=True)
        if not ok:
            print(f"{name}: the witness fails its check", file=sys.stderr)
            failed = True
    changed = [name for name in names if pins.get(name) != got[name]]
    if pin:
        if failed:
            return 1
        for name in changed:
            print(f"{name}: {pins.get(name)} -> {got[name]}", file=sys.stderr)
        pins.update(got)
        with open(PINS, "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    for name in changed:
        print(f"{name}: pinned {pins.get(name)}, got {got[name]}", file=sys.stderr)
    return 1 if failed or changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
