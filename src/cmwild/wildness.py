"""Classification of graded quotient rings by the size of their maximal
Cohen-Macaulay module theory.

The procedure: produce (or verify) a homogeneous regular sequence of length
equal to the Krull dimension, pass to the Artinian reduction, and scan the
graded component dimensions of the reduction over a degree window.  Within
the window, a component of dimension at least 2 witnesses a strictly
ascending infinite family of indecomposable maximal Cohen-Macaulay modules;
dimension at least 3 witnesses wild representation type.  The window has
one rule for every caller: it starts past the socle threshold, at
``first_scan_degree(m, d)`` = m - d + 2 for a sequence of total degree m
and length d, and ends at the top degree of the reduction.  Hypersurfaces
and complete intersections are not separate rules but guards in front of
the same scan.  A verified full-length regular sequence also certifies
that the ring is Cohen-Macaulay, so no Cohen-Macaulayness assumption is
carried.

A whole sequence y is checked at once, on a ring or a module N (see
``verify_regular_element``); no intermediate quotient is built.  On a ring
S/(f) whose relations and y together number the variables of S, a
finite-length R/(y) certifies y by itself: f, y are then a system of
parameters of S, so R's own Hilbert series is not needed.  Every other
case is decided by one exact Hilbert-series identity,
HS(N/(y)N) = prod (1 - t^deg y_i) HS(N).  N/(y)N is presented over R/(y),
as R/(y) is for a ring.

The sequence search checks its ring-shape recipe, one element per
variable beyond the relations, before it reads dim R; on a complete
intersection that one check builds one Groebner basis, the reduction's.
It walks slot by slot only when the recipe is not a regular sequence with
an Artinian quotient, and a regular but short recipe seeds the walk.  Each
slot takes the first candidate of its finite pool that is nonzero and
regular modulo the slots before it; a pool that runs out is
BudgetExhausted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain

from .errors import BudgetExhausted, CmwildError, InputError
from .groebner import series_add
from .modules import ModulePresentation
from .poly import Poly, mono_mul
from .rings import QuotientRing

VERDICT_WILD = "CMWild"
VERDICT_INFINITE = "StrictlyCMInfinite"
VERDICT_INCONCLUSIVE = "Inconclusive"

# the criterion is one-sided: failing it proves nothing in either direction
INCONCLUSIVE_NOTE = (
    "Inconclusive does not mean not wild: the test is a sufficient"
    " criterion, and a different sequence or a wider degree window may"
    " still certify wildness."
)

SCHEMA = "cmwild/1"


def verify_regular_element(target, *ys: Poly) -> QuotientRing | ModulePresentation | None:
    """N/(y)N if y_1..y_k is a regular sequence on the ring or module N, else
    None (N itself for no ys).  No N_j = N/(y_1..y_j)N is built, and one of
    two certificates decides.

    Finite length, for a ring R = S/(f_1..f_r) with r + k = n, the number
    of variables of S: when R/(y) has finite length, the n forms f, y
    generate an ideal of height n in S, so they are a system of parameters
    of S; S is Cohen-Macaulay, so they are an S-regular sequence in any
    order (Matsumura, "Commutative Ring Theory", Thm 17.4; Bruns-Herzog,
    "Cohen-Macaulay Rings", Thm 2.1.2), and y is regular on R.  HS(R) is
    not read, so a ring with no basis yet never builds one here.  When
    R/(y) has positive dimension, the identity below decides, and R/(y)'s
    numerator, already computed, is reused.

    Otherwise one identity, with e_i = deg y_i:
    HS(N/(y)N) = prod_i (1 - t^e_i) HS(N).  Why it decides (Stanley,
    "Hilbert functions of graded algebras", Adv. Math. 1978, section 3):
    with K_j = 0 :_{N_(j-1)} y_j,
    HS(N_j) = (1 - t^e_j) HS(N_(j-1)) + t^e_j HS(K_j), which unrolls to
    HS(N/(y)N) - prod_i (1 - t^e_i) HS(N)
        = sum_j t^e_j * prod_(i>j) (1 - t^e_i) * HS(K_j).
    Each product has constant term 1, so at the least degree
    min_j (e_j + indeg K_j) the sum has a positive coefficient unless every
    K_j = 0.  No finite-length condition is needed, so a quotient that is
    not Artinian, or a module, is decided here.
    """
    if any(y.is_zero() or not y.is_homogeneous() or y.degree() < 1 for y in ys):
        raise InputError("regularity candidates must be homogeneous of positive degree")
    if not isinstance(target, (QuotientRing, ModulePresentation)):
        raise InputError("regularity target must be a ring or a module presentation")
    if not ys:
        return target
    if isinstance(target, QuotientRing):
        quotient = target.extend(ys)
        if len(target.relations) + len(ys) == target.nvars and quotient.is_artinian:
            return quotient
    else:
        quotient = target.reduce_mod(ys)
    # hilbert_numerator reads are fresh copies; each factor adds a copy
    expected = target.hilbert_numerator
    for y in ys:
        series_add(expected, dict(expected), y.degree(), -1)
    return quotient if quotient.hilbert_numerator == expected else None


def verify_regular_sequence(ring: QuotientRing, seq) -> QuotientRing:
    """R/(seq), after one check that seq is regular on R; if it is not, the
    end of the shortest failing prefix, the first element not regular
    modulo the ones before it, is named in an InputError."""
    seq = list(seq)
    reduced = verify_regular_element(ring, *seq)
    if reduced is None:
        prefixes = (verify_regular_element(ring, *seq[: i + 1]) for i in range(len(seq)))
        i = next(i for i, stage in enumerate(prefixes) if stage is None)
        raise InputError(f"sequence element {i} ({seq[i]}) is not regular at that stage")
    return reduced


# ------------------------------------------------------- sequence search


def _recipe_term(ring: QuotientRing, slot: int) -> tuple | None:
    """The exponent of the ring-shape recipe's element for one slot of the
    regular sequence, or None when the recipe has none there.

    For a hypersurface the sequence starts with the squares of the first
    two variables and continues with the later variables; for a
    higher-codimension complete intersection shape with k relations it
    starts with vars[k]^2 and continues with the later variables; with no
    relations it is the variables.
    """
    k = len(ring.relations)
    if k == 1:
        i, power = slot, 2 if slot < 2 else 1
    elif k >= 2:
        i, power = k + slot, 2 if slot == 0 else 1
    else:
        i, power = slot, 1
    if i >= ring.nvars:
        return None
    return tuple(power * (j == i) for j in range(ring.nvars))


def _slot_candidates(ring: QuotientRing, slot: int, rng):
    """Ordered candidate pool for one slot of the regular sequence, built
    lazily: each candidate is made only when the search asks for it.

    The pool starts with the slot's recipe element (``_recipe_term``).  The
    rest is a fallback ladder: the squares, the variables, 12 random
    linear forms and 12 random quadrics, without zero forms and repeats.
    Later slots draw from the same ``rng``, so the coefficients of all 24
    random forms are drawn here, in a fixed order, before any candidate is
    made; a slot the recipe seeded still calls this for its draws.
    """
    amb = ring.ambient
    nv = ring.nvars
    linear = [tuple(int(j == i) for j in range(nv)) for i in range(nv)]
    square = [mono_mul(e, e) for e in linear]
    quadric = [mono_mul(linear[i], linear[j]) for i in range(nv) for j in range(i, nv)]
    term = _recipe_term(ring, slot)
    recipe = [] if term is None else [term]
    p, randrange = ring.p, rng.randrange
    linear_coeffs, quadric_coeffs = (
        [[randrange(p) for _ in monos] for _ in range(12)] for monos in (linear, quadric)
    )

    def pool():
        seen = set()
        for terms in chain(
            ({e: 1} for e in recipe + square + linear),
            (
                {e: c for e, c in zip(monos, row) if c}
                for monos, rows in ((linear, linear_coeffs), (quadric, quadric_coeffs))
                for row in rows
            ),
        ):
            key = frozenset(terms.items())
            if terms and key not in seen:
                seen.add(key)
                yield Poly(amb, terms)

    return pool()


def find_regular_sequence(ring: QuotientRing, seed: int = 0) -> tuple[list[Poly], QuotientRing]:
    """A verified homogeneous regular sequence of length dim R, found by
    recipe plus fallback search, with its last verified stage R/(seq).

    The recipe comes before the dimension.  For r relations in n variables
    it has n - r elements (none when r >= n), and it is checked by one
    ``verify_regular_element`` call.  When it holds and R/(recipe) is
    Artinian, R is a complete intersection of dimension n - r and the
    recipe is the sequence: R's own basis is never computed, no
    intermediate stage is built and no fallback coefficient is drawn.
    The slot walk below would pick the same sequence: every element of a
    regular sequence is nonzero and regular modulo the ones before it, and
    each recipe element is the first candidate of its slot.  Its last
    stage has the same reduced basis, and grown and rebuilt reduced bases
    are equal as ordered dicts.

    Otherwise dim R is read and the walk runs, slot by slot: each slot
    takes the first candidate of its pool that is nonzero and regular
    modulo the ones before it, and carries the verified stage to the next
    slot.  A slot whose pool runs out raises BudgetExhausted.  A recipe
    that is regular but short (R is not a complete intersection) seeds the
    walk: its slots are taken as the walk would take them, and each still
    draws its pool's coefficients, so every later draw is the same.
    """
    recipe = [
        Poly(ring.ambient, {_recipe_term(ring, slot): 1})
        for slot in range(ring.nvars - len(ring.relations))
    ]
    seq: list[Poly] = []
    current = ring
    reduced = verify_regular_element(ring, *recipe)
    if reduced is not None:
        if reduced.is_artinian:
            return recipe, reduced
        seq, current = recipe, reduced
    rng = random.Random(seed)
    for slot in range(ring.krull_dimension):
        candidates = _slot_candidates(ring, slot, rng)
        if slot < len(seq):  # seeded by the recipe; its draws are made
            continue
        for cand in candidates:
            if not current.is_zero_element(cand):
                stage = verify_regular_element(current, cand)
                if stage is not None:
                    break
        else:
            raise BudgetExhausted(f"no regular element found for position {slot} in its pool")
        seq.append(cand)
        current = stage
    return seq, current


def artinian_reduction(
    ring: QuotientRing, sequence=None, seed: int = 0
) -> tuple[list[Poly], QuotientRing]:
    """The regular sequence and the Artinian reduction R/(seq).

    A given ``sequence`` (strings or polynomials) must have length dim R
    and is verified in one check; without one, ``find_regular_sequence``
    searches with ``seed``.  The reduction is the quotient the check built,
    so its Groebner basis is never computed twice.

    dim R is read only when the finite-length certificate of
    ``verify_regular_element`` fails.  When the relations and a nonempty y
    number the variables and R/(y) has finite length, y is a system of
    parameters, so it is regular and dim R = len(y), and R's own basis is
    never built.  Otherwise the length is checked against dim R before the
    elements are, as it always was.
    """
    if sequence is None:
        seq, reduced = find_regular_sequence(ring, seed=seed)
    else:
        seq = [ring.parse(s) if isinstance(s, str) else s for s in sequence]
        reduced = None
        if seq and len(ring.relations) + len(seq) == ring.nvars:
            try:
                reduced = verify_regular_element(ring, *seq)
            except InputError:  # named below, after the length
                pass
        if reduced is None or not reduced.is_artinian:
            d = ring.krull_dimension
            if len(seq) != d:
                raise InputError(
                    f"sequence has length {len(seq)} but the Krull dimension is {d}"
                )
            reduced = verify_regular_sequence(ring, seq)
    if not reduced.is_artinian:
        raise CmwildError("reduction by the sequence is not zero-dimensional")
    return seq, reduced


# ------------------------------------------------------------- the verdict


@dataclass
class WildnessReport:
    ring: QuotientRing
    seed: int
    dimension: int
    cm_assumed: bool
    sequence: list = field(default_factory=list)
    m: int = 0
    window: tuple = (0, -1)
    scan: list = field(default_factory=list)  # [(c, dim)]
    verdict: str = VERDICT_INCONCLUSIVE
    witness_c: int | None = None
    witness_dim: int | None = None

    def to_json(self) -> dict:
        data = {
            "p": self.ring.p,
            "ring": self.ring.to_json(),
            "dimension": self.dimension,
            "cm_assumed": self.cm_assumed,
            "sequence": [str(y) for y in self.sequence],
            "m": self.m,
            "window": [self.window[0], self.window[1]],
            "scan": [{"c": c, "dim": n} for c, n in self.scan],
            "verdict": self.verdict,
            "witness_c": self.witness_c,
            "witness_dim": self.witness_dim,
        }
        if self.verdict == VERDICT_INCONCLUSIVE:
            data["note"] = INCONCLUSIVE_NOTE
        return data


def first_scan_degree(m: int, d: int) -> int:
    """Lowest degree the criterion may certify: c > m - d + 1 for a
    sequence of length d and total degree m.  Every element has degree
    at least 1, so m >= d and the scan never starts below 2."""
    return m - d + 2


def wildness_certificate(
    ring: QuotientRing,
    sequence=None,
    c_window=None,
    seed: int = 0,
) -> WildnessReport:
    """Run the full criterion on a graded quotient ring.

    ``sequence`` (strings or polynomials) overrides the search; every
    element is still verified, and a non-regular element is an input error.
    The scan runs from ``first_scan_degree(m, d)`` = m - d + 2 to the top
    degree of R/(seq).  ``c_window`` only narrows it: it is clamped to
    those two ends, so an empty result scans nothing and is Inconclusive.
    """
    seq, reduced = artinian_reduction(ring, sequence, seed=seed)
    # a verified regular sequence with an Artinian reduction has length dim R
    d = len(seq)
    m = sum(y.degree() for y in seq)
    start, end = first_scan_degree(m, d), reduced.top_degree()
    if c_window is not None:
        # a window only narrows the scan: degrees below the threshold or
        # past the top degree never certify anything
        start = max(int(c_window[0]), start)
        end = min(int(c_window[1]), end)
    scan = [(c, reduced.hilbert_dim(c)) for c in range(start, end + 1)]
    verdict = VERDICT_INCONCLUSIVE
    witness_c = witness_dim = None
    for c, n in scan:
        if n >= 3:
            verdict, witness_c, witness_dim = VERDICT_WILD, c, n
            break
    if verdict == VERDICT_INCONCLUSIVE:
        for c, n in scan:
            if n >= 2:
                verdict, witness_c, witness_dim = VERDICT_INFINITE, c, n
                break
    return WildnessReport(
        ring=ring,
        seed=seed,
        dimension=d,
        cm_assumed=False,
        sequence=seq,
        m=m,
        window=(start, end),
        scan=scan,
        verdict=verdict,
        witness_c=witness_c,
        witness_dim=witness_dim,
    )


def hypersurface_certificate(
    ring: QuotientRing, seed: int = 0, c_window=None
) -> WildnessReport:
    """Wildness certificate for a ring with exactly one nonzero relation."""
    if len(ring.relations) != 1:
        raise InputError(
            f"a hypersurface needs exactly one relation, got {len(ring.relations)}"
        )
    return wildness_certificate(ring, seed=seed, c_window=c_window)


def complete_intersection_certificate(
    ring: QuotientRing, seed: int = 0, c_window=None
) -> WildnessReport:
    """Wildness certificate for a ring whose relations are first verified
    to be a regular sequence on the ambient ring; anything else is
    rejected.  The scan runs on the quotient that check built: the same
    ring, with its Groebner basis already computed."""
    if not ring.relations:
        raise InputError("need at least one relation")
    try:
        ring = verify_regular_sequence(QuotientRing(ring.ambient), ring.relations)
    except InputError as exc:
        raise InputError(f"not a complete intersection: {exc}") from None
    return wildness_certificate(ring, seed=seed, c_window=c_window)
