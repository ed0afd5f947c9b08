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

Regularity of an element on a module is decided exactly through Hilbert
series numerators: y of degree e is a nonzerodivisor on N iff the numerator
of N/yN equals (1 - t^e) times the numerator of N.  Both directions are
sound because the numerator of the kernel (0 :_N y) is the difference of
the two sides.  N/yN is presented over R/(y), as R/(y) is for a ring.
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


def verify_regular_element(target, y: Poly) -> QuotientRing | ModulePresentation | None:
    """Exact regularity test: y is a nonzerodivisor on the ring or module.

    Compares Hilbert numerators: numerator(N/yN) == (1 - t^deg y) * numerator(N).
    Returns the quotient N/yN when y is regular, so that a caller walking a
    sequence carries it to the next stage, and None when y is a zerodivisor.
    """
    if y.is_zero() or not y.is_homogeneous() or y.degree() < 1:
        raise InputError("regularity candidates must be homogeneous of positive degree")
    if isinstance(target, QuotientRing):
        quotient = target.extend([y])
    elif isinstance(target, ModulePresentation):
        quotient = target.reduce_mod([y])
    else:
        raise InputError("regularity target must be a ring or a module presentation")
    # (1 - t^e) N; each hilbert_numerator read is a fresh copy, so N is
    # never added into itself
    expected = target.hilbert_numerator
    series_add(expected, target.hilbert_numerator, y.degree(), -1)
    if quotient.hilbert_numerator == expected:
        return quotient
    return None


def verify_regular_sequence(ring: QuotientRing, seq) -> QuotientRing:
    """R/(seq), after checking that each element is regular on the quotient
    by the ones before it; the first element that is not is named in an
    InputError."""
    current = ring
    for i, y in enumerate(seq):
        current = verify_regular_element(current, y)
        if current is None:
            raise InputError(f"sequence element {i} ({y}) is not regular at that stage")
    return current


# ------------------------------------------------------- sequence search


def _slot_candidates(ring: QuotientRing, slot: int, rng):
    """Ordered candidate pool for one slot of the regular sequence, built
    lazily: each candidate is made only when the search asks for it.

    The leading entries encode the ring-shape recipe: for a hypersurface the
    sequence starts with the squares of the first two variables; for a
    higher-codimension complete intersection shape with k relations it
    starts with vars[k]^2 and continues with the later variables.  The rest
    of the pool is a fallback ladder: the squares, the variables, 12 random
    linear forms and 12 random quadrics, without zero forms and repeats.

    Later slots draw from the same ``rng``, so its coefficients are drawn
    here, all of them and in a fixed order, before any candidate is made.
    The last slot, ``dim R - 1``, has no later slot: it draws each row of
    coefficients when the pool reaches it, in the same order, so a last
    slot decided by its recipe draws nothing.
    """
    amb = ring.ambient
    nv = ring.nvars
    k = len(ring.relations)
    linear = [tuple(int(j == i) for j in range(nv)) for i in range(nv)]
    square = [mono_mul(e, e) for e in linear]
    quadric = [mono_mul(linear[i], linear[j]) for i in range(nv) for j in range(i, nv)]
    recipe = []
    if k == 1:
        if slot < 2 and slot < nv:
            recipe = [square[slot]]
        elif slot < nv:
            recipe = [linear[slot]]
    elif k >= 2:
        if slot == 0 and k < nv:
            recipe = [square[k]]
        elif 0 < slot and k + slot < nv:
            recipe = [linear[k + slot]]
    elif slot < nv:
        recipe = [linear[slot]]

    def draw_rows(monos):
        return ([rng.randrange(ring.p) for _ in monos] for _ in range(12))

    linear_coeffs, quadric_coeffs = draw_rows(linear), draw_rows(quadric)
    if slot != ring.krull_dimension - 1:
        linear_coeffs, quadric_coeffs = list(linear_coeffs), list(quadric_coeffs)

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


def find_regular_sequence(
    ring: QuotientRing, seed: int = 0, budget: int = 50
) -> tuple[list[Poly], QuotientRing]:
    """A verified homogeneous regular sequence of length dim R, found by
    recipe plus fallback search, with its last verified stage R/(seq)."""
    d = ring.krull_dimension
    if d < 0:
        raise InputError("the zero ring admits no regular sequence")
    rng = random.Random(seed)
    seq: list[Poly] = []
    current = ring
    for slot in range(d):
        attempts = 0
        found = None
        for cand in _slot_candidates(ring, slot, rng):
            if current.is_zero_element(cand):
                continue
            attempts += 1
            if attempts > budget:
                break
            stage = verify_regular_element(current, cand)
            if stage is not None:
                found = cand
                break
        if found is None:
            raise BudgetExhausted(
                f"no regular element found for position {slot} within"
                f" {budget} attempts"
            )
        seq.append(found)
        current = stage
    return seq, current


def artinian_reduction(
    ring: QuotientRing, sequence=None, seed: int = 0
) -> tuple[list[Poly], QuotientRing]:
    """The regular sequence and the Artinian reduction R/(seq).

    A given ``sequence`` (strings or polynomials) must have length dim R
    and is verified stage by stage; without one, ``find_regular_sequence``
    searches with ``seed``.  The reduction is the last verified stage, so
    its Groebner basis is never computed twice.
    """
    if sequence is None:
        seq, reduced = find_regular_sequence(ring, seed=seed)
    else:
        seq = [ring.parse(s) if isinstance(s, str) else s for s in sequence]
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
    d = ring.krull_dimension
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
    rejected.  The scan runs on the last verified stage: the same ring,
    with its Groebner basis already computed."""
    if not ring.relations:
        raise InputError("need at least one relation")
    try:
        ring = verify_regular_sequence(QuotientRing(ring.ambient), ring.relations)
    except InputError as exc:
        raise InputError(f"not a complete intersection: {exc}") from None
    return wildness_certificate(ring, seed=seed, c_window=c_window)
