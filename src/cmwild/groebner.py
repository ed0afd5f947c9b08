"""Groebner machinery for submodules of graded free modules over F_p[x].

A module element is a dict {(position, exponent_tuple): coefficient}.  The
term order is position-over-term: positions carry a fixed priority (ascending
twist, then index), and ties within a position fall back to grevlex on the
monomial.  All inputs are homogeneous, which keeps every intermediate vector
homogeneous and every staircase finite in each degree.

Syzygies are extracted by a tag construction: compute a basis of
[g_i + eps_i] inside F (+) S^k with the tag positions ranked below every real
position; basis elements whose real part vanished are exactly a generating
set of the syzygy module, and full normal forms against the same basis solve
membership with explicit coordinates.

Buchberger's product criterion is applied only in rank one.  It fails for
genuine modules: with u = x*e1 + y*e2 and v = y*e1 + x*e2 the S-vector
(y^2 - x^2)*e2 reduces to neither.  The chain criterion is restricted to
pairs already treated, so no skip can be circular.

A basis can also be grown: ``buchberger(new, order, p, base=old)`` starts
from the reduced basis ``old`` of a submodule N and returns the reduced
basis of N + (new).  The elements of ``old`` enter the working set as they
are, and only pairs that involve a new element are queued.  A pair of two
elements of ``old`` needs no treatment: ``old`` is a Groebner basis, so its
S-vector already reduces to zero against ``old`` and hence against any
larger working set.  Such a pair also counts as treated for the chain
criterion, since the criterion only asks that the two pairs it leans on
reduce to zero.  Once every pair is treated the working set is a Groebner
basis of N + (new), and ``_interreduce`` turns it into the reduced basis,
which is unique: the same monic vectors, listed by the same leading-term
key, each filled leading term first and then in descending order.  Grown
and rebuilt bases are therefore equal as ordered dicts.

Normal forms keep the working vector ordered instead of rescanning it for
its leading term.  Next to the dict ``work`` sits a min-heap of
(negated order key, term) entries, with negated key
(rank_of[pos], -deg, m[::-1]).  A term is pushed when it enters ``work``,
also when it comes back after cancelling; a popped entry whose term has left
``work`` is stale and skipped.  Invariant: every term of ``work`` has an
entry in the heap.  A reduction step removes the largest term and adds only
smaller ones, so the pops come in the order of ``max(work, key=order.key)``
and the result is filled in the same descending order as by a rescan.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, le, sub

from .errors import InputError
from .poly import (
    add_terms,
    grevlex_key,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
)

Vec = dict  # {(pos, mono): coeff}


class ModuleOrder:
    """POT order data for a free module: generator degrees plus position
    priority ranks (rank 0 compares highest)."""

    __slots__ = ("gen_degrees", "rank_of", "nvars")

    def __init__(self, gen_degrees, nvars, rank_of=None):
        self.gen_degrees = tuple(gen_degrees)
        self.nvars = nvars
        if rank_of is None:
            # ascending twist (= descending degree), then index
            by_priority = sorted(
                range(len(self.gen_degrees)),
                key=lambda i: (-self.gen_degrees[i], i),
            )
            ranks = [0] * len(self.gen_degrees)
            for r, i in enumerate(by_priority):
                ranks[i] = r
            rank_of = ranks
        self.rank_of = tuple(rank_of)

    @property
    def rank(self) -> int:
        return len(self.gen_degrees)

    def key(self, term):
        pos, m = term
        return (-self.rank_of[pos], sum(m), tuple(-e for e in reversed(m)))

    def with_tags(self, tag_degrees) -> "ModuleOrder":
        """Append tag positions ranked strictly below every real position."""
        r = len(self.gen_degrees)
        return ModuleOrder(
            self.gen_degrees + tuple(tag_degrees),
            self.nvars,
            self.rank_of + tuple(range(r, r + len(tag_degrees))),
        )


# ----------------------------------------------------------------- vectors


def vec_degree(v: Vec, gen_degrees) -> int | None:
    """Uniform degree of a homogeneous vector, None for zero."""
    degs = {mono_deg(m) + gen_degrees[pos] for (pos, m) in v}
    if not degs:
        return None
    if len(degs) > 1:
        raise InputError("vector is not homogeneous")
    return degs.pop()


def vec_add_mul(acc: Vec, f: dict, v: Vec, p: int) -> Vec:
    """acc + f * v, for a polynomial f given by its term dict."""
    out = dict(acc)
    for mf, cf in f.items():
        for (pos, m), c in v.items():
            # mono_mul inlined: this is the inner loop of unit elimination
            t = (pos, tuple(x + y for x, y in zip(m, mf)))
            c2 = (out.get(t, 0) + cf * c) % p
            if c2:
                out[t] = c2
            elif t in out:
                del out[t]
    return out


def vec_mono_shift(v: Vec, shift, c: int, p: int) -> Vec:
    """c * x^shift * v."""
    c %= p
    if c == 0:
        return {}
    return {(pos, tuple(map(add, m, shift))): k * c % p for (pos, m), k in v.items()}


class GroebnerBasis:
    """A monic basis with cached leading terms and a divisor index; also
    the working set that ``buchberger`` grows."""

    __slots__ = ("vectors", "order", "p", "lts", "_by_pos")

    def __init__(self, order: ModuleOrder, p: int):
        self.vectors: list = []
        self.order = order
        self.p = p
        self.lts: list = []
        self._by_pos: dict = {}

    def add(self, v: Vec, lt) -> int:
        """Append the monic vector ``v`` with leading term ``lt``; returns
        its index."""
        i = len(self.vectors)
        self.vectors.append(v)
        self.lts.append(lt)
        self._by_pos.setdefault(lt[0], []).append((lt[1], i))
        return i

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def normal_form(self, v: Vec) -> Vec:
        return _normal_form(v, self)

    def reduces_to_zero(self, v: Vec) -> bool:
        return not self.normal_form(v)


def _normal_form(v: Vec, basis: GroebnerBasis) -> Vec:
    """Full normal form: every term of the result is irreducible.

    The leading term of ``work`` comes off a min-heap of (negated order key,
    term); see the module docstring for why the pop order is the order of
    ``max(work, key=order.key)``.
    """
    rank_of = basis.order.rank_of
    p = basis.p
    lts, vectors, by_pos = basis.lts, basis.vectors, basis._by_pos
    work = dict(v)
    heap = [((rank_of[pos], -sum(m), m[::-1]), (pos, m)) for pos, m in work]
    heapify(heap)
    out: Vec = {}
    while heap:
        t = heappop(heap)[1]
        c = work.pop(t, None)
        if c is None:
            continue  # stale: the term cancelled, or a later entry took it
        pos, m = t
        hit = None
        for gm, gi in by_pos.get(pos, ()):
            if all(map(le, gm, m)):
                hit = gi
                break
        if hit is None:
            out[t] = c
            continue
        lt = lts[hit]
        shift = tuple(map(sub, m, lt[1]))
        for gt, gc in vectors[hit].items():
            if gt == lt:
                continue
            gpos, m2 = gt[0], tuple(map(add, gt[1], shift))
            t2 = (gpos, m2)
            old = work.get(t2)
            c2 = ((old or 0) - c * gc) % p
            if c2:
                if old is None:
                    heappush(heap, ((rank_of[gpos], -sum(m2), m2[::-1]), t2))
                work[t2] = c2
            elif old is not None:
                del work[t2]
    return out


def _make_monic(v: Vec, order: ModuleOrder, p: int):
    """(v scaled to leading coefficient 1, its leading term)."""
    lt = max(v, key=order.key)
    c = v[lt]
    if c == 1:
        return v, lt
    inv = pow(c, -1, p)
    return {t: k * inv % p for t, k in v.items()}, lt


def buchberger(
    gens, order: ModuleOrder, p: int, base: GroebnerBasis | None = None
) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by ``gens``, or by
    ``gens`` and the reduced basis ``base`` when one is given; ``base``
    must have been computed for the same order and field.

    Pairs are processed in ascending S-vector degree (normal strategy) with
    deterministic tie-breaks, so the reduced result is canonical for the
    order regardless of generator arrangement.  The product criterion is
    applied in rank one only (see the module docstring).  Pairs of two
    ``base`` elements are never queued; see the module docstring for why
    the grown basis equals the rebuilt one.
    """
    product_criterion = order.rank == 1
    gb = GroebnerBasis(order, p)
    G, lts, by_pos = gb.vectors, gb.lts, gb._by_pos
    heap: list = []
    counter = 0
    # pairs (i, j) with j < n_base join two base elements: already treated
    n_base = 0
    if base is not None:
        for v, lt in zip(base.vectors, base.lts):
            gb.add(v, lt)
        n_base = len(gb)

    def queue_pairs(j):
        nonlocal counter
        pos_j, m_j = lts[j]
        for i in range(j):
            pos_i, m_i = lts[i]
            if pos_i != pos_j:
                continue
            lcm = mono_lcm(m_i, m_j)
            sdeg = mono_deg(lcm) + order.gen_degrees[pos_j]
            counter += 1
            heappush(
                heap, (sdeg, grevlex_key(lcm), i, j, counter, lcm)
            )

    for g in gens:
        if g:
            queue_pairs(gb.add(*_make_monic(dict(g), order, p)))

    treated: set = set()
    while heap:
        sdeg, _lk, i, j, _n, lcm = heappop(heap)
        treated.add((i, j))
        pos = lts[i][0]
        m_i, m_j = lts[i][1], lts[j][1]
        if product_criterion and mono_mul(m_i, m_j) == lcm:
            continue
        chained = False
        for gm, k in by_pos.get(pos, ()):
            if k in (i, j):
                continue
            if mono_divides(gm, lcm):
                a, b = (i, k) if i < k else (k, i)
                c, d = (j, k) if j < k else (k, j)
                if (b < n_base or (a, b) in treated) and (
                    d < n_base or (c, d) in treated
                ):
                    chained = True
                    break
        if chained:
            continue
        s = vec_mono_shift(G[i], mono_div(lcm, m_i), 1, p)
        add_terms(s, vec_mono_shift(G[j], mono_div(lcm, m_j), p - 1, p), p)
        r = _normal_form(s, gb)
        if r:
            queue_pairs(gb.add(*_make_monic(r, order, p)))

    return _interreduce(gb)


def _interreduce(gb: GroebnerBasis) -> GroebnerBasis:
    order = gb.order
    kept = GroebnerBasis(order, gb.p)
    for lt, g in sorted(zip(gb.lts, gb.vectors), key=lambda it: order.key(it[0])):
        pos, m = lt
        if not any(mono_divides(km, m) for km, _ in kept._by_pos.get(pos, ())):
            kept.add(g, lt)

    # canonical listing: leading-term degree ascending, position priority,
    # then grevlex descending within a degree
    def list_key(item):
        pos, m = item[0]
        return (
            sum(m) + order.gen_degrees[pos],
            order.rank_of[pos],
            tuple(reversed(m)),
        )

    # tail-reduce each element against the kept basis: a term below lt(g)
    # is never divisible by lt(g), so g never reduces itself, and leading
    # terms (and monic leading coefficients) are stable
    out = GroebnerBasis(order, gb.p)
    for lt, g in sorted(zip(kept.lts, kept.vectors), key=list_key):
        tail = _normal_form({t: c for t, c in g.items() if t != lt}, kept)
        out.add({lt: 1, **tail}, lt)
    return out


# ------------------------------------------------------------ tagged bases


class TaggedBasis:
    """Groebner basis of [g_i + eps_i] with elimination tags.

    Provides syzygy generators (pure-tag basis elements) and coordinate
    solves (normal form of (v, 0); a vanishing real part certifies
    membership and the tag residue encodes the coordinates).
    """

    __slots__ = ("p", "real_rank", "count", "order", "gb", "tag_degrees")

    def __init__(self, gens, base_order: ModuleOrder, p: int):
        r = base_order.rank
        gens = [dict(g) for g in gens]
        tag_degrees = []
        zero_mono = (0,) * base_order.nvars
        tagged = []
        for i, g in enumerate(gens):
            d = vec_degree(g, base_order.gen_degrees)
            if d is None:
                d = 0  # zero generator: tag degree is immaterial
            tag_degrees.append(d)
        order = base_order.with_tags(tag_degrees)
        for i, g in enumerate(gens):
            gh = dict(g)
            gh[(r + i, zero_mono)] = 1
            tagged.append(gh)
        self.p = p
        self.real_rank = r
        self.count = len(gens)
        self.order = order
        self.tag_degrees = tuple(tag_degrees)
        # two or more generators give a tagged order of rank >= 2, so the
        # product criterion is off whenever a pair exists
        self.gb = buchberger(tagged, order, p)

    def syzygy_generators(self) -> list:
        """Generators of the syzygy module of the input list, as vectors
        over positions 0..count-1."""
        r = self.real_rank
        out = []
        for v, lt in zip(self.gb.vectors, self.gb.lts):
            if lt[0] >= r:
                out.append({(pos - r, m): c for (pos, m), c in v.items()})
        return out

    def coordinates(self, v: Vec):
        """Coordinates of v over the input generators, or None if v is not
        in their span.  Any valid coordinate vector may be returned."""
        w = self.gb.normal_form(dict(v))
        if any(pos < self.real_rank for (pos, _m) in w):
            return None
        p = self.p
        return {(pos - self.real_rank, m): -c % p for (pos, m), c in w.items()}


# ------------------------------------------------- staircase combinatorics


def series_add(out: dict, f: dict, shift: int = 0, c: int = 1) -> None:
    """out += c * t^shift * f over Z, in place, for series stored as
    {degree: coefficient} without zero coefficients.

    Existing degrees keep their place and new ones go in at the end in
    ``f`` order.  ``f`` must not be ``out`` itself.
    """
    for d, k in f.items():
        v = out.get(d + shift, 0) + c * k
        if v:
            out[d + shift] = v
        elif d + shift in out:
            del out[d + shift]


def standard_terms(lts, gen_degrees, nvars: int, t: int) -> list:
    """Degree-t (position, monomial) pairs outside the leading-term
    staircase: position ascending, grevlex descending within a position."""
    by_pos: dict = {}
    for pos, m in lts:
        by_pos.setdefault(pos, []).append(m)
    out = []
    for pos, gd in enumerate(gen_degrees):
        d = t - gd
        if d < 0:
            continue
        blockers = by_pos.get(pos, ())
        for m in monomials_of_degree(nvars, d):
            if not any(mono_divides(b, m) for b in blockers):
                out.append((pos, m))
    return out


def minimalize_monomials(monos) -> tuple:
    """Minimal generating set of the monomial ideal, sorted ascending."""
    out: list = []
    for m in sorted(set(monos), key=grevlex_key):
        if not any(mono_divides(o, m) for o in out):
            out.append(m)
    return tuple(out)


def monomial_ideal_numerator(monos, memo: dict | None = None) -> dict:
    """Numerator of the Hilbert series of S/(monos) over (1-t)^nvars, as a
    dict {degree: integer coefficient}.

    Recursion: with pivot q, HN(I' + (q)) = HN(I') - t^deg(q) * HN(I' : q).
    """
    if memo is None:
        memo = {}

    def rec(ms: tuple) -> dict:
        cached = memo.get(ms)
        if cached is not None:
            return cached
        if not ms:
            res = {0: 1}
        elif any(mono_deg(m) == 0 for m in ms):
            res = {}
        elif len(ms) == 1:
            d = mono_deg(ms[0])
            res = {0: 1, d: -1}
        else:
            pivot = ms[-1]
            rest = ms[:-1]
            a = rec(rest)
            colon = minimalize_monomials(
                tuple(max(g - q, 0) for g, q in zip(gm, pivot)) for gm in rest
            )
            b = rec(colon)
            res = dict(a)
            series_add(res, b, mono_deg(pivot), -1)
        memo[ms] = res
        return res

    return rec(minimalize_monomials(monos))


def module_numerator(lts, gen_degrees, nvars: int) -> dict:
    """Hilbert-series numerator of F/N from the staircase of N, summed with
    generator-degree shifts."""
    by_pos: dict = {}
    for pos, m in lts:
        by_pos.setdefault(pos, []).append(m)
    memo: dict = {}
    total: dict = {}
    for pos, gd in enumerate(gen_degrees):
        hn = monomial_ideal_numerator(tuple(by_pos.get(pos, ())), memo)
        series_add(total, hn, gd)
    return total


def divide_by_one_minus_t(f: dict) -> dict:
    """Exact division by (1 - t) in Z[t]; raises ValueError if inexact."""
    if not f:
        return {}
    top = max(f)
    q: dict = {}
    prev = 0
    for d in range(top + 1):
        prev = f.get(d, 0) + prev
        if prev and d < top:
            q[d] = prev
    if prev != 0:
        raise ValueError("series numerator is not divisible by (1 - t)")
    return q


def strip_one_minus_t(hn: dict, nvars: int) -> tuple[int, dict]:
    """Divide by (1 - t) while the division is exact, at most nvars times:
    (number of divisions, quotient)."""
    f = hn
    for k in range(nvars):
        try:
            f = divide_by_one_minus_t(f)
        except ValueError:
            return k, f
    return nvars, f


class Staircase:
    """Hilbert data of a graded quotient F/N, read off the staircase of
    the reduced Groebner basis ``gb`` of N.  Subclasses provide ``gb``;
    its order carries the generator degrees of F and the variable count.
    A ring S/I is the rank-one case, with one generator in degree 0."""

    __slots__ = ("_numerator",)

    def component_terms(self, t: int) -> list:
        """Standard (position, monomial) terms of degree t."""
        order = self.gb.order
        return standard_terms(self.gb.lts, order.gen_degrees, order.nvars, t)

    def hilbert_dim(self, t: int) -> int:
        return len(self.component_terms(t))

    @property
    def hilbert_numerator(self) -> dict:
        if self._numerator is None:
            order = self.gb.order
            self._numerator = module_numerator(
                self.gb.lts, order.gen_degrees, order.nvars
            )
        return dict(self._numerator)

    def hilbert_function(self) -> dict:
        """Finite Hilbert function {t: dim}; finite-length quotients only."""
        nvars = self.gb.order.nvars
        k, hf = strip_one_minus_t(self.hilbert_numerator, nvars)
        if k < nvars:
            raise InputError(
                "the quotient has positive dimension, so its Hilbert function is not finite"
            )
        return hf

    @property
    def krull_dimension(self) -> int:
        """nvars minus the power of (1 - t) dividing the numerator; -1 for
        the zero quotient."""
        hn, nvars = self.hilbert_numerator, self.gb.order.nvars
        return nvars - strip_one_minus_t(hn, nvars)[0] if hn else -1

    def top_degree(self) -> int:
        """Largest t with a nonzero degree-t component; -1 for zero."""
        hf = self.hilbert_function()
        return max(hf) if hf else -1

