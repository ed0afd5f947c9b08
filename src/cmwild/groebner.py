"""Groebner machinery for submodules of graded free modules over F_p[x].

A module element is given as a dict {(position, exponent_tuple):
coefficient} and held packed (see "Packed terms" below).  The term order
is position-over-term: positions carry a fixed priority (ascending twist,
then index), and ties within a position fall back to grevlex on the
monomial.  All inputs are homogeneous, which keeps every intermediate vector
homogeneous and every staircase finite in each degree.

Syzygies are extracted by a tag construction: compute a basis of
[g_i + eps_i] inside F (+) S^k with the tag positions ranked below every real
position; basis elements whose real part vanished are exactly a generating
set of the syzygy module, and full normal forms against the same basis solve
membership with explicit coordinates.

Syzygies modulo a submodule N of F (over a quotient ring: the ring
relations times each generator, ``FreeModule.ring_basis``) take the
reduced basis of N as an untagged ``base``.  Tagging each of its
elements as well gives a larger module whose extra tags rank lowest.
Dropping those tag coordinates maps it onto the untagged module, and
maps the elements of its reduced basis whose leading term is off the
extra tags one to one onto the untagged reduced basis, keeping each
leading term; the other elements lie wholly at the extra tags and map
to zero.  So both give the same syzygies, in the same listing, and the
same solves.

Buchberger's product criterion is applied only in rank one.  It fails for
genuine modules: with u = x*e1 + y*e2 and v = y*e1 + x*e2 the S-vector
(y^2 - x^2)*e2 reduces to neither.  The chain criterion is restricted to
pairs already treated, so no skip can be circular.  A pair of two
monomials (both tails empty) has a zero S-vector in any rank; within the
degree limit it is skipped before the chain criterion is tried, and it
counts as treated all the same.

A basis is made by one run, ``BuchbergerRun``, which holds the working
set, the heap of queued pairs and the set of treated ones; ``buchberger``
is one run taken to the end, or through a degree ``bound``, and then
``_interreduce``d.  ``add`` queues new generators and ``advance(t)``
treats every queued pair of S-vector degree at most t.
Pairs go by ascending S-vector degree (normal strategy), and a pair of
degree d adds at most one vector, of degree d, whose new pairs are of
degree above d: its leading term is divisible by no leading term in the
working set, so each lcm with one exceeds it.  With homogeneous input, a
set is a Groebner basis through degree t once every pair of degree at
most t reduces to zero, so after ``advance(t)`` every element of degree
at most t of the submodule given so far reduces to zero against the
working set.  A vector added then of degree above t, or of degree t and
irreducible against the working set, makes only pairs of degree above t,
so this still holds.  Stopping after degree t and resuming later thus
treats the pairs of each degree as a run that never stopped (Giovini,
Mora, Niesi, Robbiano and Traverso, "One sugar cube, please", ISSAC
1991).  An element of degree above t never divides a term of degree at
most t, so it takes no part in reducing one, and ``_interreduce`` of the
elements of degree at most t gives a reduced basis through t.  The
reduced basis is unique: the same monic vectors, listed by the same
leading-term key, each filled leading term first and then in descending
order.  So whatever the stops, after ``advance(t)`` the part through t is
the part of degree at most t of the full reduced basis, and once every
pair is treated (t = inf) it is the whole of it: a resumed run and a
one-shot one are equal as ordered dicts.  The listing ascends in degree,
so a basis cut at ``bound=b`` is a prefix of the full listing, and a
normal form of degree at most b is the same against both.

A basis can be grown: a run from ``base=old`` starts from the reduced
basis ``old`` of a submodule N and ends at the reduced basis of N + (new).
The elements of ``old`` enter the working set as they are, and only pairs
that involve a new element are queued.  A pair of two elements of ``old``
needs no treatment: ``old`` is a Groebner basis, so its S-vector already
reduces to zero against ``old`` and hence against any larger working set.
Such a pair also counts as treated for the chain criterion, since the
criterion only asks that the two pairs it leans on reduce to zero.  So
grown and rebuilt bases are equal as ordered dicts too.

Packed terms.  Inside the kernel (``_reduce``, ``BuchbergerRun``,
``_interreduce``) a term (pos, m) of an order in n variables is one int,
from the high bits down:

    rank_of[pos] | MAX_DEGREE - deg(m) | m[n-1] | ... | m[1] | m[0]

Every field below the rank is FIELD_BITS = 16 bits wide: 15 value bits and
a guard bit on top, which stays 0 in a packed term.  Comparing two packed
ints compares the rank first (rank 0 has the highest priority), then the
complemented degree (higher degree first), then the exponents from the
last variable down (a smaller last exponent first), which is grevlex.  So
the smaller int is the larger term under ``ModuleOrder.key``, and the
smallest term of a vector is its leading term.  With that:

- a shift by x^a is one add: t(pos, m * x^a) = t(pos, m) + delta, with
  delta = t(pos, m * x^a) - t(pos, m), the same for every term;
- lt(g) divides t when both have the same rank and ``(e - g) & guards`` is
  0, for the exponent bits e and g of the two: a field where e is smaller
  borrows, and the lowest such field has no incoming borrow, so its guard
  bit comes out set;
- the normal-form heap holds the packed terms themselves.

The limit.  Exponents and degrees live in 15 bits, so every monomial the
kernel forms has total degree at most MAX_DEGREE = 32767.  A term (pos, m)
enters the kernel only if deg(m) + gen_degrees[pos] - min(gen_degrees) is
at most MAX_DEGREE, and a generator only if it is homogeneous.  Reduction
by homogeneous vectors keeps the module degree of every term, so no later
monomial exceeds the limit; an S-pair is checked the same way, on the
degree of its lcm, before its S-vector is formed.  A term past the limit
raises InputError; no exponent ever wraps.

At the boundary.  ``ModuleOrder.pack_vec`` is where a tuple-keyed vector
enters the kernel: each term is checked there (position, exponents,
degree limit), its coefficients are reduced mod p and its zero terms
dropped, so a multiple of p is zero everywhere.  Past it, vectors stay
packed in the order of their free module: presentation relations,
``FreeMap`` columns, ``normal_form`` results (its input is consumed) and
standard terms.  For them
``add_mul`` is acc += f * v with f given as shifts (``ModuleOrder.shift``,
``term_shift``), ``GroebnerBasis.lift`` turns the ring's basis into a
reduced basis of I*F for one ``_reduce`` per vector (and is the base
every module basis grows from), and ``TaggedBasis`` takes packed
generators and hands back packed syzygies and coordinates, moved to the
caller's order by ``ModuleOrder.rerank``.  ``buchberger`` and
``TaggedBasis`` accept either form, told apart by the key type in
``pack_vec``.  The staircase reads the packed leading terms as well:
``standard_terms`` and ``module_numerator`` never unpack one.
``vectors`` is the one tuple-keyed view.

Normal forms keep the working vector ordered instead of rescanning it for
its leading term.  Next to the packed dict ``work`` sits a min-heap of its
terms.  A term is pushed when it enters ``work``, also when it comes back
after cancelling; a popped term that has left ``work`` is stale and
skipped.  Invariant: every term of ``work`` has an entry in the heap.  A
reduction step removes the leading term and adds only smaller ones, so the
pops come in the order of ``max(work, key=order.key)`` and the result is
filled in the same descending order as by a rescan.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from struct import Struct

from .errors import InputError
from .poly import add_terms

Vec = dict  # {(pos, mono): coeff}

FIELD_BITS = 16
_VALUE_MASK = (1 << (FIELD_BITS - 1)) - 1  # the value bits of one field
MAX_DEGREE = _VALUE_MASK


def _past_limit(what: str, degree: int) -> InputError:
    """The error for a term of the given degree, counted from the lowest
    generator degree, that the packed fields cannot hold."""
    return InputError(
        f"{what} of degree {degree} is past the Groebner kernel's limit:"
        f" monomials of total degree at most {MAX_DEGREE}"
    )


def _layout(nvars: int):
    """(struct of the exponent fields, exponent-bit mask, guard bits)."""
    guards = 0
    for i in range(nvars):
        guards |= 1 << (FIELD_BITS * i + FIELD_BITS - 1)
    return Struct(f"<{nvars}H"), (1 << (FIELD_BITS * nvars)) - 1, guards


class ModuleOrder:
    """POT order data for a free module: generator degrees plus position
    priority ranks (rank 0 compares highest), and the packed-term layout
    that goes with them (see the module docstring)."""

    __slots__ = (
        "gen_degrees", "rank_of", "nvars", "pos_of", "deg_shift", "rank_shift",
        "exp_mask", "guards", "fields", "degree_cap", "rank_bits", "term_mask",
        "const_term",
    )

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
        self.pos_of = [0] * len(self.rank_of)
        for pos, r in enumerate(self.rank_of):
            self.pos_of[r] = pos
        self.fields, self.exp_mask, self.guards = _layout(nvars)
        self.deg_shift = FIELD_BITS * nvars
        self.rank_shift = self.deg_shift + FIELD_BITS
        self.rank_bits = [r << self.rank_shift for r in self.rank_of]
        self.term_mask = (1 << self.rank_shift) - 1  # the monomial: all but the rank
        # t is a constant term iff t & term_mask == const_term: complemented
        # degree MAX_DEGREE, exponents 0
        self.const_term = MAX_DEGREE << self.deg_shift
        # the largest deg(m) a term (pos, m) may enter with
        low = min(self.gen_degrees, default=0)
        self.degree_cap = [MAX_DEGREE + low - gd for gd in self.gen_degrees]

    @property
    def rank(self) -> int:
        return len(self.gen_degrees)

    def key(self, term):
        pos, m = term
        return (-self.rank_of[pos], sum(m), tuple(-e for e in reversed(m)))

    def with_tags(self, tag_degrees) -> "ModuleOrder":
        """Append tag positions ranked strictly below every real position.
        A real position keeps its rank, so it packs to the same ints."""
        r = len(self.gen_degrees)
        return ModuleOrder(
            self.gen_degrees + tuple(tag_degrees),
            self.nvars,
            self.rank_of + tuple(range(r, r + len(tag_degrees))),
        )

    # -- packed terms

    def pack_vec(self, v: Vec, p: int) -> dict:
        """A tuple-keyed vector as {packed term: coefficient}, in its order,
        with its coefficients reduced mod p and its zero terms dropped.  A
        vector that is packed already (its keys are ints) is returned as it
        is.  InputError for a term whose position is not one of this
        order's, whose exponents are not ``nvars`` nonnegative integers, or
        which is past the degree limit."""
        if v and type(next(iter(v))) is int:
            return v
        cap, rank_bits, shift = self.degree_cap, self.rank_bits, self.deg_shift
        fields, rank, n = self.fields.pack, len(rank_bits), self.nvars
        out = {}
        for (pos, m), c in v.items():
            c %= p
            if not c:
                continue
            if not 0 <= pos < rank:
                raise InputError("relation position out of range")
            if len(m) != n or min(m, default=0) < 0:
                raise InputError(f"exponents {m} are not {n} nonnegative integers")
            d = sum(m)
            if d > cap[pos]:
                raise _past_limit("term", d - cap[pos] + MAX_DEGREE)
            out[
                rank_bits[pos] | (MAX_DEGREE - d) << shift
                | int.from_bytes(fields(*m), "little")
            ] = c
        return out

    def unpack_vec(self, items) -> Vec:
        """A tuple-keyed vector from (packed term, coefficient) pairs, in
        their order."""
        pos_of, rank_shift, mask = self.pos_of, self.rank_shift, self.exp_mask
        fields, nbytes = self.fields.unpack, 2 * self.nvars
        return {
            (pos_of[t >> rank_shift], fields((t & mask).to_bytes(nbytes, "little"))): c
            for t, c in items
        }

    def degree(self, v: dict) -> int | None:
        """Uniform degree of a homogeneous packed vector, None for zero."""
        deg_shift = self.deg_shift
        tops = {t >> deg_shift for t in v}  # rank and complemented degree
        degs = {self.term_degree(u << deg_shift) for u in tops}
        if len(degs) > 1:
            raise InputError("vector is not homogeneous")
        return degs.pop() if degs else None

    def term_degree(self, t: int) -> int:
        """deg(m) + gen_degrees[pos] of a packed term (pos, m)."""
        return (
            MAX_DEGREE - ((t >> self.deg_shift) & _VALUE_MASK)
            + self.gen_degrees[self.pos_of[t >> self.rank_shift]]
        )

    def shift(self, m) -> int:
        """What multiplying by x^m adds to a packed term: its exponents, and
        deg(m) off the complemented degree."""
        return int.from_bytes(self.fields.pack(*m), "little") - (sum(m) << self.deg_shift)

    def term_shift(self, t: int) -> int:
        """The shift of the monomial of the packed term t; it is the same in
        every order over the same variables."""
        return (t & self.term_mask) - self.const_term

    def rerank(self, items, rank_bits, first: int = 0) -> dict:
        """The packed vector with the given (term, coefficient) pairs, whose
        ranks are all at least ``first``, moved to another order over the
        same variables: the term of rank first + j gets rank_bits[j] and
        keeps its monomial; terms of a rank past ``rank_bits`` are left
        out."""
        rank_shift, mask, stop = self.rank_shift, self.term_mask, first + len(rank_bits)
        return {
            t & mask | rank_bits[(t >> rank_shift) - first]: c
            for t, c in items
            if t >> rank_shift < stop
        }


# ----------------------------------------------------------------- vectors


def add_mul(acc: dict, f, v: dict, p: int) -> None:
    """acc += f * v in place, for packed vectors acc and v and a polynomial
    f given as (shift, coefficient) pairs (see ``ModuleOrder.shift``)."""
    for s, cf in f:
        # add_terms inlined: this is the inner loop of unit elimination
        for t, c in v.items():
            t += s
            c2 = (acc.get(t, 0) + cf * c) % p
            if c2:
                acc[t] = c2
            elif t in acc:
                del acc[t]


class GroebnerBasis:
    """A monic basis held as packed terms: leading terms, tails and a
    divisor index by rank; also the working set a ``BuchbergerRun`` grows.
    ``vectors`` gives the tuple-keyed view, unpacked on first read."""

    __slots__ = ("order", "p", "_lts", "_tails", "_by_rank", "_vectors")

    def __init__(self, order: ModuleOrder, p: int):
        self.order = order
        self.p = p
        self._lts: list = []  # packed leading terms
        self._tails: list = []  # ((packed term, coefficient), ...) below each
        # rank -> [(exponent bits of the leading term, index)], index order
        self._by_rank: list = [[] for _ in range(order.rank)]
        self._vectors: list | None = None

    def _add(self, lt: int, tail: tuple) -> int:
        """Append the monic vector lt + tail; returns its index."""
        i = len(self._lts)
        self._lts.append(lt)
        self._tails.append(tail)
        self._by_rank[lt >> self.order.rank_shift].append((lt & self.order.exp_mask, i))
        self._vectors = None
        return i

    def packed(self) -> list:
        """The basis vectors, leading term first, as packed dicts."""
        return [dict(((lt, 1),) + tail) for lt, tail in zip(self._lts, self._tails)]

    @property
    def vectors(self) -> list:
        """The basis vectors, leading term first, as tuple-keyed dicts."""
        if self._vectors is None:
            self._vectors = [self.order.unpack_vec(v.items()) for v in self.packed()]
        return self._vectors

    def __len__(self):
        return len(self._lts)

    def normal_form(self, v: dict) -> dict:
        """Full normal form of the packed vector v, which it consumes: every
        term of the result is irreducible, and the result lists its terms
        in descending order."""
        return _reduce(v, self)

    def lift(self, order: ModuleOrder) -> "GroebnerBasis":
        """This rank-one basis times each generator of a free module over
        the same variables: g e_0, g e_1, ..., then the next g.  Each
        product is g with the generator's rank bits set.  Under a
        position-over-term order the products of a reduced basis form a
        reduced basis of the submodule they generate (S-pairs pair only
        one position with itself), so no Buchberger is needed."""
        out = GroebnerBasis(order, self.p)
        for lt, tail in zip(self._lts, self._tails):
            for bits in order.rank_bits:
                out._add(lt | bits, tuple((t | bits, c) for t, c in tail))
        return out


def _reduce(work: dict, basis: GroebnerBasis) -> dict:
    """Full normal form of the packed vector ``work``, which it consumes.

    The leading term of ``work`` is the smallest int on a min-heap; see the
    module docstring for why the pops come in the order of
    ``max(work, key=order.key)``.
    """
    p = basis.p
    lts, tails, by_rank = basis._lts, basis._tails, basis._by_rank
    order = basis.order
    exp_mask, guards, rank_shift = order.exp_mask, order.guards, order.rank_shift
    heap = list(work)
    heapify(heap)
    out: dict = {}
    while heap:
        t = heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue  # stale: the term cancelled, or a later entry took it
        e = t & exp_mask
        for ge, gi in by_rank[t >> rank_shift]:
            if not (e - ge) & guards:
                break
        else:
            out[t] = c
            continue
        delta = t - lts[gi]
        for gt, gc in tails[gi]:
            t2 = gt + delta
            old = work.get(t2)
            if old is None:
                # c and gc are units, so the new coefficient is one too
                work[t2] = -c * gc % p
                heappush(heap, t2)
            else:
                c2 = (old - c * gc) % p
                if c2:
                    work[t2] = c2
                else:
                    del work[t2]
    return out


def _make_monic(v: dict, p: int):
    """(leading term, tail scaled so the leading coefficient is 1) of a
    nonzero packed vector."""
    lt = min(v)
    c = v[lt]
    if c == 1:
        return lt, tuple((t, k) for t, k in v.items() if t != lt)
    inv = pow(c, -1, p)
    return lt, tuple((t, k * inv % p) for t, k in v.items() if t != lt)


class BuchbergerRun:
    """One Buchberger run that can stop after a degree and resume.

    It owns the working set ``gb``, the heap of queued pairs, the set of
    treated ones and the number ``n_base`` of leading ``base`` elements,
    whose pairs among themselves count as treated.  Pairs go by ascending
    S-vector degree (normal strategy) with deterministic tie-breaks; see
    the module docstring for why stopping and resuming changes nothing.
    The product criterion is applied in rank one only.  The run keeps
    every ``base`` element and generator it is given; ``advance(t)`` is
    how it stops at a degree.
    """

    __slots__ = ("gb", "order", "p", "heap", "treated", "n_base", "product_criterion")

    def __init__(self, order: ModuleOrder, p: int, base: GroebnerBasis | None = None):
        self.gb = GroebnerBasis(order, p)
        self.order = order
        self.p = p
        self.heap: list = []
        self.treated: set = set()
        self.product_criterion = order.rank == 1
        if base is not None:
            for lt, tail in zip(base._lts, base._tails):
                self.gb._add(lt, tail)
        # pairs (i, j) with j < n_base join two base elements: already treated
        self.n_base = len(self.gb)

    def _queue_pairs(self, j: int) -> None:
        """Queue the pairs of working-set element j with the ones before it."""
        order, heap = self.order, self.heap
        lts = self.gb._lts
        exp_mask, guards, rank_shift = order.exp_mask, order.guards, order.rank_shift
        fields, nbytes = order.fields, 2 * order.nvars
        lt_j = lts[j]
        r = lt_j >> rank_shift
        e_j = lt_j & exp_mask
        gd = order.gen_degrees[order.pos_of[r]]
        for i in range(j):
            lt_i = lts[i]
            if lt_i >> rank_shift != r:
                continue
            e_i = lt_i & exp_mask
            # fieldwise max: the guard of (e_i | guards) - e_j survives
            # exactly in the fields where e_i >= e_j
            keep = (((e_i | guards) - e_j) & guards) >> (FIELD_BITS - 1)
            lcm = e_j ^ ((e_i ^ e_j) & keep * _VALUE_MASK)
            dl = sum(fields.unpack(lcm.to_bytes(nbytes, "little")))
            # ascending S-vector degree, then grevlex ascending on the lcm
            heappush(heap, (dl + gd, dl, -lcm, i, j))

    def add(self, vectors) -> None:
        """Queue new generators, tuple-keyed or packed in the run's order;
        zero ones are dropped.  The working set stays complete through the
        degree t of the last ``advance`` when each is of degree above t, or
        of degree t and irreducible against the working set; the run ends
        at the same basis either way."""
        order, p = self.order, self.p
        for g in vectors:
            v = order.pack_vec(g, p)
            if v:
                # raises unless v is homogeneous: reduction keeps the degree
                # of every term only for such vectors, and the degree limit
                # rests on that
                order.degree(v)
                self._queue_pairs(self.gb._add(*_make_monic(v, p)))

    def advance(self, t=inf) -> None:
        """Treat every queued pair of S-vector degree at most t, also those
        the treated ones queue; afterwards every element of degree at most
        t of the submodule reduces to zero against the working set."""
        order, p, gb = self.order, self.p, self.gb
        heap, treated, n_base = self.heap, self.treated, self.n_base
        product_criterion, queue_pairs = self.product_criterion, self._queue_pairs
        lts, tails, by_rank = gb._lts, gb._tails, gb._by_rank
        exp_mask, guards = order.exp_mask, order.guards
        rank_shift, deg_shift = order.rank_shift, order.deg_shift
        while heap:
            sdeg, dl, lcm, i, j = heappop(heap)
            if sdeg > t:
                heappush(heap, (sdeg, dl, lcm, i, j))
                break
            lcm = -lcm
            treated.add((i, j))
            lt_i, lt_j = lts[i], lts[j]
            if product_criterion and (lt_i & exp_mask) + (lt_j & exp_mask) == lcm:
                continue  # coprime: each field holds one of the two exponents
            cap = order.degree_cap[order.pos_of[lt_i >> rank_shift]]
            if dl <= cap and not tails[i] and not tails[j]:
                continue  # two monomials: the S-vector is zero
            chained = False
            for ge, k in by_rank[lt_i >> rank_shift]:
                if k == i or k == j or (lcm - ge) & guards:
                    continue
                a, b = (i, k) if i < k else (k, i)
                c, d = (j, k) if j < k else (k, j)
                if (b < n_base or (a, b) in treated) and (
                    d < n_base or (c, d) in treated
                ):
                    chained = True
                    break
            if chained:
                continue
            if dl > cap:
                raise _past_limit("S-pair", dl - cap + MAX_DEGREE)
            lcm |= lt_i >> rank_shift << rank_shift | (MAX_DEGREE - dl) << deg_shift
            # the leading terms cancel: s = x^a * tail_i - x^b * tail_j
            di, dj = lcm - lt_i, lcm - lt_j
            s = {u + di: c % p for u, c in tails[i]}
            add_terms(s, {u + dj: c for u, c in tails[j]}, p, -1)
            r = _reduce(s, gb)
            if r:
                queue_pairs(gb._add(*_make_monic(r, p)))


def buchberger(
    gens,
    order: ModuleOrder,
    p: int,
    base: GroebnerBasis | None = None,
    bound: int | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by ``gens``, or by
    ``gens`` and the reduced basis ``base`` when one is given; ``base``
    must have been computed over the same field, for ``order`` or for an
    order whose terms pack to the same ints (the real part of a tagged
    order, see ``ModuleOrder.with_tags``).

    One ``BuchbergerRun`` taken to the end.  Pairs are processed in
    ascending S-vector degree (normal strategy) with deterministic
    tie-breaks, and the reduced result is canonical for the order
    regardless of generator arrangement.  Pairs of two ``base`` elements
    are never queued; see the module docstring for why the grown basis
    equals the rebuilt one.

    With a degree ``bound``, the run advances through ``bound`` only and
    the result is the part of the reduced basis in degrees up to
    ``bound`` (see the module docstring).
    """
    t = inf if bound is None else bound
    run = BuchbergerRun(order, p, base)
    run.add(gens)
    run.advance(t)
    return _interreduce(run.gb, t)


def _interreduce(gb: GroebnerBasis, t=inf) -> GroebnerBasis:
    """The reduced basis made from the elements of ``gb`` of degree at
    most t."""
    order = gb.order
    exp_mask, guards, rank_shift = order.exp_mask, order.guards, order.rank_shift
    kept = GroebnerBasis(order, gb.p)
    # smallest leading term first: the largest packed int
    for lt, tail in sorted(zip(gb._lts, gb._tails), key=lambda it: it[0], reverse=True):
        e = lt & exp_mask
        if order.term_degree(lt) <= t and all(
            (e - ke) & guards for ke, _ in kept._by_rank[lt >> rank_shift]
        ):
            kept._add(lt, tail)

    # canonical listing: leading-term degree ascending, then the packed
    # int, which is position priority, then grevlex descending
    listing = sorted(
        zip(kept._lts, kept._tails), key=lambda it: (order.term_degree(it[0]), it[0])
    )
    # tail-reduce each element against the kept basis: a term below lt(g)
    # is never divisible by lt(g), so g never reduces itself, and leading
    # terms (and monic leading coefficients) are stable
    out = GroebnerBasis(order, gb.p)
    for lt, tail in listing:
        out._add(lt, tuple(_reduce(dict(tail), kept).items()))
    return out


# ------------------------------------------------------------ tagged bases


class TaggedBasis:
    """Groebner basis of [g_i + eps_i] with elimination tags, grown from an
    untagged ``base``.

    Provides syzygy generators (pure-tag basis elements) and coordinate
    solves (normal form of (v, 0); a vanishing real part certifies
    membership and the tag residue encodes the coordinates).  Both are
    taken modulo the submodule that ``base`` (a reduced basis in
    ``base_order``, such as ``FreeModule.ring_basis``) generates: its
    elements enter the tagged basis as they are, without tags.

    The generators are vectors of the free module of ``base_order``,
    tuple-keyed or packed in ``base_order``.  A real position packs to the
    same int in the tagged order, so packed generators enter as they are,
    and ``syzygies`` and ``solve`` hand packed results back in the order of
    the caller's choice, with one swap of rank bits per term.

    With a degree ``bound``, the run stops after ``bound`` and only the
    part of the basis up to it is kept (see ``buchberger``): ``syzygies``
    then lists the syzygies of degree at most ``bound``, a prefix of the
    unbounded listing, and ``solve`` is exact on vectors of degree at most
    ``bound``.  Degrees are those of the tagged order, where a zero
    generator has the lowest real degree.
    """

    __slots__ = ("p", "real_rank", "order", "gb")

    def __init__(
        self,
        gens,
        base_order: ModuleOrder,
        p: int,
        base: GroebnerBasis | None = None,
        bound: int | None = None,
    ):
        r = base_order.rank
        gens = [base_order.pack_vec(g, p) for g in gens]
        # a zero generator's tag is immaterial; its degree is the lowest
        # real one, so the tagged order keeps every real degree cap
        low = min(base_order.gen_degrees, default=0)
        tag_degrees = [base_order.term_degree(min(g)) if g else low for g in gens]
        order = base_order.with_tags(tag_degrees)
        # tag i is the constant term of rank r + i
        tag = order.const_term
        tagged = [{**g, (r + i) << order.rank_shift | tag: 1} for i, g in enumerate(gens)]
        self.p = p
        self.real_rank = r
        self.order = order
        # a generator and a real position give a tagged order of rank >= 2,
        # so the product criterion is off whenever a pair exists
        self.gb = buchberger(tagged, order, p, base=base, bound=bound)

    def syzygies(self, order: ModuleOrder, count: int) -> list:
        """Generators of the syzygy module of the input generators, cut to
        the first ``count`` of them and packed in ``order``, whose position
        j is generator j: the pure-tag basis elements without their tags
        from ``count`` on."""
        gb, r = self.gb, self.real_rank
        rank_bits = order.rank_bits[:count]
        rerank = self.order.rerank
        return [
            rerank(((lt, 1),) + tail, rank_bits, r)
            for lt, tail in zip(gb._lts, gb._tails)
            # a tag position's rank is the position itself
            if lt >> self.order.rank_shift >= r
        ]

    def solve(self, v: dict, order: ModuleOrder, count: int):
        """Coordinates of the packed vector v (which this consumes) over the
        input generators, cut and packed in ``order`` as in ``syzygies``,
        or None if v is not in their span.  Any valid coordinate vector
        may be returned."""
        w = _reduce(v, self.gb)
        rank_shift, r, p = self.order.rank_shift, self.real_rank, self.p
        if any(t >> rank_shift < r for t in w):
            return None
        return self.order.rerank(((t, -c % p) for t, c in w.items()), order.rank_bits[:count], r)


def minimal_generators(
    gens, order: ModuleOrder, p: int, base: GroebnerBasis | None = None
) -> list:
    """Indices, ascending, of the minimal generators that reverse-delete
    keeps among the nonzero homogeneous packed vectors ``gens`` of the
    free module of ``order``, taken modulo the submodule that the reduced
    basis ``base`` generates.

    Reverse-delete goes through the generators by ascending index and
    drops each one that lies in the submodule spanned by the ones still
    there.  By graded Nakayama that is decided degree by degree: a
    generator of degree j is redundant exactly when its class in the
    degree-j part of Im/m*Im lies in the span of the others' classes, and
    only generators of degree below j reach that part's denominator, which
    dropping redundant ones leaves the same.  In one such vector space the
    kept set K is a basis: it still spans, and each kept vector lay outside
    the span of the rest when its turn came.  So is the set G of the
    vectors that lie outside the span of the higher-indexed ones.  A vector
    in that span is dropped when its turn comes, since nothing of a higher
    index has gone yet, so K is inside G and the two are equal.

    G is what this builds, on one ``BuchbergerRun`` from ``base``: for
    each degree j in ascending order, the run advances through j, so its
    working set is complete through degree j for ``base`` and the kept
    generators below j.  Each generator of degree j, by descending index,
    is kept when its normal form against the working set is nonzero, and
    that monic normal form joins the run.  Its leading term is divisible
    by no leading term there, so each new S-pair has degree above j and
    the working set stays complete through degree j.  The working set is
    never interreduced: whether a vector lies in the submodule does not
    depend on which Groebner basis of it the vector is reduced against,
    so the kept indices are the same as against the reduced basis.  The
    run never advances past the top generator degree, so the pairs above
    it stay queued and untreated."""
    degree = [order.term_degree(min(g)) for g in gens]
    run = BuchbergerRun(order, p, base)
    kept: list = []
    for j in sorted(set(degree)):
        run.advance(j)
        for i in reversed(range(len(gens))):
            if degree[i] == j:
                r = _reduce(dict(gens[i]), run.gb)
                if r:
                    run.add([r])
                    kept.append(i)
    return sorted(kept)


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


def standard_terms(basis: GroebnerBasis, t: int) -> list:
    """Degree-t terms outside the staircase of the basis's leading terms,
    packed in its order: position ascending, grevlex descending within a
    position.

    The exponents of a position are built as prefixes, one variable at a
    time from x_(n-1) down to x_1, each exponent ascending, and x_0 takes
    the degree that is left; so the terms come in ascending packed order.
    A leading term whose lowest variable is x_i (a constant one counts at
    x_(n-1)) divides a term exactly when it divides the term's prefix
    through x_i, so it is tested there only.  A prefix it divides is
    dropped, with every larger exponent of x_i, which stays divisible: the
    walk visits the standard prefixes and at most one more per prefix, not
    every monomial of degree t.
    """
    order = basis.order
    guards, nvars = order.guards, order.nvars
    out = []
    for pos, gd in enumerate(order.gen_degrees):
        d = t - gd
        if d < 0:
            continue
        if d > MAX_DEGREE:
            raise _past_limit("staircase degree", d)
        by_var: list = [[] for _ in range(nvars)]
        for b, _ in basis._by_rank[order.rank_of[pos]]:
            by_var[((b & -b).bit_length() - 1) // FIELD_BITS if b else nvars - 1].append(b)
        level = [(0, d)]  # (exponent bits so far, degree left)
        for i in range(nvars - 1, 0, -1):
            shift, blockers, nxt = FIELD_BITS * i, by_var[i], []
            for v, r in level:
                for e in range(r + 1):
                    w = v | e << shift
                    for b in blockers:
                        if not (w - b) & guards:
                            break
                    else:
                        nxt.append((w, r - e))
                        continue
                    break
            level = nxt
        head = order.rank_bits[pos] | (MAX_DEGREE - d) << order.deg_shift
        blockers = by_var[0]
        for v, r in level:
            e = v | r
            for b in blockers:
                if not (e - b) & guards:
                    break
            else:
                out.append(head | e)
    return out


def module_numerator(gb: GroebnerBasis) -> dict:
    """Hilbert-series numerator of F/N from the staircase of the basis
    ``gb`` of N, summed with generator-degree shifts.

    The leading terms of each position, their rank bits dropped, are
    words of the complemented degree and the exponents, and the recursion
    runs on them: with pivot q, HN(I' + (q)) = HN(I') - t^deg(q) *
    HN(I' : q) (Bayer and Stillman, J. Symbolic Comput. 1992).  A set of
    words is minimalized and sorted descending, which is grevlex
    ascending, and the pivot is its last word.  Unrolled over the pivots,
    HN(q_0, ..., q_k) = 1 - sum of t^deg(q_j) * HN((q_0, ..., q_(j-1)) : q_j)
    over j = 0..k, subtracted in that order: the additions of the
    recursion on the prefix, in its order, but the Python recursion
    follows the colons only, not each prefix, so a long list of
    generators does not make it deep.  Word o divides word m when
    ``(m - o) & guards`` is 0.  The colon g : q is e - min(e, q) on the
    exponent bits: no field of (e | guards) - q borrows, and its guard
    survives exactly where e >= q.  The degree of exponent bits e is the
    top field of e * (1 + 2^16 + ... + 2^(16 (n-1))), which holds the sum
    of the fields; that sum is below 2^15, so no field carries.
    """
    order = gb.order
    guards, exp_mask, deg_shift = order.guards, order.exp_mask, order.deg_shift
    ones = exp_mask // ((1 << FIELD_BITS) - 1)  # 1 in every exponent field
    top = max(deg_shift - FIELD_BITS, 0)  # the last exponent field
    words: list = [[] for _ in range(order.rank)]
    for lt in gb._lts:
        words[lt >> order.rank_shift].append(lt & order.term_mask)

    def minimalize(ms) -> tuple:
        out: list = []
        for m in sorted(ms, reverse=True):
            for o in out:
                if not (m - o) & guards:
                    break
            else:
                out.append(m)
        return tuple(out)

    memo: dict = {}

    def rec(ms: tuple) -> dict:
        res = memo.get(ms)
        if res is not None:
            return res
        res = {0: 1}
        for k, q in enumerate(ms):
            qe = q & exp_mask
            colon = set()
            for g in ms[:k]:
                diff = (g & exp_mask | guards) - qe
                ge = diff & guards
                e = diff & ge - (ge >> (FIELD_BITS - 1))
                colon.add((MAX_DEGREE - (e * ones >> top & _VALUE_MASK)) << deg_shift | e)
            series_add(res, rec(minimalize(colon)), MAX_DEGREE - (q >> deg_shift), -1)
        memo[ms] = res
        return res

    total: dict = {}
    for pos, gd in enumerate(order.gen_degrees):
        series_add(total, rec(minimalize(set(words[order.rank_of[pos]]))), gd)
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
    A ring S/I is the rank-one case, with one generator in degree 0.
    The numerator and its quotient by the largest power of (1 - t) are
    each computed once: a subclass sets ``_numerator`` (None when it is
    not known yet) and ``_stripped = None`` when it is built."""

    __slots__ = ("_numerator", "_stripped")

    def component_terms(self, t: int) -> list:
        """Standard terms of degree t, packed in the order of ``gb``."""
        return standard_terms(self.gb, t)

    def hilbert_dim(self, t: int) -> int:
        return len(self.component_terms(t))

    @property
    def hilbert_numerator(self) -> dict:
        if self._numerator is None:
            self._numerator = module_numerator(self.gb)
        return dict(self._numerator)

    def _strip(self) -> tuple[int, dict]:
        """(k, HN / (1 - t)^k) for the largest k <= nvars that divides."""
        if self._stripped is None:
            self._stripped = strip_one_minus_t(self.hilbert_numerator, self.gb.order.nvars)
        return self._stripped

    def hilbert_function(self) -> dict:
        """Finite Hilbert function {t: dim}; finite-length quotients only."""
        k, hf = self._strip()
        if k < self.gb.order.nvars:
            raise InputError(
                "the quotient has positive dimension, so its Hilbert function is not finite"
            )
        return dict(hf)

    @property
    def krull_dimension(self) -> int:
        """nvars minus the power of (1 - t) dividing the numerator; -1 for
        the zero quotient."""
        k, hf = self._strip()
        return self.gb.order.nvars - k if hf else -1

    def top_degree(self) -> int:
        """Largest t with a nonzero degree-t component; -1 for zero."""
        hf = self.hilbert_function()
        return max(hf) if hf else -1
