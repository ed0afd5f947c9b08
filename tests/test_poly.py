"""Field scalars, polynomial arithmetic, parser/printer, and the term order."""

import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import compose, mono_deg, mono_divides, monomials_of_degree

from cmwild.errors import InputError
from cmwild.field import PrimeField, check_characteristic, is_prime
from cmwild.poly import PolyRing, grevlex_key, mono_mul

SPELL_RING = PolyRing(["x", "y", "z_1"], 7)
SPACES = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def spelled_polys(draw):
    """(text, poly): signed terms with repeated monomials, zero coefficients
    and multiples of p, written in one of the legal spellings of their sum."""
    p, names = SPELL_RING.p, SPELL_RING.vars
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    terms = draw(st.lists(st.tuples(exps, st.integers(-3 * p, 3 * p)), min_size=1, max_size=5))
    poly, parts = SPELL_RING.zero(), []
    for i, (e, c) in enumerate(terms):
        poly = poly + SPELL_RING.monomial(e, c)
        factors = []
        for name, k in zip(names, e):
            while k:  # x^3 as x^3, x**2*x, x*x*x, ...
                part = draw(st.integers(1, k))
                k -= part
                if part == 1 and draw(st.booleans()):
                    factors.append(name)
                else:
                    op = draw(st.sampled_from(["^", "**"]))
                    factors.append(f"{name}{draw(SPACES)}{op}{draw(SPACES)}{part}")
        factors = draw(st.permutations(factors))
        star = f"{draw(SPACES)}*{draw(SPACES)}"
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1 and draw(st.booleans()):
            body = star.join(factors)
        else:
            body = f"{abs(c)}{star}" + star.join(factors)
        sign = "-" if c < 0 else draw(st.sampled_from(["+", ""] if i == 0 else ["+"]))
        parts.append(f"{draw(SPACES)}{sign}{draw(SPACES)}{body}{draw(SPACES)}")
    return "".join(parts), poly


SOUP_TOKENS = ["x", "y", "z_1", "w", "x2", "0", "1", "7", "12", "+", "-", "*", "**", "^", " ", "\t"]
SOUP = st.lists(st.one_of(st.sampled_from(SOUP_TOKENS), st.text(max_size=2)), max_size=12)


def grevlex_rendering(f) -> str:
    """Oracle for ``str(Poly)``: terms sorted by ``grevlex_key``
    descending, factors joined one variable at a time."""
    if not f.terms:
        return "0"
    parts = []
    for e in sorted(f.terms, key=grevlex_key, reverse=True):
        c = f.terms[e]
        factors = []
        for name, exp in zip(f.ring.vars, e):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return "+".join(parts)


@st.composite
def printed_polys(draw):
    """Polynomials in 1-6 variables with constant terms, unit and other
    coefficients and exponents above 1, over a small or the default prime."""
    nvars = draw(st.integers(1, 6))
    ring = PolyRing([f"x{i}" for i in range(nvars)], draw(st.sampled_from((3, 7, 32003))))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    coeffs = st.one_of(st.just(1), st.integers(1, ring.p - 1))
    return sum(
        (ring.monomial(e, c) for e, c in draw(st.lists(st.tuples(exps, coeffs), max_size=8))),
        ring.zero(),
    )


def xgcd(a, b):
    """Extended Euclid, used as an independent inversion oracle."""
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_r, old_s


class TestPrimeField:
    def test_inverse_matches_extended_euclid(self):
        rng = random.Random(0)
        for p in (3, 101, 32003):
            f = PrimeField(p)
            for _ in range(200):
                a = rng.randrange(1, p)
                g, s = xgcd(a, p)
                assert g == 1
                assert f.inv(a) == s % p
                assert a * f.inv(a) % p == 1

    def test_rejects_composite_and_even(self):
        with pytest.raises(InputError):
            PrimeField(32001)  # 3 * 10667
        with pytest.raises(InputError):
            PrimeField(2)
        with pytest.raises(InputError):
            PrimeField(2**31 + 11)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(7).inv(0)

    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(2, 50):
            assert is_prime(n) == (n in primes)

    def test_is_prime_matches_a_sieve(self):
        n = 20000
        sieve = [True] * n
        sieve[0] = sieve[1] = False
        for i in range(2, n):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(range(i * i, n, i))
        assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]

    def test_characteristic_range_of_the_four_witnesses(self):
        # a strong pseudoprime to the bases 2, 3, 5: the base 7 rejects it
        with pytest.raises(InputError, match="25326001 is not prime"):
            check_characteristic(25326001)
        assert check_characteristic(2**31 - 1) == 2**31 - 1
        # the least strong pseudoprime to 2, 3, 5 and 7, which is_prime
        # would pass, is refused by size before is_prime sees it
        with pytest.raises(InputError, match="3215031751 exceeds 2\\^31"):
            check_characteristic(3215031751)

    def test_characteristic_of_any_integer_type(self):
        p = check_characteristic(np.int64(7))
        assert p == 7 and type(p) is int
        assert PrimeField(np.int32(31)).p == 31
        with pytest.raises(InputError, match="must be an integer, not float"):
            check_characteristic(7.0)
        with pytest.raises(InputError, match="must be an integer, not str"):
            PrimeField("7")


class TestGrevlex:
    def test_degree_two_order_in_three_vars(self):
        ring = PolyRing(["x", "y", "z"])
        ms = monomials_of_degree(3, 2)
        names = [str(ring.monomial(m)) for m in ms]
        assert names == ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2"]

    def test_total_order_exhaustive_low_degree(self):
        # all monomials of degree <= 4 in <= 3 variables: the key induces a
        # strict total order refining degree
        for nvars in (1, 2, 3):
            all_monos = []
            for d in range(5):
                all_monos.extend(monomials_of_degree(nvars, d))
            keys = [grevlex_key(m) for m in all_monos]
            assert len(set(keys)) == len(keys)
            for a in all_monos:
                for b in all_monos:
                    if mono_deg(a) > mono_deg(b):
                        assert grevlex_key(a) > grevlex_key(b)

    def test_multiplicative(self):
        rng = random.Random(1)
        for _ in range(500):
            nvars = rng.randrange(1, 4)
            a = tuple(rng.randrange(4) for _ in range(nvars))
            b = tuple(rng.randrange(4) for _ in range(nvars))
            c = tuple(rng.randrange(4) for _ in range(nvars))
            if grevlex_key(a) > grevlex_key(b):
                assert grevlex_key(mono_mul(a, c)) > grevlex_key(mono_mul(b, c))

    def test_divisibility_helpers(self):
        assert mono_divides((1, 0, 2), (2, 0, 2))
        assert not mono_divides((1, 1, 0), (2, 0, 2))


class TestPolyArithmetic:
    def random_poly(self, ring, rng, max_deg=3, terms=4):
        out = ring.zero()
        for _ in range(terms):
            e = tuple(rng.randrange(max_deg + 1) for _ in range(ring.nvars))
            out = out + ring.monomial(e, rng.randrange(ring.p))
        return out

    def test_ring_axioms_random(self):
        ring = PolyRing(["x", "y"], 101)
        rng = random.Random(2)
        for _ in range(1000):
            a = self.random_poly(ring, rng)
            b = self.random_poly(ring, rng)
            c = self.random_poly(ring, rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + ring.zero() == a
            assert a * ring.one() == a
            assert a - a == ring.zero()

    def test_leading_term_and_monic(self):
        ring = PolyRing(["x", "y", "z"])
        f = ring.parse("3*x^2*y+5*z^4")
        assert f.lt()[0] == (0, 0, 4)  # degree dominates
        assert f.monic().lc() == 1

    def test_homogeneity(self):
        ring = PolyRing(["x", "y"])
        assert ring.parse("x^2+y^2").is_homogeneous()
        assert not ring.parse("x^2+y").is_homogeneous()
        assert ring.zero().is_homogeneous()
        assert ring.zero().degree() == -1

    def test_compose_linear_change(self):
        ring = PolyRing(["x", "y"], 13)
        f = ring.parse("x^2+y^2")
        x, y = ring.gens()
        g = compose(f, [x + y, x - y])
        assert g == ring.parse("2*x^2+2*y^2")


class TestParsePrint:
    def test_round_trip_canonical(self):
        ring = PolyRing(["x", "y", "z"])
        for text in ["x^2+32002*y^2", "x*y*z^2+2*y*z^3", "z^4", "5"]:
            f = ring.parse(text)
            assert str(f) == text
            assert ring.parse(str(f)) == f

    def test_cancellation_prints_zero(self):
        ring = PolyRing(["x", "y"])
        assert str(ring.parse("x*y-y*x")) == "0"

    def test_grammar_forms(self):
        ring = PolyRing(["x", "y"], 7)
        assert ring.parse("2*x^3*y") == ring.monomial((3, 1), 2)
        assert ring.parse("x-2*y") == ring.parse("x+5*y")
        assert ring.parse("-x+y") == ring.parse("y-x")
        assert ring.parse("x**2") == ring.parse("x^2")

    def test_errors_carry_position(self):
        ring = PolyRing(["x", "y"])
        with pytest.raises(InputError, match="position 4"):
            ring.parse("x^2+@y")
        with pytest.raises(InputError, match="unknown variable 'w'"):
            ring.parse("x+w")
        with pytest.raises(InputError):
            ring.parse("")
        with pytest.raises(InputError):
            ring.parse("x+")
        with pytest.raises(InputError, match="expected a variable"):
            ring.parse("2*3")

    @settings(max_examples=300, deadline=None)
    @given(spelled=spelled_polys())
    def test_legal_spellings_parse_to_their_sum(self, spelled):
        text, poly = spelled
        assert SPELL_RING.parse(text) == poly

    @settings(max_examples=300, deadline=None)
    @given(tokens=SOUP)
    def test_token_soup_parses_or_names_the_fault(self, tokens):
        try:
            SPELL_RING.parse("".join(tokens))
        except InputError as exc:
            assert re.search(r"at position \d+|unknown variable|empty polynomial", str(exc))

    @pytest.mark.parametrize("text", ["2x", "x y", "--x", "x^2^3", "2**x", "x*", "x^"])
    def test_rejected_spellings(self, text):
        with pytest.raises(InputError, match=r"at position \d+"):
            PolyRing(["x", "y"]).parse(text)

    def test_integer_past_the_int_digit_limit_is_an_input_error(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("int() takes any number of digits in this interpreter")
        ring = PolyRing(["x"])
        for text in ("1" * (limit + 1), "x^" + "1" * (limit + 1)):
            with pytest.raises(InputError, match="at position 0"):
                ring.parse(text)

    @settings(max_examples=300, deadline=None)
    @given(f=printed_polys())
    def test_print_matches_the_grevlex_rendering_and_parses_back(self, f):
        assert str(f) == grevlex_rendering(f)
        assert f.ring.parse(str(f)) == f

    def test_print_sorted_descending(self):
        ring = PolyRing(["x", "y", "z"])
        f = ring.parse("z^2+x^2+y*z+x*y")
        assert str(f) == "x^2+x*y+y*z+z^2"
