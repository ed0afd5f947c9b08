"""Strict families of MCM modules built from matrix data.

A family spec fixes a graded CM quotient ring R, a verified regular
sequence y of full length d, a degree c in the Artinian reduction Rbar,
and a short list of standard monomials e_1, e_2(, e_3) of degree c.  A
member is the finite-length Rbar-module

    M(A) = coker( I*e_1 + Ax*e_2 (+ Ay*e_3) : n Rbar(-c) -> n Rbar ),

and the MCM module attached to it is the d-th syzygy of M over R.  The
point of the construction: members are isomorphic exactly when their
matrix data are simultaneously conjugate, and that correspondence
survives taking syzygies, so matrix-level verdicts transfer to the MCM
modules.  This module builds members, extracts and certifies the syzygy,
runs the matrix-level isomorphism and indecomposability tests, and checks
the two structural facts the transfer rests on (the degree-shift
embedding of M into its reduced syzygy, and the Koszul-plus-high-degrees
shape of the resolution).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .matalg import (
    as_matrix,
    endomorphism_indecomposability,
    mat_mul,
    rank as mat_rank,
    simultaneous_conjugacy,
)
from .modules import ModulePresentation
from .poly import Poly
from .resolution import comparison_map, koszul_complex, minimal_resolution
from .rings import QuotientRing
from .wildness import artinian_reduction, verify_regular_element

__all__ = [
    "FamilySpec",
    "FamilyMember",
    "IsoCertificate",
    "build_family_member",
    "member_over_ring",
    "mcm_module",
    "iso_test",
    "indecomposability_test",
    "verify_shift_embedding",
    "verify_resolution_shape",
    "action_matrices",
    "family_report",
]


def _as_poly(ring: QuotientRing, f) -> Poly:
    return ring.parse(f) if isinstance(f, str) else f


class FamilySpec:
    """Frame plus matrix data for one member of a strict family.

    ``sequence`` must be a regular sequence of length dim R (verified here,
    stage by stage).  ``basis`` lists two standard monomials of degree c
    for a one-parameter family (``Ay`` omitted) and three for a
    two-parameter family; it defaults to the first ones in the canonical
    grevlex-descending listing of the monomial basis of Rbar_c.
    """

    def __init__(self, ring: QuotientRing, sequence, c: int, Ax, Ay=None,
                 basis=None, n: int | None = None):
        self.ring = ring
        d = ring.krull_dimension
        if d < 1:
            raise InputError("family construction needs a ring of positive dimension")
        seq, self.rbar = artinian_reduction(ring, sequence)
        self.sequence = tuple(seq)
        self.d = d
        self.m = sum(y.degree() for y in seq)

        self.c = int(c)
        if self.c <= self.m - self.d + 1:
            raise InputError(
                f"degree c={self.c} must exceed m-d+1={self.m - self.d + 1}"
            )

        self.Ax = as_matrix(Ax, ring.p)
        if self.Ax.ndim != 2 or self.Ax.shape[0] != self.Ax.shape[1]:
            raise InputError("Ax must be square")
        self.Ay = None if Ay is None else as_matrix(Ay, ring.p)
        if self.Ay is not None and self.Ay.shape != self.Ax.shape:
            raise InputError("Ax and Ay must have the same size")
        self.n = self.Ax.shape[0]
        if n is not None and int(n) != self.n:
            raise InputError(f"declared n={n} does not match matrix size {self.n}")
        if self.n < 1:
            raise InputError("need n >= 1")
        if self.Ay is not None and np.any(
            mat_mul(self.Ax, self.Ay, ring.p) != mat_mul(self.Ay, self.Ax, ring.p)
        ):
            warnings.warn(
                "Ax and Ay do not commute; the member module is still defined,"
                " but it is a module over the free algebra rather than over a"
                " polynomial ring in the parameters",
                stacklevel=2,
            )

        want = 2 if self.Ay is None else 3
        monos = self.rbar.component_basis(self.c)
        if basis is None:
            if len(monos) < want:
                raise InputError(
                    f"degree-{self.c} component has only {len(monos)} standard"
                    f" monomials; need {want}"
                )
            self.basis = tuple(monos[:want])
        else:
            elems = [_as_poly(ring, e) for e in basis]
            if len(elems) != want:
                raise InputError(f"need exactly {want} basis elements, got {len(elems)}")
            standard = {next(iter(e.terms)) for e in monos}
            seen = set()
            for e in elems:
                if len(e.terms) != 1 or next(iter(e.terms.values())) != 1:
                    raise InputError(f"basis element {e} is not a monic monomial")
                mono = next(iter(e.terms))
                if e.degree() != self.c:
                    raise InputError(f"basis element {e} does not have degree {self.c}")
                if mono not in standard:
                    raise InputError(f"basis element {e} is not standard in the reduction")
                if mono in seen:
                    raise InputError(f"basis element {e} repeats")
                seen.add(mono)
            self.basis = tuple(elems)

    @property
    def p(self) -> int:
        return self.ring.p

    def actions(self) -> list[np.ndarray]:
        return [self.Ax] if self.Ay is None else [self.Ax, self.Ay]

    def frame(self):
        """Everything two specs must share for their members to be comparable."""
        return (
            self.ring,
            tuple(str(y) for y in self.sequence),
            self.c,
            tuple(str(e) for e in self.basis),
        )

    def to_json(self) -> dict:
        data = {
            "ring": self.ring.to_json(),
            "sequence": [str(y) for y in self.sequence],
            "c": self.c,
            "basis": [str(e) for e in self.basis],
            "n": self.n,
            "Ax": self.Ax.tolist(),
        }
        if self.Ay is not None:
            data["Ay"] = self.Ay.tolist()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "FamilySpec":
        if not isinstance(data, dict):
            raise InputError("a family instance must be a JSON object")
        for key in ("ring", "sequence", "c", "Ax"):
            if key not in data:
                raise InputError(f"family instance is missing {key!r}")
        ring = QuotientRing.from_json(data["ring"])
        return cls(
            ring,
            data["sequence"],
            data["c"],
            data["Ax"],
            Ay=data.get("Ay"),
            basis=data.get("basis"),
            n=data.get("n"),
        )

    def __repr__(self):
        params = 1 if self.Ay is None else 2
        return f"FamilySpec(c={self.c}, n={self.n}, params={params})"


def _member_columns(spec: FamilySpec) -> list[dict]:
    mats = [np.eye(spec.n, dtype=np.int64)] + spec.actions()
    cols = []
    for j in range(spec.n):
        col: dict = {}
        for i in range(spec.n):
            for e, A in zip(spec.basis, mats):
                coeff = int(A[i, j]) % spec.p
                if coeff:
                    mono = next(iter(e.terms))
                    col[(i, mono)] = coeff
        cols.append(col)
    return cols


def build_family_member(spec: FamilySpec) -> ModulePresentation:
    """M(A) = n Rbar / (columns of I e_1 + Ax e_2 (+ Ay e_3)), over Rbar."""
    return ModulePresentation(spec.rbar, [0] * spec.n, _member_columns(spec))


def member_over_ring(spec: FamilySpec) -> ModulePresentation:
    """The same member presented over R: matrix columns plus y times each
    generator."""
    cols = _member_columns(spec)
    for y in spec.sequence:
        for i in range(spec.n):
            cols.append({(i, mono): c for mono, c in y.terms.items()})
    return ModulePresentation(spec.ring, [0] * spec.n, cols)


class FamilyMember:
    """One member with its derived data, each piece computed once."""

    def __init__(self, spec: FamilySpec):
        self.spec = spec

    @cached_property
    def member(self) -> ModulePresentation:
        return build_family_member(self.spec)

    @cached_property
    def over_ring(self) -> ModulePresentation:
        return member_over_ring(self.spec)

    @cached_property
    def resolution(self):
        # one step past d so the d-th syzygy comes with its relations
        return minimal_resolution(self.over_ring, self.spec.d + 1)

    @cached_property
    def syzygy(self) -> ModulePresentation:
        return self.resolution.syzygy_presentation(self.spec.d)

    @cached_property
    def mcm_verified(self) -> bool:
        # stage i is N/(y_1..y_i)N, the quotient the previous check built
        target = self.syzygy
        for y in self.spec.sequence:
            target = verify_regular_element(target, y)
            if target is None:
                return False
        return True


def mcm_module(spec: FamilySpec) -> tuple[ModulePresentation, bool]:
    """The d-th syzygy of the member over R, with a flag certifying that
    the defining sequence is regular on it (depth = dim, so the module is
    MCM)."""
    bundle = FamilyMember(spec)
    return bundle.syzygy, bundle.mcm_verified


# ----------------------------------------------------------- isomorphism


@dataclass
class IsoCertificate:
    outcome: str  # Isomorphic | NotIsomorphic | Undecided
    witness: list | None
    reason: str
    solution_space_dim: int | None

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "witness": self.witness,
            "reason": self.reason,
            "solution_space_dim": self.solution_space_dim,
        }


def iso_test(spec_a: FamilySpec, spec_b: FamilySpec, seed: int = 0) -> IsoCertificate:
    """Decide whether two members of one family are isomorphic.

    Members are isomorphic exactly when their matrix tuples are
    simultaneously conjugate, so this is a matrix-level decision with an
    exact witness either way it resolves.
    """
    if spec_a.frame() != spec_b.frame():
        raise InputError("family specs live in different frames")
    cert = simultaneous_conjugacy(spec_a.actions(), spec_b.actions(), spec_a.p, seed=seed)
    outcome = cert["verdict"]
    if outcome == "NonIsomorphic":
        outcome = "NotIsomorphic"
    return IsoCertificate(
        outcome=outcome,
        witness=cert.get("witness"),
        reason=cert.get("reason", ""),
        solution_space_dim=cert.get("hom_space_dim"),
    )


def indecomposability_test(spec: FamilySpec, seed: int = 0) -> dict:
    """Indecomposability of the member, decided on the matrix data.

    The verdict transfers to the d-th syzygy: the family is strict, so an
    indecomposable member has an indecomposable MCM syzygy module.
    """
    return endomorphism_indecomposability(spec.actions(), spec.p, seed=seed)


# ------------------------------------------------- structural verification


def verify_shift_embedding(spec: FamilySpec, bundle: FamilyMember | None = None) -> dict:
    """Check that M re-embeds into its reduced syzygy with a degree shift.

    The submodule of Omega^d(M) tensor Rbar generated by its degree-m
    component must have the Hilbert function of M shifted up by m.  The
    report carries both tables; exact equality in every degree is the
    pass condition.
    """
    bundle = bundle or FamilyMember(spec)
    M = bundle.member
    omega_bar = bundle.syzygy.reduce_mod(spec.sequence)
    m = spec.m
    gens = [{term: 1} for term in omega_bar.component_terms(m)]
    quot = omega_bar.quotient(gens)
    top = max(omega_bar.top_degree(), m + max(M.top_degree(), 0))
    rows = []
    passed = True
    for t in range(0, top + 2):
        sub_t = omega_bar.hilbert_dim(t) - quot.hilbert_dim(t)
        shifted = M.hilbert_dim(t - m)
        ok = sub_t == shifted
        passed = passed and ok
        rows.append(
            {"t": t, "submodule": sub_t, "shifted_member": shifted, "match": ok}
        )
    return {
        "check": "shift-embedding",
        "passed": passed,
        "m": m,
        "generators": len(gens),
        "rows": rows,
    }


def _generator_counts(free) -> dict:
    counts: dict[int, int] = {}
    for dg in free.gen_degrees:
        counts[dg] = counts.get(dg, 0) + 1
    return counts


def verify_resolution_shape(spec: FamilySpec, bundle: FamilyMember | None = None) -> dict:
    """Check the Koszul-plus-high-degrees shape of the member's resolution.

    The n-fold Koszul complex on y maps into the minimal resolution of M
    over R as a split subcomplex: in each homological degree i <= d the
    comparison map must stay injective modulo the irrelevant ideal, and
    every resolution generator outside the Koszul part must sit in degree
    at least c+i-1.  Equivalently, the Betti numbers below that bound
    agree exactly with the n-fold Koszul pattern.
    """
    bundle = bundle or FamilyMember(spec)
    kos = koszul_complex(spec.ring, spec.sequence, copies=spec.n)
    res = bundle.resolution
    phis = comparison_map(kos, res)
    p = spec.p
    zero = (0,) * spec.ring.nvars
    rows = []
    passed = True
    for i in range(spec.d + 1):
        phi = phis[i]
        const = np.zeros((phi.target.rank, phi.source.rank), dtype=np.int64)
        for r in range(phi.target.rank):
            for s in range(phi.source.rank):
                const[r, s] = phi.entry(r, s).terms.get(zero, 0)
        split = mat_rank(const, p) == phi.source.rank
        kos_counts = _generator_counts(kos.free(i))
        res_counts = _generator_counts(res.free(i))
        bound = spec.c + i - 1
        degrees_ok = True
        for j in sorted(set(kos_counts) | set(res_counts)):
            have, want = res_counts.get(j, 0), kos_counts.get(j, 0)
            if (have != want) if j < bound else (have < want):
                degrees_ok = False
        ok = split and degrees_ok
        passed = passed and ok
        rows.append(
            {
                "i": i,
                "bound": bound,
                "koszul": sorted(kos_counts.items()),
                "resolution": sorted(res_counts.items()),
                "split_injective": split,
                "degrees_ok": degrees_ok,
            }
        )
    return {
        "check": "resolution-shape",
        "passed": passed,
        "chain_map_certified": True,
        "rows": rows,
    }


# -------------------------------------------------------------- utilities


def action_matrices(pres: ModulePresentation):
    """Multiplication-by-variable matrices of a finite-length module, in
    the standard-term basis listed degree by degree.

    Returns (mats, terms): one square matrix per ring variable and the
    basis terms indexing its rows and columns.
    """
    top = pres.top_degree()
    terms: list = []
    for t in range(top + 1):
        terms.extend(pres.component_terms(t))
    index = {term: k for k, term in enumerate(terms)}
    nv = pres.ring.nvars
    dim = len(terms)
    mats = []
    for v in range(nv):
        mat = np.zeros((dim, dim), dtype=np.int64)
        for k, (pos, mono) in enumerate(terms):
            shifted = tuple(e + (1 if a == v else 0) for a, e in enumerate(mono))
            nf = pres.gb.normal_form({(pos, shifted): 1})
            for term, coeff in nf.items():
                mat[index[term], k] = coeff
        mats.append(mat)
    return mats, terms


def family_report(spec: FamilySpec, seed: int = 0) -> dict:
    """Full member pipeline: build, certify MCM, verify the two structural
    checks, and test indecomposability, as one JSON-ready report."""
    bundle = FamilyMember(spec)
    indec = indecomposability_test(spec, seed=seed)
    shift = verify_shift_embedding(spec, bundle)
    shape = verify_resolution_shape(spec, bundle)
    member_hf = sorted(bundle.member.hilbert_function().items())
    report = {
        "instance": spec.to_json(),
        "member": {
            "hilbert_function": [list(pair) for pair in member_hf],
            "length": sum(v for _t, v in member_hf),
        },
        "mcm": {
            "verified": bundle.mcm_verified,
            "syzygy_generators": sorted(
                _generator_counts(bundle.syzygy.free).items()
            ),
            "betti": bundle.resolution.betti_json(),
        },
        "shift_embedding": shift,
        "resolution_shape": shape,
        "indecomposability": dict(indec),
    }
    if indec["verdict"] == "Indecomposable":
        report["indecomposability"]["syzygy_claim"] = (
            "members are isomorphic exactly when their matrix data are"
            " conjugate, so the indecomposable verdict transfers to the MCM"
            " syzygy module"
        )
    return report
