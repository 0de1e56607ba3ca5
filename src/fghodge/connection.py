"""The rigid irregular connection matrix and its two-variable extension.

Connection coefficients are matrix-valued Laurent polynomials in t and z.
A LaurentMatrix stores one exact scalar SparseMatrix per monomial t^a z^b
and never stores a zero coefficient.  Sums, scalings and derivatives act
on each coefficient; the commutator, the one product, adds exponents and
forms SparseMatrix commutators only where bilinearity leaves one: each
coefficient is written as a multiple of the first proportional one, and the
scalars of each commutator of two such on one monomial are summed first
(commutator proves it); int coefficients stay ints.

The Frenkel-Gross connection is d + (N + E t) dt/t on the trivial bundle
over the punctured line; rmodule_pair returns the coefficient pair of its
two-variable extension

    d + (N + tE) dt/(tz) - h (N + tE) dz/z^2 + RHO dz/z,

namely A = (N + tE)/(tz) and B = -h (N + tE)/z^2 + RHO/z, with h the
Coxeter number.  Flatness is the algebraic identity dA/dz - dB/dt = [A, B],
certified by integrability_residual returning the zero matrix; derivatives
are formal on Laurent exponents and every coefficient is canonical, so
"is zero" is a structural test on exact rationals.  [A, B] forms no general
matrix product: its coefficients are N, E, -hN, -hE and RHO, so its six
coefficient pairs reduce to [N, N], [E, E], -h[N, E] - h[E, N] and the two
RHO pairs.  The first two are zero, the scalars of the third sum to zero,
and only [N, RHO] and [E, RHO], diagonal scalings, are formed.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .chevalley import PrincipalTriple
from .errors import UsageError
from .linalg import Entries, Entry, SparseMatrix, _entry

Monomial = tuple[int, int]  # (t-exponent, z-exponent)


def _accumulate(out: dict[Monomial, SparseMatrix], mono: Monomial, m: SparseMatrix,
                op=operator.add) -> None:
    """out[mono] = op(out[mono], m), an absent coefficient read as zero."""
    if mono in out:
        s = out[mono]._merge(m, op)
    else:
        s = m if op is operator.add else m.scale(-1)
    if s.is_zero():
        out.pop(mono, None)
    else:
        out[mono] = s


def _ratio(x: Entries, y: Entries) -> tuple[Entry, Entry] | None:
    """(p, q) = (y[k0], x[k0]), k0 the first key of x, when x is not zero and
    y = (p/q) x, else None.  y has x's keys and y[k] q = x[k] p on each: a
    cross-multiplication, so no Fraction is formed on int entries."""
    k0 = next(iter(x), None)
    p, q = y.get(k0), x.get(k0)
    if p is not None and x.keys() == y.keys() and all(y[k] * q == v * p for k, v in x.items()):
        return p, q
    return None


def _term(c, a: int, b: int) -> str:
    factors = [str(c)]
    if a:
        factors.append(f"t^{a}" if a != 1 else "t")
    if b:
        factors.append(f"z^{b}" if b != 1 else "z")
    return "*".join(factors)


class LaurentMatrix:
    """Square matrix-valued Laurent polynomial: sum of t^a z^b * coeffs[(a, b)]."""

    def __init__(self, dim: int, coeffs: dict[Monomial, SparseMatrix]):
        self.dim = dim
        self.coeffs = coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"LaurentMatrix(dim={self.dim})"

    @classmethod
    def zero(cls, dim: int) -> "LaurentMatrix":
        return cls(dim, {})

    @classmethod
    def from_scalar_matrix(cls, m: SparseMatrix, dt: int = 0, dz: int = 0,
                           factor=1) -> "LaurentMatrix":
        """Lift an exact scalar matrix to factor * t^dt z^dz * m; factor is an
        int or a Fraction, as SparseMatrix.scale requires."""
        m = m.scale(factor)
        return cls(m.dim, {} if m.is_zero() else {(dt, dz): m})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return self._merge(other, operator.add)

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return self._merge(other, operator.sub)

    def _merge(self, other: "LaurentMatrix", op) -> "LaurentMatrix":
        """op(self, other) one coefficient and one entry at a time: only a
        coefficient on a monomial that self lacks is negated for a difference."""
        self._match(other)
        out = dict(self.coeffs)
        for mono, m in other.coeffs.items():
            _accumulate(out, mono, m, op)
        return LaurentMatrix(self.dim, out)

    def scale(self, c) -> "LaurentMatrix":
        c = _entry(c)  # an int or a Fraction, even when no coefficient is scaled
        if c == 0:
            return LaurentMatrix.zero(self.dim)
        return LaurentMatrix(self.dim, {mono: m.scale(c) for mono, m in self.coeffs.items()})

    def commutator(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """AB - BA = sum of [A_m, B_m'] t^(m+m'), by bilinearity.

        Each coefficient is written once as c R_i, R_i the first coefficient
        (of A, then of B) that it is a multiple of, or itself as a new R_i
        with c = 1; _ratio tests each earlier R_i in turn, and c stays an
        int when it is one.  The commutator is bilinear and antisymmetric,
        [cR_i, c'R_j] = cc'[R_i, R_j] = -cc'[R_j, R_i] and [R_i, R_i] = 0, so
        the part of AB - BA on one monomial is sum_{i<j} s_ij [R_i, R_j], s_ij
        the sum of cc' over the pairs (A_m, B_m') = (cR_i, c'R_j) that land
        there, less that over the pairs (cR_j, c'R_i).  Only an s_ij that is
        not zero forms a SparseMatrix commutator, once for its monomial.
        Every rmodule_pair has R = N, E, RHO, with -hN and -hE the multiples,
        and forms [N, RHO] and [E, RHO] only: on t^0 z^-3, (N, -hE) and
        (E, -hN) give s_NE = -h + h = 0.
        """
        self._match(other)
        reps: list[SparseMatrix] = []

        def written(m: SparseMatrix) -> tuple[Entry, int]:
            for i, r in enumerate(reps):
                if (pq := _ratio(r.entries, m.entries)) is not None:
                    c, rem = divmod(*pq)
                    return (Fraction(*pq) if rem else c), i
            reps.append(m)
            return 1, len(reps) - 1

        left = [(mono, *written(m)) for mono, m in self.coeffs.items()]
        right = [(mono, *written(m)) for mono, m in other.coeffs.items()]
        sums: dict[tuple[Monomial, int, int], Entry] = {}
        for (t1, z1), c1, i in left:
            for (t2, z2), c2, j in right:
                if i != j:
                    key = ((t1 + t2, z1 + z2), min(i, j), max(i, j))
                    sums[key] = sums.get(key, 0) + (c1 * c2 if i < j else -c1 * c2)
        out: dict[Monomial, SparseMatrix] = {}
        for (mono, i, j), s in sums.items():
            if s:
                _accumulate(out, mono, reps[i].commutator(reps[j]).scale(s))
        return LaurentMatrix(self.dim, out)

    def d_t(self) -> "LaurentMatrix":
        return LaurentMatrix(self.dim, {(a - 1, b): m.scale(a)
                                        for (a, b), m in self.coeffs.items() if a != 0})

    def d_z(self) -> "LaurentMatrix":
        return LaurentMatrix(self.dim, {(a, b - 1): m.scale(b)
                                        for (a, b), m in self.coeffs.items() if b != 0})

    def first_nonzero(self):
        """(row, col, text) of the first nonzero entry in row-major order.

        text lists the entry's terms sorted by (t, z) exponents, each written
        c*t^a*z^b with unit exponents bare and zero exponents dropped.
        """
        if self.is_zero():
            return None
        r, c = min(k for m in self.coeffs.values() for k in m.entries)
        entry = {mono: m.get(r, c) for mono, m in sorted(self.coeffs.items())}
        return r, c, " + ".join(_term(v, *mono) for mono, v in entry.items() if v != 0)

    def _match(self, other: "LaurentMatrix") -> None:
        if self.dim != other.dim:
            raise UsageError("matrix dimensions differ")


def rmodule_pair(triple: PrincipalTriple, h: int) -> tuple[LaurentMatrix, LaurentMatrix]:
    """Coefficients A = (N + tE)/(tz), B = -h (N + tE)/z^2 + RHO/z.

    h must be the Coxeter number of the triple's type; passing anything else
    is rejected (build a faulty B by hand to study the broken case).
    """
    if triple.N.dim < 1:
        raise UsageError("representation must have positive dimension")
    datum = triple.datum
    if h != datum.coxeter:
        raise UsageError(f"h = {h} does not match the Coxeter number {datum.coxeter} of {datum.stype}")
    a = (LaurentMatrix.from_scalar_matrix(triple.N, dt=-1, dz=-1)
         + LaurentMatrix.from_scalar_matrix(triple.E, dz=-1))
    b = (LaurentMatrix.from_scalar_matrix(triple.N, dz=-2, factor=-h)
         + LaurentMatrix.from_scalar_matrix(triple.E, dt=1, dz=-2, factor=-h)
         + LaurentMatrix.from_scalar_matrix(triple.RHO, dz=-1))
    return a, b


def integrability_residual(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """dA/dz - dB/dt - (AB - BA), canonical; zero certifies flatness."""
    a._match(b)
    return a.d_z() - b.d_t() - a.commutator(b)
