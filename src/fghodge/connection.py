"""The rigid irregular connection matrix and its two-variable extension.

Connection coefficients are matrix-valued Laurent polynomials in t and z.
A LaurentMatrix stores one exact scalar SparseMatrix per monomial t^a z^b
and never stores a zero coefficient.  Sums, scalings and derivatives act
on each coefficient; the commutator, the one product, adds exponents and
takes the SparseMatrix commutators of the coefficients, except two on one
monomial that cancel, (X, Y) and (aY, bX) with ab = 1 (commutator proves
it), and the multiples that test finds; int coefficients stay ints.

The Frenkel-Gross connection is d + (N + E t) dt/t on the trivial bundle
over the punctured line; rmodule_pair returns the coefficient pair of its
two-variable extension

    d + (N + tE) dt/(tz) - h (N + tE) dz/z^2 + RHO dz/z,

namely A = (N + tE)/(tz) and B = -h (N + tE)/z^2 + RHO/z, with h the
Coxeter number.  Flatness is the algebraic identity dA/dz - dB/dt = [A, B],
certified by integrability_residual returning the zero matrix; derivatives
are formal on Laurent exponents and every coefficient is canonical, so
"is zero" is a structural test on exact rationals.  [A, B] forms no general
matrix product: of its six coefficient pairs, (N, -hN) and (E, -hE) are
multiples, which the cancel test finds, the two with RHO diagonal scalings,
and (N, -hE) and (E, -hN) the cancelling pair; only the two RHO pairs are
formed.
"""

from __future__ import annotations

import operator

from .chevalley import PrincipalTriple
from .errors import UsageError
from .linalg import SparseMatrix, _entry, _ratio

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


def _cancel(ratio, x: SparseMatrix, y: SparseMatrix, x2: SparseMatrix, y2: SparseMatrix) -> bool:
    """(x2, y2) = (a y, b x) with ab = 1, so that [x, y] + [x2, y2] = 0;
    ratio(u, v) is _ratio of the coefficient pair (u, v), formed once."""
    a, b = ratio(x2, y), ratio(x, y2)
    return a is not None and b is not None and a[0] * b[1] == a[1] * b[0]


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
        """AB - BA as the sum of the coefficient commutators [A_m, B_m'] t^(m+m'),
        less the pairs of them that cancel.

        Two coefficient pairs on one monomial of the form (X, Y) and
        (aY, bX) with ab = 1 are skipped: [aY, bX] = ab [Y, X] = -ab [X, Y],
        so [X, Y] + [aY, bX] = (1 - ab) [X, Y] = 0.  _ratio on the pair
        (X', Y) gives Y = (p/q) X', so a = q/p, and on the pair (X, Y') gives
        Y' = (p'/q') X, so b = p'/q'; ab = 1 is tested as q p' = p q', so no
        Fraction is formed.  Every rmodule_pair has one such pair on t^0
        z^-3: (N, -hE) and (E, -hN), with a = -1/h and b = -h.

        The cancelling pairs are found first, and each _ratio that search
        forms is kept by pair; a pair it found to be a multiple, [X, cX] = 0,
        forms no commutator.  On an rmodule_pair those are (N, -hN) and
        (E, -hE), so the pass over N against -hN is made once, not again in
        SparseMatrix.commutator.
        """
        self._match(other)
        pairs = [((t1 + t2, z1 + z2), m1, m2) for (t1, z1), m1 in self.coeffs.items()
                 for (t2, z2), m2 in other.coeffs.items()]
        ratios: dict[tuple[int, int], tuple | None] = {}

        def ratio(u: SparseMatrix, v: SparseMatrix):
            key = (id(u), id(v))
            if key not in ratios:
                ratios[key] = _ratio(u.entries, v.entries)
            return ratios[key]

        kept = []
        while pairs:
            mono, x, y = pairs.pop(0)
            twin = next((j for j, (m, x2, y2) in enumerate(pairs) if m == mono and _cancel(ratio, x, y, x2, y2)), None)
            if twin is None:
                kept.append((mono, x, y))
            else:
                del pairs[twin]
        out: dict[Monomial, SparseMatrix] = {}
        for mono, x, y in kept:
            if ratios.get((id(x), id(y))) is None:  # not a known multiple
                _accumulate(out, mono, x.commutator(y))
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
