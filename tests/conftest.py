from __future__ import annotations

from fractions import Fraction

import pytest

from fghodge import grading
from fghodge.rootdatum import SimpleType, build_root_datum


def datum(text: str):
    return build_root_datum(SimpleType.parse(text))


def fw(datum_, node: int):
    """Fundamental weight omega_node (1-based Bourbaki index)."""
    return tuple(1 if i == node - 1 else 0 for i in range(datum_.rank))


ALL_TYPES_RANK8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

# Every type under the positive-root guard (rootdatum.MAX_POSITIVE_ROOTS = 500)
ALL_TYPES = (
    [f"A{n}" for n in range(1, 32)]
    + [f"B{n}" for n in range(2, 23)]
    + [f"C{n}" for n in range(2, 23)]
    + [f"D{n}" for n in range(3, 23)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "D4", "G2", "F4"]


@pytest.fixture(scope="session")
def e8():
    return datum("E8")


@pytest.fixture
def fractions_made(monkeypatch):
    """A list that records the arguments of every Fraction made from now on."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic bypasses __new__ from Python 3.12
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(lambda cls, n, m: made.append((n, m)) or coprime(n, m)))
    return made


@pytest.fixture
def extra_trivial_on_b(monkeypatch):
    """Fault: grading.hodge_numbers adds 2 at level 0 to every B-type table."""
    real = grading.hodge_numbers

    def faulty(d, lam):
        table = real(d, lam)
        if d.stype.family != "B":
            return table
        return grading.HodgeTable({**table.dims, 0: table.level(0) + 2})

    monkeypatch.setattr(grading, "hodge_numbers", faulty)
