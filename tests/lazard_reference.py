"""Integrality in the Lazard ring, as an oracle for universal-law outputs.

The universal law is modelled over Q[m1, m2, ...] through its logarithm.
Its coefficients a_ij (of u^i v^j in F) generate the Lazard ring L, a
proper subring: L in weight 1 is 2Z m1, since a_11 = -2 m1.  With m_k of
weight k, a_ij has weight i + j - 1, and L in weight k is the Z-span of the
products of a_ij of total weight k.  Since L is a ring, that span is the
span of a_ij times L in weight k - (i + j - 1) over every a_ij, so each
weight's lattice is built from the lattices below it, brought to echelon
form over Z by the row reduction here.  The operators of a law are defined
over L (Calmes, Petrov & Zainoulline, Ann. Sci. ENS 46, 2013), so every
coefficient of a universal-law output lies in L.

An output is split into pieces: the part of one weight in the m_k of the
coefficient of one monomial in the other variables.  ``Lattice.rejects``
lists the pieces outside L."""

from fractions import Fraction

from flagcalc.fgl import make_universal_rational


def _m_exponents(mono, top: int) -> tuple:
    """The exponents of m_1..m_top in an m-monomial."""
    exps = [0] * top
    for v, e in mono:
        exps[int(v[1:]) - 1] = e
    return tuple(exps)


def _weight(exps: tuple) -> int:
    return sum(k * e for k, e in enumerate(exps, 1))


def _echelon(rows: list, columns: list) -> list:
    """(column, row) pairs of an echelon basis over Z of the span of the
    rows, maps from a column to an integer: each row is zero in the columns
    before its own, and its entry there is the gcd of the span's entries."""
    rows = [r for r in rows if any(r.values())]
    basis = []
    for col in columns:
        live = [r for r in rows if r.get(col)]
        rows = [r for r in rows if not r.get(col)]
        while len(live) > 1:   # Euclid on the column's entries
            live.sort(key=lambda r: abs(r[col]))
            pivot, others = live[0], live[1:]
            for r in others:
                q = r[col] // pivot[col]
                for c, a in pivot.items():
                    r[c] = r.get(c, 0) - q * a
            rows += [r for r in others if not r[col] and any(r.values())]
            live = [pivot, *(r for r in others if r[col])]
        if live:
            basis.append((col, live[0]))
    return basis


class Lattice:
    """L in weights 0..top, in the basis of m-monomials."""

    def __init__(self, top: int):
        self.top = top
        F = make_universal_rational(top + 1, top + 1).F.body
        law = [{_m_exponents(mono, top): c for mono, c in a.terms.items()}
               for (i, j), a in F.split(["u", "v"]).items()
               if i and j and i + j - 1 <= top and not a.is_zero()]
        for a in law:
            assert all(c.denominator == 1 for c in a.values())
        zero = (0,) * top
        self.basis = {0: [(zero, {zero: 1})]}
        for k in range(1, top + 1):
            rows = []
            for a in law:
                w = _weight(next(iter(a)))
                for _, v in self.basis.get(k - w, ()):
                    row: dict = {}
                    for ea, ca in a.items():
                        for ev, cv in v.items():
                            e = tuple(map(sum, zip(ea, ev)))
                            row[e] = row.get(e, 0) + int(ca) * cv
                    rows.append(row)
            columns = sorted({e for r in rows for e in r}, reverse=True)
            self.basis[k] = _echelon(rows, columns)

    def contains(self, k: int, piece: dict) -> bool:
        """Whether the weight-k piece, a map from m-exponents to rationals,
        lies in L."""
        if any(Fraction(c).denominator != 1 for c in piece.values()):
            return False
        rest = {e: int(c) for e, c in piece.items() if c}
        for col, row in self.basis[k]:
            q, r = divmod(rest.get(col, 0), row[col])
            if r:
                return False
            for c, a in row.items():
                rest[c] = rest.get(c, 0) - q * a
        return not any(rest.values())

    def rejects(self, p) -> list:
        """p's pieces outside L, each named by its monomial in the other
        variables and its weight."""
        pieces: dict = {}
        for mono, c in p.terms.items():
            rest = tuple(ve for ve in mono if not ve[0].startswith("m"))
            exps = _m_exponents(
                [ve for ve in mono if ve[0].startswith("m")], self.top)
            pieces.setdefault((rest, _weight(exps)), {})[exps] = c
        return [key for key, piece in pieces.items()
                if not self.contains(key[1], piece)]
