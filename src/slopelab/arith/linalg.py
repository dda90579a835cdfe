"""F_p-linear algebra on base-p digit vectors.

A vector of length n over F_p is a list of digits c_0, ..., c_{n-1} in
[0, p).  Read as the int sum c_i p^i it is the code of an element of
F_{p^n} (see `fields`), and field addition is vector addition, so every
additive map of a finite field is a matrix over F_p in these coordinates.

`Echelon` keeps the span of the vectors inserted so far.  A row's pivot is
its highest nonzero coordinate, scaled to 1, and every row carries the
combination of inserted vectors it came from, so a membership test also
returns a preimage.  `reduce` clears the pivot coordinates from the top
down; because the pivots are leading digits, what is left of v is the
least code in the coset v + span.
"""

from __future__ import annotations


class Echelon:
    """Row echelon basis over F_p of the span of the inserted vectors."""

    __slots__ = ("p", "rows", "count")

    def __init__(self, p: int):
        self.p = p
        self.rows: list[tuple[int, list[int], list[int]]] = []  # pivot descending
        self.count = 0          # vectors inserted so far, dependent ones too

    def reduce(self, v) -> tuple[list[int], list[int]]:
        """(r, c) with v = r + sum_k c_k u_k and r zero at every pivot,
        where u_k is the k-th inserted vector."""
        p = self.p
        r = list(v)
        c = [0] * self.count
        for piv, row, comb in self.rows:
            x = r[piv]
            if x:
                for i in range(piv + 1):
                    r[i] = (r[i] - x * row[i]) % p
                for k, y in enumerate(comb):
                    c[k] = (c[k] + x * y) % p
        return r, c

    def insert(self, v) -> bool:
        """Insert v as the next vector u_k; False when it was already in
        the span."""
        p = self.p
        r, c = self.reduce(v)
        self.count += 1
        piv = next((i for i in reversed(range(len(r))) if r[i]), None)
        if piv is None:
            return False
        # r = u_k - sum_k' c_k' u_k', scaled so that the pivot is 1
        inv = pow(r[piv], -1, p)
        comb = [-y * inv % p for y in c] + [inv]
        self.rows.append((piv, [x * inv % p for x in r], comb))
        self.rows.sort(key=lambda t: -t[0])
        return True

    def member(self, v) -> list[int] | None:
        """Coefficients c with v = sum_k c_k u_k, or None when v is not in
        the span."""
        r, c = self.reduce(v)
        return None if any(r) else c
