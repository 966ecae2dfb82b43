"""Symmetric-group combinatorics: permutations, words, reduced words.

A permutation is the tuple of its images w(1), ..., w(n): one-line notation.
Words are plain tuples of indices in {1, ..., n-1}; many words map to one
permutation and they are never canonicalised.
"""

from __future__ import annotations

from itertools import permutations as _it_perms

__all__ = [
    "Permutation",
    "identity",
    "longest_element",
    "transposition",
    "apply_word",
    "is_minimal",
    "all_reduced_words",
    "lex_smallest_reduced_word",
    "all_permutations",
    "nu_triple",
    "rank_function",
]


class Permutation(tuple):
    __slots__ = ()

    def __new__(cls, images):
        """images = w(1), ..., w(n), any iterable."""
        self = tuple.__new__(cls, images)
        n = len(self)
        if sorted(self) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {tuple(self)}")
        return self

    @classmethod
    def _trusted(cls, images) -> "Permutation":
        """images known to be a permutation: no check."""
        return tuple.__new__(cls, images)

    @property
    def n(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        return self[i - 1]

    def length(self) -> int:
        """Number of inversions."""
        n = len(self)
        return sum(1 for i in range(n) for j in range(i + 1, n)
                   if self[i] > self[j])

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self, start=1):
            inv[v - 1] = i
        return self._trusted(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self o other: i -> self(other(i))."""
        if self.n != other.n:
            raise ValueError("sizes differ")
        return self._trusted(map(self, other))

    def right_multiply(self, i: int) -> "Permutation":
        """self * s_i (swap values in positions i, i+1)."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"index {i} out of range for S_{self.n}")
        im = list(self)
        im[i - 1], im[i] = im[i], im[i - 1]
        return self._trusted(im)

    def right_descents(self) -> list:
        return [i for i in range(1, self.n) if self[i - 1] > self[i]]

    def diagram(self) -> tuple:
        """Rothe diagram, row by row: cells (i, j), j < w(i), i < w^-1(j)."""
        inv = self.inverse()
        return tuple((i, j) for i in range(1, self.n + 1)
                     for j in range(1, self(i)) if inv[j - 1] > i)

    def embed(self, n: int) -> "Permutation":
        """View inside S_n for n >= self.n, fixing the new points."""
        if n < self.n:
            raise ValueError("cannot shrink")
        return self._trusted(self + tuple(range(self.n + 1, n + 1)))

    def one_line(self) -> str:
        return " ".join(str(v) for v in self)

    @staticmethod
    def from_one_line(text: str) -> "Permutation":
        images = tuple(int(tok) for tok in text.replace(",", " ").split())
        if not images:
            raise ValueError("empty permutation")
        return Permutation(images)

    def __repr__(self):
        return f"Permutation({self.one_line()})"


def identity(n: int) -> Permutation:
    return Permutation._trusted(tuple(range(1, n + 1)))


def longest_element(n: int) -> Permutation:
    return Permutation._trusted(tuple(range(n, 0, -1)))


def transposition(n: int, i: int) -> Permutation:
    return identity(n).right_multiply(i)


def apply_word(word: tuple, n: int) -> Permutation:
    """Product s_{i_1} ... s_{i_l} in S_n."""
    w = identity(n)
    for i in word:
        w = w.right_multiply(i)
    return w


def is_minimal(word: tuple, n: int) -> bool:
    return len(word) == apply_word(word, n).length()


def all_reduced_words(w: Permutation) -> tuple:
    """All reduced words for w, grouped by their last letter, ascending.

    Peeling a right descent i off w leaves w*s_i of length l(w)-1, so every
    reduced word arises as (word of w*s_i) + (i).  The permutations so
    reached are collected level by level, then tabled from the identity."""
    levels = [[w]]
    for _ in range(w.length()):
        levels.append(list({v.right_multiply(i): None for v in levels[-1]
                            for i in v.right_descents()}))
    table = {levels.pop()[0]: ((),)}
    for level in reversed(levels):
        for v in level:
            table[v] = tuple(prefix + (i,) for i in v.right_descents()
                             for prefix in table[v.right_multiply(i)])
    return table[w]


def lex_smallest_reduced_word(w: Permutation) -> tuple:
    """Bubble-sort w^-1, always swapping its leftmost descent i, the
    smallest left descent of what is left of w; a swap at i can only make
    a new descent at i - 1, so step back one place after each."""
    inv, word, i = list(w.inverse()), [], 1
    while i < len(inv):
        if inv[i - 1] > inv[i]:
            inv[i - 1], inv[i] = inv[i], inv[i - 1]
            word.append(i)
            i = max(i - 1, 1)
        else:
            i += 1
    return tuple(word)


def all_permutations(n: int):
    return map(Permutation._trusted, _it_perms(range(1, n + 1)))


def nu_triple(t: tuple) -> Permutation:
    """The Grassmannian-type permutation attached to a triple (s, t, u).

    Two-line display: 1..u fixed, positions u+1..t map to s+1..s+t-u and
    positions t+1..s+t-u map to u+1..s.  Requires u <= min(s, t)."""
    s, tt, u = t
    if not (0 <= u <= min(s, tt)):
        raise ValueError(f"triple {t} violates u <= min(s, t)")
    n = s + tt - u
    if n == 0:
        raise ValueError("empty triple")
    images = list(range(1, u + 1))
    images += list(range(s + 1, s + tt - u + 1))
    images += list(range(u + 1, s + 1))
    return Permutation(images)


def rank_function(w: Permutation) -> tuple:
    """r(i, j) = #{l <= j : w(l) <= i} for i, j < n, row by row: v <= w in
    Bruhat order exactly when no rank of v is below w's (Bjorner-Brenti
    2.1.5)."""
    return tuple(sum(v <= i for v in w[:j])
                 for i in range(1, w.n) for j in range(1, w.n))
