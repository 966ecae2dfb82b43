"""A bounded memo for polynomial results.

Every cache of polynomials in flagcalc (the h_w family and the rows its
chains walk, the inverse units of the generalised operators, the
push-forward classes, the connective K-theory body of each locus and the
Schur polynomials it sums, the products of elementary symmetric
polynomials and their partition tables) is a ``TermMemo``: a map whose
size is measured in stored polynomial terms or table rows, evicted
least-recently-used first, with hit and miss counts for inspection.
Callers reach a memo only through ``TermMemo.value``, for a value built
whole, and ``TermMemo.resume``, for the push-forward classes, a chain of
values memoised by prefix.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["MAX_TERMS", "TermMemo"]

# Terms one memo may hold: the whole S_5 family (about 153k terms, roughly
# 13 MB) fits, and h_top(6) alone (188k terms) does too.
MAX_TERMS = 200_000


class TermMemo:
    """LRU map from hashable keys to values, bounded by the total size
    stored: len(value), a SparsePoly's terms or a table's rows.  A value
    larger than the bound is not kept."""

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self.terms = 0
        self.hits = 0
        self.misses = 0

    def get(self, key):
        """The stored value (now most recently used), or None."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        size = len(value)
        if size > MAX_TERMS:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self.terms -= len(old)
        self._entries[key] = value
        self.terms += size
        while self.terms > MAX_TERMS:
            _, evicted = self._entries.popitem(last=False)
            self.terms -= len(evicted)

    def value(self, key, build):
        """The value at key; on a miss, build() stored under key."""
        if (p := self.get(key)) is None:
            self.put(key, p := build())
        return p

    def resume(self, word, key, start, op):
        """The value after every letter of word: key(k) names the value after
        its first k letters, and key(0) start()'s.  The walk resumes at the
        longest stored prefix, applies op(letter, p) for each further letter
        and stores every prefix it passes."""
        k = len(word)
        while (p := self.get(key(k))) is None and k > 0:
            k -= 1
        if p is None:
            self.put(key(0), p := start())
        for k in range(k, len(word)):
            p = op(word[k], p)
            self.put(key(k + 1), p)
        return p

    def clear(self) -> None:
        self._entries.clear()
        self.terms = 0
        self.hits = 0
        self.misses = 0
