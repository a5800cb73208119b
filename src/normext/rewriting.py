"""Truncated noncommutative Buchberger completion (diamond lemma engine).

Rules rewrite a deglex-leading word to a strictly smaller tail.  A
``GBState`` starts empty and is completed on demand: ``extend(d)`` resolves
every overlap ambiguity whose ambiguity word has degree <= d, continuing
from the degree completed so far, and ``normal_form`` and ``normal_words``
extend to the degree they are asked for first.  The graded diamond lemma
then makes every normal form of degree <= d unique, and the normal words
of degree d count the quotient dimension in that degree.  Normal words are
listed degree by degree, each degree extending the one below by a letter,
and cached.

All relations here are homogeneous, so every queued S-polynomial has a
fixed degree and the queue is processed in (degree, insertion) order,
making the computed system deterministic for a fixed input.  That order
also keeps the leads an antichain: a new lead is a normal word no shorter
than any stored lead, so no lead contains another and no inclusion
ambiguity arises.  Completing in stages gives the same system as
completing at once: the reduced system truncated at degree d is unique
(its leads are the minimal leading words of the ideal through degree d,
and each tail is the normal form of its lead).

The read side relies on both facts.  At most one lead starts at any
position of a word, so the leftmost occurrence is one dict lookup per
distinct lead length.  Words of different degrees never meet and, within
one degree, tuple order is deglex order, so a normal form rewrites the
tuple-largest word left and adds each tail term with one call of the
conductor's compiled ``fms``, fetched once per normal form.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from .freealg import FreeElement, word_key
from .scalars import fms_kernel

if TYPE_CHECKING:
    from .quotient import Presentation


class GBState:
    """Reduced truncated rewriting system for one presentation."""

    def __init__(self, pres: Presentation) -> None:
        pres.require_field()
        self.pres = pres
        self.bound = -1  # the degree completed so far
        self.rules: dict[tuple, FreeElement] = {}  # lead word -> tail element
        self.log: list[tuple] = []  # processed ambiguities (lead1, lead2, word)
        self._lengths: list[int] = []  # distinct lead lengths, ascending
        self._words: list[list[tuple]] = [[()]]  # normal words by degree
        self._counter = 0

    # -- reduction ---------------------------------------------------------

    def _find_occurrence(self, word: tuple):
        """Leftmost occurrence of a rule lead inside word.

        The leads form an antichain (see ``extend``), so at most one lead
        starts at any position and one dict lookup per lead length finds it.
        """
        rules = self.rules
        end = len(word)
        for pos in range(end):
            for length in self._lengths:
                if pos + length > end:
                    break
                lead = word[pos : pos + length]
                if lead in rules:
                    return pos, lead
        return None

    def normal_form(self, f: FreeElement) -> FreeElement:
        """Deglex normal form of f, completing through its degree first."""
        for w in f.terms:
            if len(w) > self.bound:
                self.extend(len(w))
        return self._normal_form(f)

    def _normal_form(self, f: FreeElement) -> FreeElement:
        """Normal form against the rules as they stand, for completion itself.

        The rules are homogeneous, so words of different degrees never meet,
        and within one degree tuple order is deglex order: each step rewrites
        the largest word left, with its full coefficient, and every word it
        produces is smaller, so no word is rewritten twice.
        """
        ctx = self.pres.ctx
        n = ctx.conductor
        rules = self.rules
        fms = fms_kernel(n)  # every coefficient here has conductor n
        work = {w: c.promote(n) for w, c in f.terms.items() if c}
        out: dict = {}
        while work:
            word = max(work)
            coeff = work.pop(word)
            occ = self._find_occurrence(word)
            if occ is None:
                out[word] = coeff
                continue
            pos, lead = occ
            u, v = word[:pos], word[pos + len(lead) :]
            neg = -coeff
            for tw, tc in rules[lead].terms.items():
                nw = u + tw + v
                s = fms(work.get(nw), neg, tc)
                if s is None:
                    work.pop(nw, None)
                else:
                    work[nw] = s
        res = FreeElement(ctx)
        res.terms = out
        return res

    # -- completion -----------------------------------------------------------

    def _rule_from(self, f: FreeElement):
        """Normalize a reduced nonzero element into (lead, tail)."""
        lead = max(f.terms, key=word_key)
        neg_inv = -f.terms[lead].inv()
        tail = FreeElement(self.pres.ctx)
        tail.terms = {w: c * neg_inv for w, c in f.terms.items() if w != lead}
        return lead, tail

    def _enqueue_overlaps(self, pairs, queue, low: int) -> None:
        """Queue the S-polynomial of every overlap of l1 followed by l2, for
        (l1, l2) in pairs, whose ambiguity word has degree in (low, bound]."""
        ctx = self.pres.ctx
        rules = self.rules
        for l1, l2 in pairs:
            for s_len in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - s_len :] != l2[:s_len]:
                    continue
                u = l1[: len(l1) - s_len]
                v = l2[s_len:]
                word = l1 + v
                if not low < len(word) <= self.bound:
                    continue
                # the two rewrites of the ambiguity word u.s.v must agree
                spoly = rules[l1] * FreeElement.monomial(ctx, v) - FreeElement.monomial(ctx, u) * rules[l2]
                heapq.heappush(queue, (len(word), self._tick(), (l1, l2, word), spoly))

    def _tick(self) -> int:
        self._counter += 1
        return self._counter

    def extend(self, d: int) -> None:
        """Complete through degree d, continuing from the degree completed.

        The inputs skipped so far are exactly the relations of degree in
        (old, d] and the overlaps among stored leads whose ambiguity word
        has degree in (old, d]; nothing above d is queued.
        """
        old = self.bound
        if d <= old:
            return
        self.bound = d
        queue: list = []
        for r in self.pres.relations:
            if old < r.degree <= d:
                heapq.heappush(queue, (r.degree, self._tick(), None, r))
        self._enqueue_overlaps([(a, b) for a in self.rules for b in self.rules], queue, old)
        while queue:
            _deg, _tick, amb, element = heapq.heappop(queue)
            reduced = self._normal_form(element)
            if amb is not None:
                self.log.append(amb)
            if reduced.is_zero():
                continue
            lead, tail = self._rule_from(reduced)
            # The queue pops in degree order and every stored lead came from
            # a degree popped earlier, so every stored lead is no longer than
            # this one, and this one is a normal word: no lead contains
            # another, and at most one starts at any position.
            self.rules[lead] = tail
            self._lengths = sorted({len(other) for other in self.rules})
            # re-normalize stored tails that the new lead makes reducible
            for other, otail in list(self.rules.items()):
                if other == lead:
                    continue
                hit = any(
                    w[i : i + len(lead)] == lead
                    for w in otail.terms
                    for i in range(len(w) - len(lead) + 1)
                )
                if hit:
                    self.rules[other] = self._normal_form(otail)
            # overlaps of the new lead with every lead, itself once
            pairs = []
            for other in self.rules:
                pairs += [(lead, other), (other, lead)] if other != lead else [(lead, lead)]
            self._enqueue_overlaps(pairs, queue, old)

    # -- normal words ------------------------------------------------------------

    def dims(self, bound: int) -> list[int]:
        """Quotient dimensions up to bound: the numbers of normal words."""
        self.normal_words(bound)
        return [len(words) for words in self._words[: bound + 1]]

    def normal_words(self, d: int) -> list[tuple]:
        """Words of degree d avoiding every lead, in deglex order.

        A prefix of a normal word is normal, so degree d extends the normal
        words of degree d-1 by one letter and checks only the new suffixes.
        The lists are cached; callers must not mutate them.
        """
        self.extend(d)
        rules = self.rules
        lengths = self._lengths
        letters = range(self.pres.ctx.n)
        while len(self._words) <= d:
            self._words.append(
                [
                    nw
                    for w in self._words[-1]
                    for nw in (w + (a,) for a in letters)
                    if not any(nw[-k:] in rules for k in lengths)
                ]
            )
        return self._words[d]
