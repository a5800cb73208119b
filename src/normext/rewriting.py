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
ambiguity arises.  The queue is one field of the state, and every input
enters it once: the relations when the state is made, and the overlaps of
a new lead with every stored lead and with itself when the lead is
stored, whatever their degree.  ``extend(d)`` only pops while the head has
degree <= d.  Completing in stages therefore pops the same queue in the
same order as completing at once, and gives the same rules, ``log`` and
``skipped``.  A queued overlap is (l1, l2, k), where l1 ends with the
first k letters of l2; its word W = l1.v = u.l2 and the words u and v are
sliced from the two leads when it is popped.

Completion skips every ambiguity that a third lead covers.  Let
W = l1.v = u.l2 be a popped ambiguity, and let a stored lead l3 occur in W
at a position p with 0 < p < |u| and p + |l3| < |W|.  The leads are an
antichain, so l3 lies inside neither l1 nor l2 and covers the overlap;
(l1, l3) and (l3, l2) are then overlaps whose words are proper subwords of
W, resolved at a lower degree, and W is resolvable relative to the words
below it: condition (a') of Bergman's diamond lemma (Bergman 1978; the
free-algebra chain criterion, Mora 1994).  Such a W is counted in
``skipped`` and not reduced.  The antichain also makes the test short:
any lead inside W without its first and last letters is such an l3 (one
starting at |u| or later would lie inside l2).  Every lead shorter than W
exists when W is popped, since the queue pops in degree order.  The
S-polynomial tail(l1).v - u.tail(l2) is built from the current tails,
word by word, only for an ambiguity that is reduced.

The read side relies on both facts.  Beside each listed degree's normal
words ``normal_words`` keeps them as a frozenset, and ``normal_form``
lists every degree up to its element's top degree before it reduces, so a
word already normal is recognized by one set lookup and goes straight to
the result, whether it is in the input or produced by a rewrite; only the
other words are ordered.  The sets stay exact while completion goes on:
``extend`` adds only leads of degree above every listed degree, which no
listed word is long enough to contain.  Any other word is scanned for its
leftmost lead: at most one lead starts at any position, so that is one
dict lookup per distinct lead length.  Words of different degrees never
meet and, within one degree, tuple order is deglex order, so a normal form
rewrites the tuple-largest word left and adds each tail term with one call
of the conductor's compiled ``fms``, fetched once per normal form.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING

from .freealg import FreeElement, HomogeneityError, word_key
from .scalars import Scalar, fms_kernel

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
        self.skipped = 0  # ambiguities a third lead covers, left unreduced
        self._lengths: list[int] = []  # distinct lead lengths, ascending
        self._words: list[list[tuple]] = [[()]]  # normal words by degree
        self._normal: list[frozenset] = [frozenset(self._words[0])]  # the same, as sets
        self._one = Scalar.one(pres.ctx.conductor)
        self._order = count()  # breaks degree ties by insertion order
        # the completion queue: (degree, order, relation or (l1, l2, k))
        self._queue = [(r.degree, next(self._order), r) for r in pres.relations]
        heapq.heapify(self._queue)

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
        """Deglex normal form of the homogeneous f, completing and listing
        the normal words through its degree first."""
        degrees = {len(w) for w in f.terms}
        if len(degrees) > 1:
            raise HomogeneityError("normal form requires a homogeneous element")
        top = degrees.pop() if degrees else 0
        if top >= len(self._normal):
            self.normal_words(top)
        return self._normal_form(f)

    def _normal_form(self, f: FreeElement) -> FreeElement:
        """Normal form against the rules as they stand, for completion itself.

        A word of a listed degree is normal exactly when it is in that
        degree's set, so such a word goes straight to the result and only
        the others are kept in the working set.  The rules are homogeneous,
        so words of different degrees never meet, and within one degree
        tuple order is deglex order: each step rewrites the largest word
        left, with its full coefficient, and every word it produces is
        smaller, so no word is rewritten twice and a word of an unlisted
        degree that has no lead is final when it is reached.
        """
        ctx = self.pres.ctx
        n = ctx.conductor
        rules = self.rules
        normal = self._normal
        listed = len(normal)
        fms = fms_kernel(n)  # every coefficient here has conductor n
        out: dict = {}
        work: dict = {}
        for w, c in f.terms.items():
            if c:
                (out if len(w) < listed and w in normal[len(w)] else work)[w] = c.promote(n)
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
            # a rule keeps the degree, so every new word lies in word's degree
            final = normal[len(word)] if len(word) < listed else ()
            for tw, tc in rules[lead].terms.items():
                nw = u + tw + v
                dest = out if nw in final else work
                s = fms(dest.get(nw), neg, tc)
                if s is None:
                    dest.pop(nw, None)
                else:
                    dest[nw] = s
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

    def _enqueue_overlaps(self, lead: tuple) -> None:
        """Queue (l1, l2, k) for every overlap u.s.v of l1 = u.s followed by
        l2 = s.v, |s| = k, of the new lead with each stored lead, on both
        sides, and with itself once, at the degree of its word."""
        for other in self.rules:
            for l1, l2 in ((lead, other), (other, lead)) if other != lead else ((lead, lead),):
                for k in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - k :] == l2[:k]:
                        heapq.heappush(self._queue, (len(l1) + len(l2) - k, next(self._order), (l1, l2, k)))

    def _covered(self, word: tuple) -> bool:
        """Whether a stored lead lies inside word without its first and last
        letters: the chain criterion of the module docstring."""
        return self._find_occurrence(word[1:-1]) is not None

    def _s_polynomial(self, l1: tuple, l2: tuple, u: tuple, v: tuple) -> FreeElement:
        """tail(l1).v - u.tail(l2): the two rewrites of u.l2 = l1.v must agree."""
        fms = fms_kernel(self.pres.ctx.conductor)
        terms = {w + v: c for w, c in self.rules[l1].terms.items()}
        for w, c in self.rules[l2].terms.items():
            uw = u + w
            if uw in terms:
                s = fms(terms[uw], self._one, c)
                if s is None:
                    del terms[uw]
                else:
                    terms[uw] = s
            else:
                terms[uw] = -c
        spoly = FreeElement(self.pres.ctx)
        spoly.terms = terms
        return spoly

    def extend(self, d: int) -> None:
        """Complete through degree d, continuing from the degree completed.

        This pops the state's one queue while its head has degree <= d;
        what lies above d stays queued for a later call.  An ambiguity that
        a third lead covers is counted in ``skipped`` and not reduced.
        """
        queue = self._queue
        while queue and queue[0][0] <= d:
            _deg, _order, item = heapq.heappop(queue)
            if isinstance(item, tuple):
                l1, l2, k = item
                u, v = l1[: len(l1) - k], l2[k:]
                word = l1 + v
                if self._covered(word):
                    self.skipped += 1
                    continue
                self.log.append((l1, l2, word))
                item = self._s_polynomial(l1, l2, u, v)
            reduced = self._normal_form(item)
            if reduced.is_zero():
                continue
            lead, tail = self._rule_from(reduced)
            # The queue pops in degree order and every stored lead came from
            # a degree popped earlier, so every stored lead is no longer than
            # this one, and this one is a normal word: no lead contains
            # another, and at most one starts at any position.
            self.rules[lead] = tail
            self._lengths = sorted({len(other) for other in self.rules})
            # A stored tail has its lead's degree, at most this lead's, so it
            # can contain this lead only as one whole word.
            for other, otail in self.rules.items():
                if lead in otail.terms:
                    self.rules[other] = self._normal_form(otail)
            self._enqueue_overlaps(lead)
        self.bound = max(self.bound, d)

    # -- normal words ------------------------------------------------------------

    def dims(self, bound: int) -> list[int]:
        """Quotient dimensions up to bound: the numbers of normal words."""
        self.normal_words(bound)
        return [len(words) for words in self._words[: bound + 1]]

    def normal_words(self, d: int) -> list[tuple]:
        """Words of degree d avoiding every lead, in deglex order.

        A prefix of a normal word is normal, so degree d extends the normal
        words of degree d-1 by one letter and checks only the new suffixes.
        The lists, and their sets for ``_normal_form``, are cached; callers
        must not mutate them.
        """
        self.extend(d)
        rules = self.rules
        lengths = self._lengths
        letters = range(self.pres.ctx.n)
        while len(self._words) <= d:
            words = [
                nw
                for w in self._words[-1]
                for nw in (w + (a,) for a in letters)
                if not any(nw[-k:] in rules for k in lengths)
            ]
            self._words.append(words)
            self._normal.append(frozenset(words))
        return self._words[d]
