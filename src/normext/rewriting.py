"""Truncated noncommutative Buchberger completion (diamond lemma engine).

Rules rewrite a deglex-leading word to a strictly smaller tail.  Completion
resolves every overlap and inclusion ambiguity whose ambiguity word has
degree <= bound; the graded diamond lemma then makes every normal form of
degree <= bound unique, and the normal words of degree d <= bound count
the quotient dimension in that degree.  Normal words are listed degree by
degree, each degree extending the one below by a letter, and cached.

All relations here are homogeneous, so every queued S-polynomial has a
fixed degree and the queue can be processed in (degree, insertion) order,
making the computed system deterministic for a fixed input.
"""

from __future__ import annotations

import heapq

from .freealg import FreeElement, word_key
from .quotient import Presentation


class GBState:
    """Reduced truncated rewriting system for one presentation."""

    def __init__(self, pres: Presentation, bound: int) -> None:
        pres.require_field()
        self.pres = pres
        self.bound = bound
        self.rules: dict[tuple, FreeElement] = {}  # lead word -> tail element
        self.log: list[tuple] = []  # processed ambiguities (lead1, lead2, word)
        self._words: list[list[tuple]] = [[()]]  # normal words by degree
        self._complete()

    # -- reduction ---------------------------------------------------------

    def _find_occurrence(self, word: tuple):
        """Leftmost occurrence of any rule lead inside word, smallest lead first."""
        for pos in range(len(word)):
            best = None
            for lead in self.rules:
                L = len(lead)
                if pos + L <= len(word) and word[pos : pos + L] == lead:
                    if best is None or word_key(lead) < word_key(best):
                        best = lead
            if best is not None:
                return pos, best
        return None

    def normal_form(self, f: FreeElement) -> FreeElement:
        ctx = self.pres.ctx
        work = dict(f.terms)
        out: dict = {}
        while work:
            word = max(work, key=word_key)
            coeff = work.pop(word)
            occ = self._find_occurrence(word)
            if occ is None:
                prev = out.get(word)
                s = prev + coeff if prev is not None else coeff
                if s.is_zero():
                    out.pop(word, None)
                else:
                    out[word] = s
                continue
            pos, lead = occ
            tail = self.rules[lead]
            u, v = word[:pos], word[pos + len(lead) :]
            for tw, tc in tail.terms.items():
                nw = u + tw + v
                add = coeff * tc
                prev = work.get(nw)
                s = prev + add if prev is not None else add
                if s.is_zero():
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
        inv = f.terms[lead].inv()
        tail = FreeElement(self.pres.ctx)
        tail.terms = {w: -(c * inv) for w, c in f.terms.items() if w != lead}
        return lead, tail

    def _element_of(self, lead: tuple, tail: FreeElement) -> FreeElement:
        el = FreeElement.monomial(self.pres.ctx, lead) - tail
        return el

    def _enqueue_overlaps(self, lead: tuple, queue) -> None:
        ctx = self.pres.ctx
        tail = self.rules[lead]
        for other, otail in list(self.rules.items()):
            pairs = [(lead, tail, other, otail)]
            if other != lead:
                pairs.append((other, otail, lead, tail))
            for l1, r1, l2, r2 in pairs:
                for s_len in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - s_len :] != l2[:s_len]:
                        continue
                    u = l1[: len(l1) - s_len]
                    v = l2[s_len:]
                    word = l1 + v
                    if len(word) > self.bound:
                        continue
                    # the two rewrites of the ambiguity word u.s.v must agree
                    spoly = r1 * FreeElement.monomial(ctx, v) - FreeElement.monomial(ctx, u) * r2
                    heapq.heappush(queue, (len(word), self._tick(), (l1, l2, word), spoly))

    def _tick(self) -> int:
        self._counter += 1
        return self._counter

    def _complete(self) -> None:
        self._counter = 0
        queue: list = []
        for r in self.pres.relations:
            heapq.heappush(queue, (r.degree, self._tick(), None, r))
        while queue:
            _deg, _tick, amb, element = heapq.heappop(queue)
            reduced = self.normal_form(element)
            if amb is not None:
                self.log.append(amb)
            if reduced.is_zero():
                continue
            lead, tail = self._rule_from(reduced)
            if len(lead) > self.bound:
                continue
            # keep the lead set an antichain: displace rules containing lead
            displaced = []
            for other in list(self.rules):
                if other == lead:
                    continue
                if len(other) >= len(lead) and any(
                    other[i : i + len(lead)] == lead for i in range(len(other) - len(lead) + 1)
                ):
                    displaced.append(other)
            for other in displaced:
                otail = self.rules.pop(other)
                heapq.heappush(
                    queue, (len(other), self._tick(), None, self._element_of(other, otail))
                )
            self.rules[lead] = tail
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
                    self.rules[other] = self.normal_form(otail)
            self._enqueue_overlaps(lead, queue)

    # -- normal words ------------------------------------------------------------

    def dims(self, bound: int) -> list[int]:
        """Quotient dimensions up to bound: the numbers of normal words."""
        self.normal_words(bound)
        return [len(words) for words in self._words[: bound + 1]]

    def leading_words(self) -> list[tuple]:
        return sorted(self.rules, key=word_key)

    def normal_words(self, d: int) -> list[tuple]:
        """Words of degree d avoiding every lead, in deglex order.

        A prefix of a normal word is normal, so degree d extends the normal
        words of degree d-1 by one letter and checks only the new suffixes.
        The lists are cached; callers must not mutate them.
        """
        if d > self.bound:
            raise ValueError("normal words beyond completion bound")
        rules = self.rules
        lengths = {len(lead) for lead in rules}
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
