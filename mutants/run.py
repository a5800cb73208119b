"""Check that the tests still kill the recorded mutants.

A mutant is (file under src/normext/, exact old text, new text, test node
ids).  The script copies src/ to a temporary directory and runs every named
test against the copy, unmutated: each must pass.  It then applies one
mutant at a time to the copy, runs that mutant's tests, and restores the
file.  A mutant is killed when pytest reports a failing test (exit status
1); an import or collection error does not count.  A mutant whose old text
does not occur exactly once in its file is stale and fails the run, so a
change that rewrites the mutated code must carry its mutants along.

Usage, from any directory:

    python mutants/run.py

Exit status 0 when the unmutated tests pass and every mutant is killed.
Only the standard library and the repository's test dependencies are used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    file: str  # relative to src/normext/
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


C = "tests/test_certify.py::"
Q = "tests/test_quotient.py::"
T = "tests/test_tuples.py::"
S = "tests/test_superpotential.py::"
SC = "tests/test_scalars.py::"
F = "tests/test_family.py::"

MUTANTS = [
    # the left annihilator is derived only from a normal Omega
    Mutant(
        "certify.py",
        "left_kernels = right_kernels if normal_ok else None",
        "left_kernels = right_kernels",
        (C + "test_a_non_normal_omega_fails_regularity_without_a_left_annihilator",),
    ),
    # the derived left annihilator is the right walk's kernel, not zero
    Mutant(
        "certify.py",
        "left_kernels = right_kernels if normal_ok else None",
        "left_kernels = [0] * len(right_kernels)",
        (C + "test_the_reported_left_annihilator_is_the_right_walks_kernel[gb]",),
    ),
    # r1 without the degree-0 correction
    Mutant(
        "certify.py",
        "r1 = dim0 - (1 if deg == 0 else 0)",
        "r1 = dim0",
        (C + "test_the_letter_column_rank_is_the_augmentation_dimension[gb]",),
    ),
    # a rank routine that drops source block 0
    Mutant(
        "certify.py",
        "for own, a_s in zip(rows, shifts_src):",
        "for own, a_s in list(zip(rows, shifts_src))[1:]:",
        (C + "test_the_letter_column_rank_is_the_augmentation_dimension[gb]",),
    ),
    # a sorted Nakayama list
    Mutant(
        "certify.py",
        "cert.nakayama = [scalar_text(s) for s in nu.scales]",
        "cert.nakayama = sorted(scalar_text(s) for s in nu.scales)",
        (C + "test_nakayama_s2_values",),
    ),
    # the tau membership replaced by True
    Mutant(
        "certify.py",
        'cert.add("tau_conjugation", D.contains(spec.omega * x - (x * spec.omega).scale(spec.p[spec.k].inv())))',
        'cert.add("tau_conjugation", True)',
        (C + "test_nakayama_reports_a_tau_that_does_not_conjugate",),
    ),
    # every scale in _graded_map_ranks dropped
    Mutant(
        "certify.py",
        "row[pos[wd] * width + t] = c if scale is None else scale(c)",
        "row[pos[wd] * width + t] = c",
        (C + "test_reports_equal_the_benchmark_reference[gb]",),
    ),
    # an identity in place of the negation of a shared walk
    Mutant(
        "certify.py",
        "scale = None if c.is_one() else neg if (-c).is_one() else c.__mul__",
        "scale = None if c.is_one() else (lambda v: v) if (-c).is_one() else c.__mul__",
        (C + "test_shared_walks_rank_as_each_entry_walking_its_own[gb]",),
    ),
    # every reader of a shared walk advancing one and the same iterator
    Mutant(
        "certify.py",
        "tee(multiples_by_degree(quot, monic), len(own))",
        "[multiples_by_degree(quot, monic)] * len(own)",
        (C + "test_shared_walks_rank_as_each_entry_walking_its_own[gb]",),
    ),
    # the resolution's identity checks dropped, one at a time
    Mutant(
        "certify.py",
        "    if matmul([xs], Ml) != [gl]:\n",
        "    if False:\n",
        (C + "test_a_broken_resolution_identity_is_an_internal_defect",),
    ),
    Mutant(
        "certify.py",
        "    if matmul(Mr, xcol) != [[e] for e in gr]:\n",
        "    if False:\n",
        (C + "test_a_broken_m_r_x_equals_g_r_is_an_internal_defect",),
    ),
    # the factors of matmul swapped
    Mutant(
        "freealg.py",
        "(x * y for x, y in zip(row, col, strict=True))",
        "(y * x for x, y in zip(row, col, strict=True))",
        ("tests/test_freealg.py::test_matmul_sums_entrywise_and_associates",),
    ),
    # an is_good that always says good
    Mutant(
        "tuples.py",
        "    if value == qk:\n        return GoodnessResult(True)",
        "    if True:\n        return GoodnessResult(True)",
        (T + "test_is_good_examples",),
    ),
    # residues taken from rho+1
    Mutant(
        "tuples.py",
        "for i in range(rank, self.n)]",
        "for i in range(rank + 1, self.n)]",
        (T + "test_span_residues_agree_with_both_replaced_routines",),
    ),
    # the Smith rank forced to 0
    Mutant(
        "tuples.py",
        "return u, sum(1 for i in range(min(self.n, len(self.directions))) if s[i][i])",
        "return u, 0",
        (T + "test_containment_sees_every_coset_and_direction",),
    ),
    # coset slots not divided by s
    Mutant(
        "tuples.py",
        "x[slot] = [Fraction(j, mod)]",
        "x[slot] = [Fraction(j)]",
        (T + "test_corpus_solutions_have_distinct_cosets",),
    ),
    # a zero diagonal entry whose torsion need not be an integer
    Mutant(
        "tuples.py",
        "(ri[0] % 1 or any(ri[1:]))",
        "any(ri[1:])",
        (T + "test_random_solution_sets_are_exactly_the_solutions_on_a_grid",),
    ),
    # a zero diagonal entry whose parameter exponents need not be 0
    Mutant(
        "tuples.py",
        "(ri[0] % 1 or any(ri[1:]))",
        "ri[0] % 1",
        (T + "test_solver_inconsistent_system_is_empty",),
    ),
    # the last label of an exponent vector kept
    Mutant(
        "tuples.py",
        "labels.setdefault(counts, label)",
        "labels[counts] = label",
        ("tests/test_cli.py::test_solver_reports_are_pinned",),
    ),
    # the chain criterion skipping every ambiguity, or every seventh
    Mutant(
        "rewriting.py",
        "return self._find_occurrence(word[1:-1]) is not None",
        "return True",
        (Q + "test_the_chain_criterion_keeps_every_corpus_completion",),
    ),
    Mutant(
        "rewriting.py",
        "return self._find_occurrence(word[1:-1]) is not None",
        "return self._find_occurrence(word[1:-1]) is not None or len(self.log) % 7 == 6",
        (Q + "test_the_chain_criterion_keeps_every_corpus_completion",),
    ),
    # the S-polynomial's second half negated
    Mutant(
        "rewriting.py",
        "                terms[uw] = -c\n",
        "                terms[uw] = c\n",
        (Q + "test_the_chain_criterion_keeps_every_corpus_completion",),
    ),
    # the completion queue popped from its first slot, not by degree
    Mutant(
        "rewriting.py",
        "_deg, _order, item = heapq.heappop(queue)",
        "_deg, _order, item = queue.pop(0)",
        (Q + "test_the_chain_criterion_keeps_every_corpus_completion",),
    ),
    # rule lengths scanned longest first
    Mutant(
        "rewriting.py",
        "            for length in self._lengths:\n",
        "            for length in reversed(self._lengths):\n",
        (Q + "test_normal_form_above_the_completed_degree_is_exact",),
    ),
    # GB normal forms without completing their degree first
    Mutant(
        "rewriting.py",
        "        if top >= len(self._normal):\n            self.normal_words(top)\n",
        "",
        (Q + "test_normal_form_above_the_completed_degree_is_exact",),
    ),
    # part of the GB suffix check dropped
    Mutant(
        "rewriting.py",
        "if not any(nw[-k:] in rules for k in lengths)",
        "if not any(nw[-k:] in rules for k in lengths[:1])",
        (Q + "test_engine_agreement_on_quotients",),
    ),
    # every word a GB rewrite produces sent to the result
    Mutant(
        "rewriting.py",
        "                dest = out if nw in final else work\n",
        "                dest = out\n",
        (Q + "test_membership_examples",),
    ),
    # every key an LA cancellation produces sent to the result
    Mutant(
        "linalg.py",
        "                dest = work if k in pivots else out\n",
        "                dest = out\n",
        (Q + "test_membership_examples",),
    ),
    # RowReducer.normal_form stopping after the leading key
    Mutant(
        "linalg.py",
        "        while work:\n            lead = max(work)\n",
        "        if work:\n            lead = max(work)\n",
        (Q + "test_membership_examples",),
    ),
    # rows stored unscaled
    Mutant(
        "linalg.py",
        "        if not c.is_one():\n",
        "        if False:\n",
        ("tests/test_linalg.py::test_solve_and_contains_agree_with_the_span",),
    ),
    # the sign of solve's answer flipped
    Mutant(
        "linalg.py",
        "return [-rest[(0, j)] if (0, j) in rest else zero",
        "return [rest[(0, j)] if (0, j) in rest else zero",
        ("tests/test_linalg.py::test_solve_and_contains_agree_with_the_span",),
    ),
    # LA standard lists without the pivot filter
    Mutant(
        "quotient.py",
        "self.standard.append([c for c in words if c not in red.pivots])",
        "self.standard.append(words)",
        (Q + "test_standard_word_pruning_keeps_every_level",),
    ),
    # LA normal words with reversed letters
    Mutant(
        "quotient.py",
        "words = [code_word(c, self.pres.ctx.n) for c in self.standard[d]]",
        "words = [code_word(c, self.pres.ctx.n)[::-1] for c in self.standard[d]]",
        (Q + "test_normal_words_are_prefix_closed[la]",),
    ),
    # copied LA rows stored without counting against the entry limit
    Mutant(
        "quotient.py",
        "red.store(next(iter(row)), row)",
        "red.pivots[next(iter(row))] = row",
        (Q + "test_resource_limit_is_loud",),
    ),
    # a degree-0 relation accepted
    Mutant(
        "quotient.py",
        '                raise AlgebraError("a relation of degree 0 makes the quotient zero")',
        "                pass",
        (Q + "test_a_degree_zero_relation_is_refused",),
    ),
    # -1 accepted as a degree bound
    Mutant(
        "cli.py",
        "        if value < 0:\n",
        "        if value < -1:\n",
        ("tests/test_cli.py::test_negative_bound_is_an_input_error",),
    ),
    # the superpotential's r.x_i rows given a block-0 copy
    Mutant(
        "superpotential.py",
        "            red.insert({(1, u + (i,)): c for u, c in r.terms.items()})",
        "            red.insert({(b, u + (i,)): c for b in (1, 0) for u, c in r.terms.items()})",
        (S + "test_recover_poly_superpotential",),
    ),
    # the recovered superpotential doubled
    Mutant(
        "superpotential.py",
        "    out.terms = {u: c for (_, u), c in found[0].items()}",
        "    out.terms = {u: c + c for (_, u), c in found[0].items()}",
        (S + "test_recover_poly_superpotential",),
    ),
    # the rational branch taken when only the first factor is rational
    Mutant(
        "scalars.py",
        'return " or ".join(f"{x}{i}" for x in xs for i in range(1, d))',
        'return " or ".join(f"{x}{i}" for x in xs[:1] for i in range(1, d))',
        (SC + "test_generated_kernels_match_the_generic_path[105]",),
    ),
    # the rational fms taken for an a with other nonzero numerators
    Mutant(
        "scalars.py",
        """f"    if not ({others('a')}):",""",
        """"    if True:",""",
        (SC + "test_generated_kernels_match_the_generic_path[105]",),
    ),
    # a rational fms that takes a's denominator to be the product's
    Mutant(
        "scalars.py",
        """["e = a.den"] + subtract(first)""",
        """["e = den"] + subtract(first)""",
        (SC + "test_generated_kernels_match_the_generic_path[105]",),
    ),
    # an la normal form that reads its words from a misaligned table
    Mutant(
        "quotient.py",
        "dict(zip(self.standard[d], words))",
        "dict(zip(self.standard[d], words[::-1]))",
        (Q + "test_normal_words_are_prefix_closed[la]",),
    ),
    # a fiber's W_j scaled by c_j instead of the pivot coordinate
    Mutant(
        "family.py",
        "sp.f[j].scale(coords[pivot]) - omega.scale(coords[j])",
        "sp.f[j].scale(coords[j]) - omega.scale(coords[j])",
        (F + "test_coordinate_fiber_matches_extension",),
    ),
    # a fiber without the commutator of its first non-pivot letter
    Mutant(
        "family.py",
        "    for i in others:\n",
        "    for i in others[1:]:\n",
        (F + "test_coordinate_fiber_matches_extension",),
    ),
    # D built without one of the kept derivatives
    Mutant(
        "certify.py",
        "self.kept = [sp.f[i] for i in range(n) if i != k]",
        "self.kept = [sp.f[i] for i in range(n) if i != k][1:]",
        (C + "test_build_extension_relations",),
    ),
]


def pytest(src: Path, tests) -> tuple[int, str, float]:
    """(exit status, output, seconds) of pytest on tests, importing normext
    from src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += ["-o", f"pythonpath={src}", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
    return done.returncode, done.stdout + done.stderr, time.perf_counter() - start


def main() -> int:
    mutants = list(enumerate(MUTANTS, 1))
    failures = 0
    with tempfile.TemporaryDirectory(prefix="normext-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = list(dict.fromkeys(t for _, m in mutants for t in m.tests))
        code, out, secs = pytest(src, tests)
        print(f"unmutated: exit {code} in {secs:.1f} s ({len(tests)} test ids)")
        if code != 0:
            print(out)
            return 1
        for i, m in mutants:
            path = src / "normext" / m.file
            text = path.read_text(encoding="utf-8")
            what = f"{i:2d} {m.file}: " + (m.new.strip() or "(deleted) " + m.old.strip()).splitlines()[0]
            if text.count(m.old) != 1:
                print(f"STALE     {what}: old text found {text.count(m.old)} times")
                failures += 1
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                code, out, secs = pytest(src, m.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            if code == 1:
                print(f"killed    {what} ({secs:.1f} s)")
            else:
                print(f"SURVIVED  {what}: exit {code} ({secs:.1f} s)")
                print(out[-2000:])
                failures += 1
    print(f"{len(mutants) - failures} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
