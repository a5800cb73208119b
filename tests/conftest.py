import random

import pytest

from normext.cli import default_corpus_path, load_corpus
from normext.dsl import parse_scalar
from normext.freealg import Context, FreeElement
from normext.scalars import Scalar


@pytest.fixture(scope="session")
def corpus_entries():
    return {e.name: e for e in load_corpus(default_corpus_path())}


def field_instances(entry):
    """(k0, p, assign_text, label) for every certificate instance of an entry."""
    out = []
    for k, tuples in entry.expect.get("field_instances", {}).items():
        for t in tuples:
            out.append((int(k) - 1, t, None, f"{entry.name}:k={k}:p=({t})"))
    for k, block in entry.expect.get("field_instances_override", {}).items():
        for t in block["tuples"]:
            out.append(
                (int(k) - 1, t, block["assign"], f"{entry.name}:k={k}:p=({t}):{block['assign']}")
            )
    return out


def field_w(entry, assign_text=None):
    af = entry.algebra
    asg = af.assignment(assign_text)
    return af.w.specialize(asg) if asg is not None else af.w


def parse_tuple(text, conductor):
    return tuple(parse_scalar(part, conductor) for part in text.split(","))


def random_scalar(rng: random.Random, n: int) -> Scalar:
    from normext.scalars import cyclotomic_poly

    deg = len(cyclotomic_poly(n)) - 1
    coeffs = [rng.randint(-3, 3) for _ in range(deg)]
    return Scalar(n, coeffs)


def random_element(rng: random.Random, ctx: Context, degree: int, terms: int) -> FreeElement:
    out = FreeElement.zero(ctx)
    for _ in range(terms):
        word = tuple(rng.randrange(ctx.n) for _ in range(degree))
        c = random_scalar(rng, ctx.conductor)
        out = out + FreeElement.monomial(ctx, word, c)
    return out
