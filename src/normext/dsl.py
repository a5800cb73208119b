"""Input language for algebra files plus the canonical printer.

File grammar (UTF-8, ``#`` comments, whitespace-insensitive)::

    algebra <name>
    field cyclotomic <N>
    param <id> (";" <target> ":=" <scalar>)*      # zero or more lines
    gens <id> ("," <id>)*
    w = <ncpoly> ;                                 # or:
    rels = <ncpoly> (";" <ncpoly>)* ;

An ncpoly is a signed sum of ``<coef>*<word>`` terms, the word being
generators joined by ``*``.  A coefficient is a product of atoms, read by
one grammar in both domains (a ``Scalar`` in Q(zeta_N) in field mode, a
``UnitScalar`` in unit mode): rationals ``p/q`` (only 1 in unit mode), the
root of unity ``z^k`` (zeta_N^k for the declared conductor) or ``e(p/q)``
(meaning e^(2*pi*i*p/q)), parameters ``a`` or ``a^{r}`` (unit mode), and
in field mode a parenthesized signed sum of products, which may begin with
a sign: ``(-3 + z + 2*z^2)``.  When an algebra declares a generator named
``z``, the letter resolves as that generator inside words and the
root-of-unity literal is unavailable there.

Assignment targets are ``a := <scalar>`` or ``a^{1/q} := <scalar>`` (a
designated q-th root, e.g. ``alpha^{1/2} := 2``).

The printer emits terms in deglex order; ``parse(print(f)) == f`` at every
conductor.  Field coefficients are spelled by ``Scalar.term_texts``, unit
coefficients by ``UnitScalar.text``, which writes ``z^k`` only when given
the conductor; both write ``e(k/N)`` when ``z`` is a generator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .freealg import Context, FreeElement, word_key
from .scalars import MAX_CONDUCTOR, Assignment, Scalar, UnitScalar, signed_sum, torsion_scalar

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<assign>:=)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[\^{}/*+\-,;=()])
    """,
    re.VERBOSE,
)

KEYWORDS = {"algebra", "field", "cyclotomic", "param", "gens", "w", "rels"}
RESERVED_NAMES = {"e"} | KEYWORDS


class DslError(ValueError):
    def __init__(self, msg: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{msg} (line {line}, column {col})" if line else msg)
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str  # "num" | "ident" | "sym" | "assign" | "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise DslError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            tokens.append(Token(kind, tok, line, col))
        nl = tok.count("\n")
        if nl:
            line += nl
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    tokens.append(Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = _tokenize(text)
        self.i = 0
        self.gen_names: frozenset[str] = frozenset()

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, msg: str):
        t = self.peek()
        raise DslError(msg, t.line, t.col)

    def expect_sym(self, s: str) -> Token:
        t = self.next()
        if t.kind not in ("sym", "assign") or t.text != s:
            raise DslError(f"expected {s!r}, found {t.text!r}", t.line, t.col)
        return t

    def expect_ident(self) -> Token:
        t = self.next()
        if t.kind != "ident":
            raise DslError(f"expected identifier, found {t.text!r}", t.line, t.col)
        return t

    def at_sym(self, s: str) -> bool:
        t = self.peek()
        return t.kind in ("sym", "assign") and t.text == s

    def signs(self) -> bool:
        """Consume a run of "+" and "-"; True when it negates."""
        neg = False
        while self.at_sym("-") or self.at_sym("+"):
            if self.next().text == "-":
                neg = not neg
        return neg

    def star_then(self, ok) -> bool:
        """Consume a "*" when the token after it satisfies ok."""
        if self.at_sym("*") and ok(self.toks[self.i + 1]):
            self.next()
            return True
        return False

    def is_gen(self, t: Token) -> bool:
        return t.kind == "ident" and t.text in self.gen_names

    # -- rationals -------------------------------------------------------

    def rational(self) -> Fraction:
        neg = self.signs()
        t = self.next()
        if t.kind != "num":
            raise DslError(f"expected number, found {t.text!r}", t.line, t.col)
        num = int(t.text)
        den = 1
        if self.at_sym("/"):
            self.next()
            t2 = self.next()
            if t2.kind != "num":
                raise DslError("expected denominator", t2.line, t2.col)
            den = int(t2.text)
            if den == 0:
                raise DslError("zero denominator", t2.line, t2.col)
        v = Fraction(num, den)
        return -v if neg else v

    def braced_rational(self) -> Fraction:
        self.expect_sym("{")
        v = self.rational()
        self.expect_sym("}")
        return v

    # -- coefficients ------------------------------------------------------
    # ``params`` is None for a field coefficient (a Scalar) and the
    # parameter names for a unit coefficient (a UnitScalar over them).

    def root(self, conductor: int) -> Fraction | None:
        """The r of a root of unity e^(2*pi*i*r) written ``z^k`` (r = k/N)
        or ``e(r)``; None, consuming nothing, when neither follows."""
        t = self.peek()
        if t.kind != "ident" or t.text not in ("z", "e") or self.is_gen(t):
            return None
        self.next()
        if t.text == "e":
            self.expect_sym("(")
            r = self.rational()
            self.expect_sym(")")
            return r
        k = 1
        if self.at_sym("^"):
            self.next()
            tn = self.next()
            if tn.kind != "num":
                raise DslError("expected integer power of z", tn.line, tn.col)
            k = int(tn.text)
        return Fraction(k, conductor)

    def starts_atom(self, t: Token, params) -> bool:
        if t.kind == "num":
            return True
        if t.kind == "ident":
            return not self.is_gen(t) and (t.text in ("z", "e") or t.text in (params or ()))
        return params is None and t.text == "("

    def atom(self, conductor: int, params):
        t = self.peek()
        if t.kind == "num":
            v = self.rational()
            if params is None:
                return Scalar.from_rational(v, conductor)
            if v in (1, -1):
                return (UnitScalar.one if v == 1 else UnitScalar.minus_one)(len(params))
            raise DslError(
                f"rational {v} is not a unit-group element (declare a parameter)",
                t.line,
                t.col,
            )
        r = self.root(conductor)
        if r is not None:
            if params is None:
                return torsion_scalar(r, conductor)
            return UnitScalar(r, (0,) * len(params))
        if params is None and self.at_sym("("):
            self.next()
            total = self.coefficient(conductor, None)
            while self.at_sym("+") or self.at_sym("-"):
                total = total + self.coefficient(conductor, None)
            self.expect_sym(")")
            return total
        if params is not None and t.kind == "ident" and t.text in params:
            self.next()
            e = Fraction(1)
            if self.at_sym("^"):
                self.next()
                if self.at_sym("{"):
                    e = self.braced_rational()
                else:
                    tn = self.next()
                    if tn.kind != "num":
                        raise DslError("expected exponent", tn.line, tn.col)
                    e = Fraction(int(tn.text))
            return UnitScalar.param(params.index(t.text), len(params)).pow(e)
        domain = "scalar" if params is None else "unit"
        self.error(f"expected {domain} literal, found {t.text!r}")

    def product(self, conductor: int, params):
        """Atoms joined by "*"; stops before a "*" that a generator follows."""
        out = self.atom(conductor, params)
        while self.star_then(lambda t: self.starts_atom(t, params)):
            out = out * self.atom(conductor, params)
        return out

    def coefficient(self, conductor: int, params):
        neg = self.signs()
        v = self.product(conductor, params)
        return -v if neg else v

    def assignment(self, conductor: int) -> tuple[str, int | None, Scalar]:
        """``a := <scalar>`` or ``a^{1/q} := <scalar>``: (a, q or None, value)."""
        name = self.expect_ident().text
        q = None
        if self.at_sym("^"):
            self.next()
            rexp = self.braced_rational()
            if rexp.numerator != 1:
                raise DslError(f"root designation exponent must be 1/q, got {rexp}")
            q = rexp.denominator
        self.expect_sym(":=")
        return name, q, self.coefficient(conductor, None)

    # -- polynomials ---------------------------------------------------------

    def term(self, ctx: Context) -> FreeElement:
        neg = self.signs()
        if self.is_gen(self.peek()):
            coeff, more = ctx.one(), True
        else:
            coeff = self.product(ctx.conductor, ctx.params if ctx.mode == "unit" else None)
            more = self.star_then(self.is_gen)
        word = []
        while more:
            word.append(ctx.gens.index(self.next().text))
            more = self.star_then(self.is_gen)
        return FreeElement.monomial(ctx, tuple(word), -coeff if neg else coeff)

    def ncpoly(self, ctx: Context) -> FreeElement:
        saved = self.gen_names
        self.gen_names = frozenset(ctx.gens)
        try:
            out = self.term(ctx)
            while self.at_sym("+") or self.at_sym("-"):
                # sign consumed inside term()
                out = out + self.term(ctx)
        finally:
            self.gen_names = saved
        return out

    def done(self, value):
        """value, once no input is left."""
        if self.peek().kind != "end":
            self.error(f"trailing input {self.peek().text!r}")
        return value


@dataclass
class AlgebraFile:
    """Parsed algebra description plus optional parameter assignments."""

    name: str
    conductor: int
    params: tuple = ()
    gens: tuple = ()
    w: FreeElement | None = None
    rels: list | None = None
    values: dict = field(default_factory=dict)  # param -> Scalar
    roots: dict = field(default_factory=dict)  # (param, q) -> Scalar

    def context(self) -> Context:
        return Context(self.gens, self.conductor, self.params)

    def assignment(self, assign_text: str | None = None) -> Assignment | None:
        """The file's values and roots, overridden by ``assign_text``
        ("a:=4,a^{1/2}:=2"); None when the algebra has no parameters.  Any
        assigned name that is not a parameter is an error."""
        values = dict(self.values)
        roots = dict(self.roots)
        if assign_text:
            new_values, new_roots = parse_assignment_text(assign_text, self.conductor)
            # a re-assigned value invalidates the file's root designations for it
            for name in new_values:
                for key in [k for k in roots if k[0] == name]:
                    del roots[key]
            values.update(new_values)
            roots.update(new_roots)
        for name in [*values, *(name for name, _q in roots)]:
            if name not in self.params:
                raise DslError(f"assignment for undeclared parameter {name!r}")
        if not self.params:
            return None
        missing = [p for p in self.params if p not in values]
        if missing:
            raise DslError(f"parameters {missing} lack assignments (use --assign)")
        return Assignment(self.params, values, roots, self.conductor)


def parse_algebra(text: str) -> AlgebraFile:
    p = _Parser(text)
    tok = p.expect_ident()
    if tok.text != "algebra":
        raise DslError("file must start with 'algebra <name>'", tok.line, tok.col)
    name = p.expect_ident().text

    tok = p.expect_ident()
    if tok.text != "field":
        raise DslError("expected 'field cyclotomic <N>'", tok.line, tok.col)
    tok = p.expect_ident()
    if tok.text != "cyclotomic":
        raise DslError("expected 'cyclotomic'", tok.line, tok.col)
    ntok = p.next()
    if ntok.kind != "num":
        raise DslError("expected conductor", ntok.line, ntok.col)
    conductor = int(ntok.text)
    if not 1 <= conductor <= MAX_CONDUCTOR:
        raise DslError(f"conductor must lie in 1..{MAX_CONDUCTOR}", ntok.line, ntok.col)

    params: list[str] = []
    pending: list[tuple[str, int | None, Scalar]] = []  # (target, root q, value)
    while p.peek().kind == "ident" and p.peek().text == "param":
        p.next()
        nm = p.expect_ident()
        if nm.text in RESERVED_NAMES or nm.text == "z":
            raise DslError(f"{nm.text!r} cannot be a parameter name", nm.line, nm.col)
        params.append(nm.text)
        while p.at_sym(";"):
            p.next()
            pending.append(p.assignment(conductor))

    tok = p.expect_ident()
    if tok.text != "gens":
        raise DslError("expected 'gens'", tok.line, tok.col)
    gens = [p.expect_ident().text]
    while p.at_sym(","):
        p.next()
        gens.append(p.expect_ident().text)
    for g in gens:
        if g in RESERVED_NAMES or g in params:
            raise DslError(f"{g!r} cannot be a generator name")

    out = AlgebraFile(name=name, conductor=conductor, params=tuple(params), gens=tuple(gens))
    for target, q, val in pending:
        if target not in params:
            raise DslError(f"assignment to undeclared parameter {target!r}")
        if q is None:
            out.values[target] = val
        else:
            out.roots[(target, q)] = val

    ctx = out.context()
    tok = p.expect_ident()
    if tok.text == "w":
        p.expect_sym("=")
        out.w = p.ncpoly(ctx)
        p.expect_sym(";")
    elif tok.text == "rels":
        p.expect_sym("=")
        rels = [p.ncpoly(ctx)]
        while p.at_sym(";"):
            p.next()
            if p.peek().kind == "end":
                break
            rels.append(p.ncpoly(ctx))
        out.rels = rels
        if not p.toks[p.i - 1].text == ";":
            p.expect_sym(";")
    else:
        raise DslError("expected 'w = ...' or 'rels = ...'", tok.line, tok.col)
    return p.done(out)


def parse_algebra_file(path) -> AlgebraFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def parse_poly(text: str, ctx: Context) -> FreeElement:
    p = _Parser(text)
    return p.done(p.ncpoly(ctx))


def parse_scalar(text: str, conductor: int) -> Scalar:
    p = _Parser(text)
    return p.done(p.coefficient(conductor, None))


def parse_unit(text: str, conductor: int, params) -> UnitScalar:
    p = _Parser(text)
    return p.done(p.coefficient(conductor, tuple(params)))


def parse_assignment_text(text: str, conductor: int):
    """Parse "a:=4,a^{1/2}:=2" into (values, roots) dicts."""
    values: dict[str, Scalar] = {}
    roots: dict[tuple[str, int], Scalar] = {}
    p = _Parser(text)
    while p.peek().kind != "end":
        name, q, val = p.assignment(conductor)
        if q is None:
            values[name] = val
        else:
            roots[(name, q)] = val
        if p.at_sym(","):
            p.next()
    return values, roots


# -- printing ------------------------------------------------------------


def scalar_text(s: Scalar, allow_z: bool = True) -> str:
    """Canonical coefficient text; parenthesized when not a basis monomial."""
    terms = s.term_texts(allow_z)
    return f"({signed_sum(terms)})" if len(terms) > 1 else signed_sum(terms)


def _coeff_word_text(ctx: Context, w, c) -> str:
    word = "*".join(ctx.gens[i] for i in w)
    allow_z = "z" not in ctx.gens
    if ctx.mode == "field":
        txt = scalar_text(c, allow_z=allow_z)
    else:
        txt = c.text(ctx.params, ctx.conductor if allow_z else None)
    if not word:
        return txt
    if txt == "1":
        return word
    if txt == "-1":
        return f"-{word}"
    return f"{txt}*{word}"


def print_poly(f: FreeElement) -> str:
    return signed_sum([_coeff_word_text(f.ctx, w, f.terms[w]) for w in sorted(f.terms, key=word_key)])
