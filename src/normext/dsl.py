"""Input language for algebra files plus the canonical printer.

File grammar (UTF-8, ``#`` comments, whitespace-insensitive)::

    algebra <name>
    field cyclotomic <N>
    param <id> (";" <target> ":=" <scalar>)*      # zero or more lines
    gens <id> ("," <id>)*
    w = <ncpoly> ;                                 # or:
    rels = <ncpoly> (";" <ncpoly>)* ;

An ncpoly is a signed sum of ``<coef>*<word>`` terms, the word being
generators joined by ``*``.  Coefficient atoms: rationals ``p/q``, root of
unity ``z^k`` (zeta_N^k for the declared conductor), ``e(p/q)`` (meaning
e^(2*pi*i*p/q)), parameters ``a`` or ``a^{r}``, and in field mode a
parenthesized sum of such monomials.  When an algebra declares a generator
named ``z``, the letter resolves as that generator inside words and the
root-of-unity literal is unavailable there.

Assignment targets are ``a := <scalar>`` or ``a^{1/q} := <scalar>`` (a
designated q-th root, e.g. ``alpha^{1/2} := 2``).

The printer emits terms in deglex order; ``parse(print(f)) == f``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .freealg import Context, FreeElement, word_key
from .scalars import MAX_CONDUCTOR, Assignment, Scalar, UnitScalar

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

    # -- rationals -------------------------------------------------------

    def rational(self) -> Fraction:
        neg = False
        while self.at_sym("-") or self.at_sym("+"):
            if self.next().text == "-":
                neg = not neg
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

    # -- scalar literals ---------------------------------------------------

    def scalar_atom_field(self, conductor: int) -> Scalar:
        t = self.peek()
        if t.kind == "num":
            return Scalar.from_rational(self.rational(), conductor)
        if t.kind == "ident" and t.text == "z" and "z" not in self.gen_names:
            self.next()
            k = 1
            if self.at_sym("^"):
                self.next()
                tn = self.next()
                if tn.kind != "num":
                    raise DslError("expected integer power of z", tn.line, tn.col)
                k = int(tn.text)
            return Scalar.zeta(conductor, k)
        if t.kind == "ident" and t.text == "e":
            self.next()
            self.expect_sym("(")
            r = self.rational()
            self.expect_sym(")")
            from .scalars import torsion_scalar

            return torsion_scalar(r, conductor)
        if self.at_sym("("):
            self.next()
            total = Scalar.zero(conductor)
            sign = 1
            while True:
                part = self.scalar_monomial_field(conductor)
                total = total + (part if sign > 0 else -part)
                if self.at_sym("+"):
                    self.next()
                    sign = 1
                elif self.at_sym("-"):
                    self.next()
                    sign = -1
                else:
                    break
            self.expect_sym(")")
            return total
        self.error(f"expected scalar literal, found {t.text!r}")

    def scalar_monomial_field(self, conductor: int) -> Scalar:
        out = self.scalar_atom_field(conductor)
        while self.at_sym("*"):
            save = self.i
            self.next()
            t = self.peek()
            is_coeff_atom = t.kind == "num" or (
                t.kind == "ident"
                and t.text not in self.gen_names
                and t.text in ("z", "e")
            ) or (t.kind == "sym" and t.text == "(")
            if not is_coeff_atom:
                self.i = save  # a generator (or nothing coefficient-like) follows
                break
            out = out * self.scalar_atom_field(conductor)
        return out

    def scalar_field(self, conductor: int) -> Scalar:
        neg = False
        while self.at_sym("-") or self.at_sym("+"):
            if self.next().text == "-":
                neg = not neg
        v = self.scalar_monomial_field(conductor)
        return -v if neg else v

    def unit_atom(self, conductor: int, params) -> UnitScalar:
        k = len(params)
        t = self.peek()
        if t.kind == "num":
            v = self.rational()
            if v == 1:
                return UnitScalar.one(k)
            if v == -1:
                return UnitScalar.minus_one(k)
            raise DslError(
                f"rational {v} is not a unit-group element (declare a parameter)",
                t.line,
                t.col,
            )
        if t.kind == "ident" and t.text == "z" and "z" not in self.gen_names:
            self.next()
            p = 1
            if self.at_sym("^"):
                self.next()
                tn = self.next()
                if tn.kind != "num":
                    raise DslError("expected integer power of z", tn.line, tn.col)
                p = int(tn.text)
            return UnitScalar(Fraction(p, conductor), (Fraction(0),) * k)
        if t.kind == "ident" and t.text == "e":
            self.next()
            self.expect_sym("(")
            r = self.rational()
            self.expect_sym(")")
            return UnitScalar(r, (Fraction(0),) * k)
        if t.kind == "ident" and t.text in params:
            self.next()
            r = Fraction(1)
            if self.at_sym("^"):
                self.next()
                if self.at_sym("{"):
                    r = self.braced_rational()
                else:
                    tn = self.next()
                    if tn.kind != "num":
                        raise DslError("expected exponent", tn.line, tn.col)
                    r = Fraction(int(tn.text))
            return UnitScalar.param(params.index(t.text), k).pow(r)
        self.error(f"expected unit literal, found {t.text!r}")

    def unit_scalar(self, conductor: int, params) -> UnitScalar:
        neg = False
        while self.at_sym("-") or self.at_sym("+"):
            if self.next().text == "-":
                neg = not neg
        out = self.unit_atom(conductor, params)
        while self.at_sym("*"):
            save = self.i
            self.next()
            t = self.peek()
            is_unit_atom = t.kind == "num" or (
                t.kind == "ident"
                and t.text not in self.gen_names
                and (t.text in ("z", "e") or t.text in params)
            )
            if not is_unit_atom:
                self.i = save
                break
            out = out * self.unit_atom(conductor, params)
        return -out if neg else out

    # -- polynomials ---------------------------------------------------------

    def word(self, ctx: Context) -> tuple:
        letters = []
        while True:
            t = self.peek()
            if t.kind == "ident" and t.text in ctx.gens:
                letters.append(ctx.gens.index(self.next().text))
                if self.at_sym("*"):
                    save = self.i
                    self.next()
                    t2 = self.peek()
                    if t2.kind == "ident" and t2.text in ctx.gens:
                        continue
                    self.i = save
                    break
                break
            break
        return tuple(letters)

    def term(self, ctx: Context) -> FreeElement:
        neg = False
        while self.at_sym("-") or self.at_sym("+"):
            if self.next().text == "-":
                neg = not neg
        t = self.peek()
        coeff = None
        starts_with_gen = t.kind == "ident" and t.text in ctx.gens
        if not starts_with_gen:
            if ctx.mode == "field":
                coeff = self.scalar_monomial_field(ctx.conductor)
            else:
                coeff = self.unit_scalar(ctx.conductor, ctx.params)
            if self.at_sym("*"):
                save = self.i
                self.next()
                t2 = self.peek()
                if not (t2.kind == "ident" and t2.text in ctx.gens):
                    self.i = save
                    word = ()
                else:
                    word = self.word(ctx)
            else:
                word = ()
        else:
            word = self.word(ctx)
        if coeff is None:
            coeff = ctx.one()
        if neg:
            coeff = -coeff
        return FreeElement.monomial(ctx, word, coeff)

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
        mode = "unit" if self.params else "field"
        return Context(self.gens, self.conductor, self.params, mode)

    def assignment(self, assign_text: str | None = None) -> Assignment | None:
        """The file's values and roots, overridden by ``assign_text``
        ("a:=4,a^{1/2}:=2"); None when the algebra has no parameters."""
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
    raw_assigns: list[tuple[str, Fraction | None]] = []  # (target, root-exp) placeholders
    pending: list[tuple[str, Fraction | None, Scalar]] = []
    while p.peek().kind == "ident" and p.peek().text == "param":
        p.next()
        nm = p.expect_ident()
        if nm.text in RESERVED_NAMES or nm.text == "z":
            raise DslError(f"{nm.text!r} cannot be a parameter name", nm.line, nm.col)
        params.append(nm.text)
        while p.at_sym(";"):
            p.next()
            target = p.expect_ident().text
            rexp: Fraction | None = None
            if p.at_sym("^"):
                p.next()
                rexp = p.braced_rational()
            p.expect_sym(":=")
            val = p.scalar_field(conductor)
            pending.append((target, rexp, val))

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
    for target, rexp, val in pending:
        if target not in params:
            raise DslError(f"assignment to undeclared parameter {target!r}")
        if rexp is None:
            out.values[target] = val
        else:
            if rexp.numerator != 1:
                raise DslError(f"root designation exponent must be 1/q, got {rexp}")
            out.roots[(target, rexp.denominator)] = val

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
    if p.peek().kind != "end":
        p.error(f"trailing input {p.peek().text!r}")
    return out


def parse_algebra_file(path) -> AlgebraFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def parse_poly(text: str, ctx: Context) -> FreeElement:
    p = _Parser(text)
    out = p.ncpoly(ctx)
    if p.peek().kind != "end":
        p.error(f"trailing input {p.peek().text!r}")
    return out


def parse_scalar(text: str, conductor: int) -> Scalar:
    p = _Parser(text)
    v = p.scalar_field(conductor)
    if p.peek().kind != "end":
        p.error(f"trailing input {p.peek().text!r}")
    return v


def parse_unit(text: str, conductor: int, params) -> UnitScalar:
    p = _Parser(text)
    v = p.unit_scalar(conductor, tuple(params))
    if p.peek().kind != "end":
        p.error(f"trailing input {p.peek().text!r}")
    return v


def parse_assignment_text(text: str, conductor: int):
    """Parse "a:=4,a^{1/2}:=2" into (values, roots) dicts."""
    values: dict[str, Scalar] = {}
    roots: dict[tuple[str, int], Scalar] = {}
    p = _Parser(text)
    while p.peek().kind != "end":
        name = p.expect_ident().text
        rexp = None
        if p.at_sym("^"):
            p.next()
            rexp = p.braced_rational()
        p.expect_sym(":=")
        val = p.scalar_field(conductor)
        if rexp is None:
            values[name] = val
        else:
            if rexp.numerator != 1:
                raise DslError("root designation exponent must be 1/q")
            roots[(name, rexp.denominator)] = val
        if p.at_sym(","):
            p.next()
    return values, roots


# -- printing ------------------------------------------------------------


def scalar_text(s: Scalar, allow_z: bool = True) -> str:
    """Canonical coefficient text; parenthesized when not a basis monomial."""
    nonzero = [(k, v) for k, v in enumerate(s.c) if v]
    if not nonzero:
        return "0"
    if len(nonzero) == 1:
        k, v = nonzero[0]
        if k == 0:
            return str(v)
        z = ("z" if k == 1 else f"z^{k}") if allow_z else f"e({Fraction(k, s.n)})"
        if v == 1:
            return z
        if v == -1:
            return f"-{z}"
        return f"{v}*{z}"
    if allow_z:
        return f"({s})"
    parts = []
    for k, v in nonzero:
        parts.append(scalar_text(Scalar(s.n, [0] * k + [v]), allow_z=False))
    body = parts[0]
    for t in parts[1:]:
        body += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return f"({body})"


def unit_text(c: UnitScalar, params, conductor: int, allow_z: bool = True) -> str:
    """Canonical unit coefficient text, preferring z^k over e(r)."""
    sign = ""
    factors = []
    tor = c.tor
    if tor == Fraction(1, 2):
        sign = "-"
    elif tor != 0:
        k = tor * conductor
        if k.denominator == 1 and allow_z:
            factors.append("z" if k == 1 else f"z^{int(k)}")
        else:
            factors.append(f"e({tor})")
    for name, e in zip(params, c.exps):
        if e == 0:
            continue
        if e == 1:
            factors.append(name)
        else:
            factors.append(f"{name}^{{{e}}}")
    if not factors:
        return sign + "1"
    return sign + "*".join(factors)


def _coeff_word_text(ctx: Context, w, c) -> str:
    word = "*".join(ctx.gens[i] for i in w)
    allow_z = "z" not in ctx.gens
    if ctx.mode == "field":
        txt = scalar_text(c, allow_z=allow_z)
    else:
        txt = unit_text(c, ctx.params, ctx.conductor, allow_z=allow_z)
    if not word:
        return txt
    if txt == "1":
        return word
    if txt == "-1":
        return f"-{word}"
    return f"{txt}*{word}"


def print_poly(f: FreeElement) -> str:
    if not f.terms:
        return "0"
    parts = []
    for w in sorted(f.terms, key=word_key):
        parts.append(_coeff_word_text(f.ctx, w, f.terms[w]))
    out = parts[0]
    for t in parts[1:]:
        if t.startswith("-"):
            out += f" - {t[1:]}"
        else:
            out += f" + {t}"
    return out
