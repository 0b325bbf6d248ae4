"""Concrete syntax: tokenizer, recursive-descent parsers, deterministic
printers, and a nested-object serialization for terms and transition graphs.

Shared grammar conventions: names are lowercase identifiers, variables
uppercase, 'a is the coaction of a; "." binds tighter than "+", which binds
tighter than "|"; parentheses group; whitespace between tokens is ignored.
Pi syntax: input a(x).P, output a<b>.P, restriction (nu p)P.  A trailing
".0" may be omitted on input but is always printed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .lts import Lts, Tau, action_key
from .pi import (
    PI_NIL,
    BoundName,
    FreeName,
    PiInput,
    PiNil,
    PiNu,
    PiOutput,
    PiPar,
    PiTerm,
    dangling,
    free_names,
)
from .terms import NIL, Act, Nil, Par, Prefix, Sum, Term, Var, sort_key


@dataclass(frozen=True)
class SourceSpan:
    """Byte offsets into the (ASCII) input text."""

    start: int
    end: int


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan, expected: tuple[str, ...] = ()):
        self.message = message
        self.span = span
        self.expected = expected
        detail = f"{message} at {span.start}..{span.end}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: SourceSpan


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<zero>0)|(?P<name>[a-z][a-z0-9_]*)|(?P<var>[A-Z][A-Za-z0-9_]*)"
    r"|(?P<quote>')|(?P<dot>\.)|(?P<bar>\|)|(?P<plus>\+)"
    r"|(?P<lpar>\()|(?P<rpar>\))|(?P<lt><)|(?P<gt>>)"
)


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", SourceSpan(pos, pos + 1))
        if m.lastgroup != "ws":
            out.append(Token(m.lastgroup, m.group(), SourceSpan(m.start(), m.end())))
        pos = m.end()
    out.append(Token("eof", "", SourceSpan(len(text), len(text))))
    return out


def _describe(tok: Token) -> str:
    return "end of input" if tok.kind == "eof" else repr(tok.text)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def take(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            tok = self.toks[self.pos]
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, what: str) -> Token:
        tok = self.take(kind)
        if tok is None:
            got = self.peek()
            raise ParseError(f"unexpected {_describe(got)}", got.span, expected=(what,))
        return tok

    def done(self) -> None:
        if self.peek().kind != "eof":
            got = self.peek()
            raise ParseError(f"unexpected {_describe(got)} after the term", got.span)

    # CCS / CCS+ -----------------------------------------------------------

    def ccs_term(self, allow_sum: bool, allow_var: bool) -> Term:
        parts = [self.ccs_sum(allow_sum, allow_var)]
        while self.take("bar"):
            parts.append(self.ccs_sum(allow_sum, allow_var))
        return Par(parts)

    def ccs_sum(self, allow_sum: bool, allow_var: bool) -> Term:
        first_span = self.peek().span
        first = self.ccs_pre(allow_sum, allow_var)
        if self.peek().kind != "plus":
            return first
        if not allow_sum:
            raise ParseError("sums are not part of this calculus", self.peek().span)
        operands = [(first, first_span)]
        while self.take("plus"):
            span = self.peek().span
            operands.append((self.ccs_pre(allow_sum, allow_var), span))
        for t, span in operands:
            if not isinstance(t, Act):
                raise ParseError("summands must be prefixed", span)
        return Sum(t for t, _ in operands)

    def ccs_pre(self, allow_sum: bool, allow_var: bool) -> Term:
        if self.peek().kind in ("quote", "name"):
            co = self.take("quote") is not None
            name = self.expect("name", "a name").text
            cont = self.ccs_pre(allow_sum, allow_var) if self.take("dot") else NIL
            return Act(Prefix(name, co), cont)
        return self.ccs_atom(allow_sum, allow_var)

    def ccs_atom(self, allow_sum: bool, allow_var: bool) -> Term:
        tok = self.peek()
        if tok.kind == "zero":
            self.pos += 1
            return NIL
        if tok.kind == "var":
            self.pos += 1
            if not allow_var:
                raise ParseError("variables are not part of this calculus", tok.span)
            return Var(tok.text)
        if tok.kind == "lpar":
            self.pos += 1
            t = self.ccs_term(allow_sum, allow_var)
            self.expect("rpar", "')'")
            return t
        raise ParseError(f"unexpected {_describe(tok)}", tok.span, expected=("a term",))

    # pi -------------------------------------------------------------------

    def pi_term(self, env: list[str]) -> PiTerm:
        parts = [self.pi_pre(env)]
        while self.take("bar"):
            parts.append(self.pi_pre(env))
        return PiPar(parts)

    def pi_pre(self, env: list[str]) -> PiTerm:
        tok = self.peek()
        if tok.kind == "name":
            self.pos += 1
            chan = _pi_ref(tok.text, env)
            if self.take("lpar"):
                binder = self.expect("name", "a binder name").text
                self.expect("rpar", "')'")
                return PiInput(chan, self.pi_cont([binder] + env))
            if self.take("lt"):
                payload = _pi_ref(self.expect("name", "a name").text, env)
                self.expect("gt", "'>'")
                return PiOutput(chan, payload, self.pi_cont(env))
            raise ParseError("a bare name is not a pi term", tok.span, expected=("'('", "'<'"))
        if tok.kind == "lpar":
            if self.peek(1).kind == "name" and self.peek(1).text == "nu":
                self.pos += 2
                binder = self.expect("name", "a binder name").text
                self.expect("rpar", "')'")
                return PiNu(self.pi_pre([binder] + env))
            self.pos += 1
            t = self.pi_term(env)
            self.expect("rpar", "')'")
            return t
        if tok.kind == "zero":
            self.pos += 1
            return PI_NIL
        raise ParseError(f"unexpected {_describe(tok)}", tok.span, expected=("a term",))

    def pi_cont(self, env: list[str]) -> PiTerm:
        return self.pi_pre(env) if self.take("dot") else PI_NIL


def _pi_ref(name: str, env: list[str]) -> FreeName | BoundName:
    return BoundName(env.index(name)) if name in env else FreeName(name)


def parse_ccs(text: str) -> Term:
    """Sum-free terms; uppercase identifiers parse as variables."""
    p = _Parser(tokenize(text))
    t = p.ccs_term(allow_sum=False, allow_var=True)
    p.done()
    return t


def parse_ccs_plus(text: str) -> Term:
    """Terms with guarded sums; variables are rejected."""
    p = _Parser(tokenize(text))
    t = p.ccs_term(allow_sum=True, allow_var=False)
    p.done()
    return t


def parse_pi(text: str) -> PiTerm:
    p = _Parser(tokenize(text))
    t = p.pi_term([])
    p.done()
    return t


# printers -----------------------------------------------------------------


def print_ccs(t: Term) -> str:
    match t:
        case Nil():
            return "0"
        case Var(ident=v):
            return v
        case Act(prefix=p, cont=c):
            inner = print_ccs(c)
            if isinstance(c, (Par, Sum)):
                inner = f"({inner})"
            return f"{p}.{inner}"
        case Par(parts=ps):
            return " | ".join(print_ccs(x) for x in ps)
        case Sum(parts=ps):
            return " + ".join(print_ccs(x) for x in ps)
    raise TypeError(f"not a CCS term: {t!r}")


def _display_name(base: str, taken: frozenset[str]) -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _ref_str(r: FreeName | BoundName, env: list[str]) -> str:
    return r.name if isinstance(r, FreeName) else env[r.index]


def _pi_print(t: PiTerm, env: list[str], taken: frozenset[str]) -> str:
    match t:
        case PiNil():
            return "0"
        case PiInput(chan=c, body=b):
            x = _display_name("x", taken)
            body = _pi_print(b, [x] + env, taken | {x})
            if isinstance(b, PiPar):
                body = f"({body})"
            return f"{_ref_str(c, env)}({x}).{body}"
        case PiOutput(chan=c, payload=n, body=b):
            body = _pi_print(b, env, taken)
            if isinstance(b, PiPar):
                body = f"({body})"
            return f"{_ref_str(c, env)}<{_ref_str(n, env)}>.{body}"
        case PiNu(body=b):
            p = _display_name("p", taken)
            return f"(nu {p})({_pi_print(b, [p] + env, taken | {p})})"
        case PiPar(parts=ps):
            return " | ".join(_pi_print(x, env, taken) for x in ps)
    raise TypeError(f"not a pi term: {t!r}")


def print_pi(t: PiTerm) -> str:
    if dangling(t):
        raise ValueError("cannot print a term with dangling indices")
    return _pi_print(t, [], frozenset(free_names(t)))


def print_term(t: Term | PiTerm) -> str:
    """Printer dispatching on the term family."""
    if isinstance(t, PiTerm):
        return print_pi(t)
    return print_ccs(t)


# serialization --------------------------------------------------------------


def term_to_obj(t: Term) -> dict:
    """Nested-object document: constructor tag plus children."""
    match t:
        case Nil():
            return {"kind": "nil"}
        case Var(ident=v):
            return {"kind": "var", "name": v}
        case Act(prefix=p, cont=c):
            return {"kind": "act", "name": p.name, "co": p.co, "cont": term_to_obj(c)}
        case Par(parts=ps):
            return {"kind": "par", "parts": [term_to_obj(x) for x in ps]}
        case Sum(parts=ps):
            return {"kind": "sum", "parts": [term_to_obj(x) for x in ps]}
    raise TypeError(f"not a CCS term: {t!r}")


def term_from_obj(obj: dict) -> Term:
    match obj:
        case {"kind": "nil"}:
            return NIL
        case {"kind": "var", "name": str(n)}:
            return Var(n)
        case {"kind": "act", "name": str(n), "co": bool(co), "cont": c}:
            return Act(Prefix(n, co), term_from_obj(c))
        case {"kind": "par", "parts": list(ps)}:
            return Par(term_from_obj(x) for x in ps)
        case {"kind": "sum", "parts": list(ps)}:
            return Sum(term_from_obj(x) for x in ps)
    raise ValueError(f"not a term document: {obj!r}")


def _ref_to_obj(r: FreeName | BoundName) -> dict:
    if isinstance(r, FreeName):
        return {"kind": "free", "name": r.name}
    return {"kind": "bound", "index": r.index}


def _ref_from_obj(obj: dict) -> FreeName | BoundName:
    match obj:
        case {"kind": "free", "name": str(n)}:
            return FreeName(n)
        case {"kind": "bound", "index": int(i)}:
            return BoundName(i)
    raise ValueError(f"not a name document: {obj!r}")


def pi_to_obj(t: PiTerm) -> dict:
    match t:
        case PiNil():
            return {"kind": "nil"}
        case PiInput(chan=c, body=b):
            return {"kind": "input", "chan": _ref_to_obj(c), "body": pi_to_obj(b)}
        case PiOutput(chan=c, payload=n, body=b):
            return {
                "kind": "output",
                "chan": _ref_to_obj(c),
                "payload": _ref_to_obj(n),
                "body": pi_to_obj(b),
            }
        case PiNu(body=b):
            return {"kind": "nu", "body": pi_to_obj(b)}
        case PiPar(parts=ps):
            return {"kind": "par", "parts": [pi_to_obj(x) for x in ps]}
    raise TypeError(f"not a pi term: {t!r}")


def pi_from_obj(obj: dict) -> PiTerm:
    match obj:
        case {"kind": "nil"}:
            return PI_NIL
        case {"kind": "input", "chan": c, "body": b}:
            return PiInput(_ref_from_obj(c), pi_from_obj(b))
        case {"kind": "output", "chan": c, "payload": n, "body": b}:
            return PiOutput(_ref_from_obj(c), _ref_from_obj(n), pi_from_obj(b))
        case {"kind": "nu", "body": b}:
            return PiNu(pi_from_obj(b))
        case {"kind": "par", "parts": list(ps)}:
            return PiPar(pi_from_obj(x) for x in ps)
    raise ValueError(f"not a pi term document: {obj!r}")


def action_str(a: Tau | Prefix) -> str:
    return "tau" if isinstance(a, Tau) else str(a)


def lts_to_obj(lts: Lts) -> dict:
    states = sorted(lts.states, key=sort_key)
    edges = sorted(lts.edges, key=lambda e: (sort_key(e[0]), action_key(e[1]), sort_key(e[2])))
    return {
        "root": print_ccs(lts.root),
        "states": [print_ccs(s) for s in states],
        "edges": [
            {"source": print_ccs(s), "action": action_str(a), "target": print_ccs(g)}
            for s, a, g in edges
        ],
    }
