"""Concrete syntax: tokenizer, parsers and deterministic printers.

Shared grammar conventions: names are lowercase identifiers, variables
uppercase, 'a is the coaction of a; "." binds tighter than "+", which binds
tighter than "|"; parentheses group; whitespace between tokens is ignored.
Pi syntax: input a(x).P, output a<b>.P, restriction (nu p)P.  A trailing
".0" may be omitted on input but is always printed.

A term is read in one linear pass.  `tokenize` returns the token texts
alone, from one C-level `re.findall`, after one `re.search` has found any
character that starts no token; a token keeps no kind and no offsets.  The
parsers read a token's kind off its first character, and a `ParseError`
finds its `SourceSpan` by scanning the text again, so offsets cost nothing
on a good input.  The parsers read `|`, `+` and prefix chains with loops: a
chain is collected link by link and then folded from the inside out, so
only parentheses recurse, and a chain of any length parses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

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
    free_names,
)
from .terms import NIL, Act, Nil, Par, Prefix, Sum, Term, Var


@dataclass(frozen=True)
class SourceSpan:
    """Character offsets into the input text."""

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


Token = str  # a token's text; "" ends the input

_NAME = r"[a-z][a-z0-9_]*"

# findall steps over whitespace, which starts no token.  A character that
# starts no token is one that no token holds, or a digit other than 0 or an
# underscore with only 0s before it in its run of identifier characters (a
# letter there would have started a name or variable that holds it).  One
# search finds the first; a match of the repeated token pattern would find
# it too, but the regex engine keeps a backtracking entry per token, about
# 1.2 MB on a 5000-deep prefix chain.
_TOKEN_RE = re.compile(rf"0|{_NAME}|[A-Z][A-Za-z0-9_]*|['.|+()<>]")
_BAD_RE = re.compile(r"(?<![A-Za-z0-9_])0*[1-9_]|[^\sA-Za-z0-9_'.|+()<>]")


def is_name(text: str) -> bool:
    """Whether text is a channel name: one lowercase-identifier token."""
    return re.fullmatch(_NAME, text) is not None


def tokenize(text: str) -> list[Token]:
    """The token texts of text, ending with "" for the end of input.  A
    character that starts no token is an error here, before any parsing."""
    bad = _BAD_RE.search(text)
    if bad:
        at = bad.end() - 1
        raise ParseError(f"unexpected character {text[at]!r}", SourceSpan(at, at + 1))
    toks = _TOKEN_RE.findall(text)
    toks.append("")
    return toks


def _describe(tok: Token) -> str:
    return repr(tok) if tok else "end of input"


class _Parser:
    """One parse over the tokens of one text; `pos` is the next token to
    read.  A token's kind is read off its first character: a name starts
    lowercase and a variable uppercase, and every other token is one
    character.  Every loop stops at the final "", since no rule accepts it.
    Only an error needs a token's offsets, which `error` finds by scanning
    the text again."""

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0

    def error(self, message: str, at: int, expected: tuple[str, ...] = ()) -> ParseError:
        """A ParseError spanning token number at."""
        m = next(islice(_TOKEN_RE.finditer(self.text), at, None), None)
        span = SourceSpan(m.start(), m.end()) if m else SourceSpan(len(self.text), len(self.text))
        return ParseError(message, span, expected)

    def unexpected(self, at: int, what: str) -> ParseError:
        return self.error(f"unexpected {_describe(self.toks[at])}", at, (what,))

    def name(self, at: int, what: str) -> str:
        """The text of token at, which must be a name."""
        tok = self.toks[at]
        if not tok[:1].islower():
            raise self.unexpected(at, what)
        return tok

    def close(self, at: int, char: str) -> None:
        """Token at must be the closing char, ')' or '>'."""
        if self.toks[at] != char:
            raise self.unexpected(at, repr(char))

    def done(self) -> None:
        tok = self.toks[self.pos]
        if tok:
            raise self.error(f"unexpected {_describe(tok)} after the term", self.pos)

    # CCS / CCS+ -----------------------------------------------------------

    def ccs_term(self, allow_sum: bool, allow_var: bool) -> Term:
        """chain ('+' chain)* ('|' chain ('+' chain)*)*"""
        toks = self.toks
        parts: list[Term] = []
        summands: list[tuple[Term, int]] = []  # each with its first token
        while True:
            first = self.pos
            t = self.ccs_chain(allow_sum, allow_var)
            tok = toks[self.pos]
            if tok == "+":
                if not allow_sum:
                    raise self.error("sums are not part of this calculus", self.pos)
                summands.append((t, first))
                self.pos += 1
                continue
            if summands:
                summands.append((t, first))
                for s, at in summands:
                    if not isinstance(s, Act):
                        raise self.error("summands must be prefixed", at)
                t = Sum(s for s, _ in summands)
                summands = []
            parts.append(t)
            if tok != "|":
                return Par(parts)
            self.pos += 1

    def ccs_chain(self, allow_sum: bool, allow_var: bool) -> Term:
        """('? name '.')* followed by a prefix without continuation, 0, a
        variable or a parenthesized term."""
        toks = self.toks
        pos = self.pos
        prefixes: list[Prefix] = []
        while True:
            tok = toks[pos]
            if tok == "'" or tok[:1].islower():
                co = tok == "'"
                if co:
                    pos += 1
                    tok = self.name(pos, "a name")
                prefixes.append(Prefix(tok, co))
                pos += 1
                if toks[pos] == ".":
                    pos += 1
                    continue
                t = NIL
            elif tok == "0":
                pos += 1
                t = NIL
            elif tok[:1].isupper():
                if not allow_var:
                    raise self.error("variables are not part of this calculus", pos)
                pos += 1
                t = Var(tok)
            elif tok == "(":
                self.pos = pos + 1
                t = self.ccs_term(allow_sum, allow_var)
                pos = self.pos
                self.close(pos, ")")
                pos += 1
            else:
                raise self.unexpected(pos, "a term")
            break
        self.pos = pos
        for p in reversed(prefixes):
            t = Act(p, t)
        return t

    # pi -------------------------------------------------------------------

    def pi_term(self, env: list[str]) -> PiTerm:
        """chain ('|' chain)*; env holds the binder names in scope, innermost
        first."""
        parts = [self.pi_chain(env)]
        while self.toks[self.pos] == "|":
            self.pos += 1
            parts.append(self.pi_chain(env))
        return PiPar(parts)

    def pi_chain(self, env: list[str]) -> PiTerm:
        """Inputs, outputs and restrictions, each but a restriction followed
        by '.' to continue, up to a prefix without continuation, 0 or a
        parenthesized term.  The chain's binders join env while it is read
        and leave it before the chain is folded."""
        toks = self.toks
        pos = self.pos
        links: list[tuple] = []  # (chan,) input, (chan, payload) output, () restriction
        binders = 0
        while True:
            tok = toks[pos]
            if tok[:1].islower():
                chan = _pi_ref(tok, env)
                after = toks[pos + 1]
                if after == "(":
                    binder = self.name(pos + 2, "a binder name")
                    self.close(pos + 3, ")")
                    links.append((chan,))
                    env.insert(0, binder)
                    binders += 1
                elif after == "<":
                    payload = _pi_ref(self.name(pos + 2, "a name"), env)
                    self.close(pos + 3, ">")
                    links.append((chan, payload))
                else:
                    raise self.error("a bare name is not a pi term", pos, ("'('", "'<'"))
                pos += 4
                if toks[pos] == ".":
                    pos += 1
                    continue
                t = PI_NIL
            elif tok == "(":
                if toks[pos + 1] == "nu":
                    binder = self.name(pos + 2, "a binder name")
                    self.close(pos + 3, ")")
                    links.append(())
                    env.insert(0, binder)
                    binders += 1
                    pos += 4
                    continue
                self.pos = pos + 1
                t = self.pi_term(env)
                pos = self.pos
                self.close(pos, ")")
                pos += 1
            elif tok == "0":
                pos += 1
                t = PI_NIL
            else:
                raise self.unexpected(pos, "a term")
            break
        self.pos = pos
        del env[:binders]
        for link in reversed(links):
            if not link:
                t = PiNu(t)
            elif len(link) == 1:
                t = PiInput(link[0], t)
            else:
                t = PiOutput(link[0], link[1], t)
        return t


def _pi_ref(name: str, env: list[str]) -> FreeName | BoundName:
    return BoundName(env.index(name)) if name in env else FreeName(name)


def parse_ccs(text: str) -> Term:
    """Sum-free terms; uppercase identifiers parse as variables."""
    p = _Parser(text)
    t = p.ccs_term(allow_sum=False, allow_var=True)
    p.done()
    return t


def parse_ccs_plus(text: str) -> Term:
    """Terms with guarded sums; variables are rejected."""
    p = _Parser(text)
    t = p.ccs_term(allow_sum=True, allow_var=False)
    p.done()
    return t


def parse_pi(text: str) -> PiTerm:
    p = _Parser(text)
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
    if t._dangling:
        raise ValueError("cannot print a term with dangling indices")
    return _pi_print(t, [], frozenset(free_names(t)))


def print_term(t: Term | PiTerm) -> str:
    """Printer dispatching on the term family."""
    if isinstance(t, PiTerm):
        return print_pi(t)
    return print_ccs(t)
