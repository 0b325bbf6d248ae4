"""The tokenizer and parsers as they were before `tokenize` returned bare
token texts: a `re.finditer` scan into `(kind, text, start, end)` tuples, and
parsers that read each token's kind and span off its tuple.  The tests parse
the same texts, well formed or not, with both and require the same node or
the same `ParseError` message, span and expected tokens."""

from __future__ import annotations

import re

from ccspi.pi import PI_NIL, BoundName, FreeName, PiInput, PiNu, PiOutput, PiPar, PiTerm
from ccspi.syntax import ParseError, SourceSpan
from ccspi.terms import NIL, Act, Par, Prefix, Sum, Term, Var

Token = tuple[str, str, int, int]  # kind, text, start, end

_NAME = r"[a-z][a-z0-9_]*"

# Whitespace matches no group, so finditer steps over it; any other
# character that starts no token is caught by the last group.
_TOKEN_RE = re.compile(
    rf"(?P<zero>0)|(?P<name>{_NAME})|(?P<var>[A-Z][A-Za-z0-9_]*)"
    r"|(?P<quote>')|(?P<dot>\.)|(?P<bar>\|)|(?P<plus>\+)"
    r"|(?P<lpar>\()|(?P<rpar>\))|(?P<lt><)|(?P<gt>>)|(?P<other>\S)"
)


def tokenize(text: str) -> list[Token]:
    """The tokens of text, ending with an ("eof", "", n, n) token."""
    toks = [(m.lastgroup, m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]
    for kind, chars, start, end in toks:
        if kind == "other":
            raise ParseError(f"unexpected character {chars!r}", SourceSpan(start, end))
    toks.append(("eof", "", len(text), len(text)))
    return toks


def _describe(tok: Token) -> str:
    return "end of input" if tok[0] == "eof" else repr(tok[1])


def _unexpected(tok: Token, what: str) -> ParseError:
    return ParseError(f"unexpected {_describe(tok)}", SourceSpan(tok[2], tok[3]), (what,))


def _expect(toks: list[Token], pos: int, kind: str, what: str) -> str:
    """The text of toks[pos], which must be of the given kind."""
    tok = toks[pos]
    if tok[0] != kind:
        raise _unexpected(tok, what)
    return tok[1]


class _Parser:
    """One parse over one token list; `pos` is the next token to read.  Every
    loop stops at the final eof token, since no rule accepts it."""

    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def done(self) -> None:
        tok = self.toks[self.pos]
        if tok[0] != "eof":
            raise ParseError(
                f"unexpected {_describe(tok)} after the term", SourceSpan(tok[2], tok[3])
            )

    # CCS / CCS+ -----------------------------------------------------------

    def ccs_term(self, allow_sum: bool, allow_var: bool) -> Term:
        """chain ('+' chain)* ('|' chain ('+' chain)*)*"""
        toks = self.toks
        parts: list[Term] = []
        summands: list[tuple[Term, int]] = []  # each with its first token
        while True:
            first = self.pos
            t = self.ccs_chain(allow_sum, allow_var)
            kind, _, start, end = toks[self.pos]
            if kind == "plus":
                if not allow_sum:
                    raise ParseError("sums are not part of this calculus", SourceSpan(start, end))
                summands.append((t, first))
                self.pos += 1
                continue
            if summands:
                summands.append((t, first))
                for s, at in summands:
                    if not isinstance(s, Act):
                        tok = toks[at]
                        raise ParseError("summands must be prefixed", SourceSpan(tok[2], tok[3]))
                t = Sum(s for s, _ in summands)
                summands = []
            parts.append(t)
            if kind != "bar":
                return Par(parts)
            self.pos += 1

    def ccs_chain(self, allow_sum: bool, allow_var: bool) -> Term:
        """('? name '.')* followed by a prefix without continuation, 0, a
        variable or a parenthesized term."""
        toks = self.toks
        pos = self.pos
        prefixes: list[Prefix] = []
        while True:
            kind, text, start, end = toks[pos]
            if kind == "name" or kind == "quote":
                co = kind == "quote"
                if co:
                    pos += 1
                    text = _expect(toks, pos, "name", "a name")
                prefixes.append(Prefix(text, co))
                pos += 1
                if toks[pos][0] == "dot":
                    pos += 1
                    continue
                t = NIL
            elif kind == "zero":
                pos += 1
                t = NIL
            elif kind == "var":
                if not allow_var:
                    raise ParseError("variables are not part of this calculus", SourceSpan(start, end))
                pos += 1
                t = Var(text)
            elif kind == "lpar":
                self.pos = pos + 1
                t = self.ccs_term(allow_sum, allow_var)
                pos = self.pos
                _expect(toks, pos, "rpar", "')'")
                pos += 1
            else:
                raise _unexpected(toks[pos], "a term")
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
        while self.toks[self.pos][0] == "bar":
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
            kind, text, start, end = toks[pos]
            if kind == "name":
                chan = _pi_ref(text, env)
                after = toks[pos + 1][0]
                if after == "lpar":
                    binder = _expect(toks, pos + 2, "name", "a binder name")
                    _expect(toks, pos + 3, "rpar", "')'")
                    links.append((chan,))
                    env.insert(0, binder)
                    binders += 1
                elif after == "lt":
                    payload = _pi_ref(_expect(toks, pos + 2, "name", "a name"), env)
                    _expect(toks, pos + 3, "gt", "'>'")
                    links.append((chan, payload))
                else:
                    raise ParseError(
                        "a bare name is not a pi term", SourceSpan(start, end), ("'('", "'<'")
                    )
                pos += 4
                if toks[pos][0] == "dot":
                    pos += 1
                    continue
                t = PI_NIL
            elif kind == "lpar":
                after = toks[pos + 1]
                if after[0] == "name" and after[1] == "nu":
                    binder = _expect(toks, pos + 2, "name", "a binder name")
                    _expect(toks, pos + 3, "rpar", "')'")
                    links.append(())
                    env.insert(0, binder)
                    binders += 1
                    pos += 4
                    continue
                self.pos = pos + 1
                t = self.pi_term(env)
                pos = self.pos
                _expect(toks, pos, "rpar", "')'")
                pos += 1
            elif kind == "zero":
                pos += 1
                t = PI_NIL
            else:
                raise _unexpected(toks[pos], "a term")
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
