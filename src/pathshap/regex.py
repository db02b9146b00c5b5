"""Regular expression syntax for query atoms.

Grammar (precedence: star > concatenation > union):

    expr   := term ("|" term)*
    term   := factor+
    factor := base "*"?
    base   := LABEL | "." | "@" | "{}" | "(" expr ")"

``.`` matches any single symbol of the declared alphabet, ``@`` is the empty
word, ``{}`` the empty language.  Concatenation is juxtaposition: factors may
be separated by whitespace, and a run of two or more bare letters ("abc") is
read as the concatenation of its single-letter symbols.  A multi-character
label must therefore contain a digit after the first letter (e.g. ``rel1``);
runs of bare letters always split.
"""

from __future__ import annotations

from .errors import RegexSyntaxError


class RegexAst:
    """Base class for expression tree nodes: immutable, each node's fields
    named by its ``__slots__``.  Two nodes are equal when they are of one
    type with equal fields, so ``Union(a, b) != Concat(a, b)``."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self), self._fields()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a node from its fields, not by setattr
        return type(self), self._fields()


class EmptyLanguage(RegexAst):
    __slots__ = ()


class Epsilon(RegexAst):
    __slots__ = ()


class Symbol(RegexAst):
    __slots__ = ("label",)


class AnySymbol(RegexAst):
    __slots__ = ()


class Union(RegexAst):
    __slots__ = ("left", "right")


class Concat(RegexAst):
    __slots__ = ("left", "right")


class Star(RegexAst):
    __slots__ = ("inner",)


def symbols_of(ast: RegexAst) -> frozenset[str]:
    """All explicit symbol labels appearing in the tree."""
    if isinstance(ast, Symbol):
        return frozenset((ast.label,))
    if isinstance(ast, (Union, Concat)):
        return symbols_of(ast.left) | symbols_of(ast.right)
    if isinstance(ast, Star):
        return symbols_of(ast.inner)
    return frozenset()


_TOKEN_CHARS = {"|", "*", "(", ")", ".", "@"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, position) triples.

    Kinds: 'label', 'op' (one of | * ( ) . @), 'empty' for the {} literal.
    """
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_CHARS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c == "{":
            if i + 1 < n and text[i + 1] == "}":
                tokens.append(("empty", "{}", i))
                i += 2
                continue
            raise RegexSyntaxError("expected '{}'", i)
        if c.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum()):
                j += 1
            run = text[i:j]
            if run.isalpha() and len(run) > 1:
                # bare letter run: one symbol per letter
                for k, ch in enumerate(run):
                    tokens.append(("label", ch, i + k))
            else:
                tokens.append(("label", run, i))
            i = j
            continue
        raise RegexSyntaxError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def error(self, message: str):
        tok = self.peek()
        raise RegexSyntaxError(message, tok[2] if tok else self.length)

    def parse(self) -> RegexAst:
        ast = self.expr()
        if self.peek() is not None:
            self.error("trailing input")
        return ast

    def expr(self) -> RegexAst:
        ast = self.term()
        while True:
            tok = self.peek()
            if tok and tok[:2] == ("op", "|"):
                self.pos += 1
                ast = Union(ast, self.term())
            else:
                return ast

    def term(self) -> RegexAst:
        parts = [self.factor()]
        while True:
            tok = self.peek()
            if tok is None or tok[:2] in (("op", "|"), ("op", ")")):
                break
            parts.append(self.factor())
        ast = parts[0]
        for part in parts[1:]:
            ast = Concat(ast, part)
        return ast

    def factor(self) -> RegexAst:
        ast = self.base()
        while True:
            tok = self.peek()
            if tok and tok[:2] == ("op", "*"):
                self.pos += 1
                ast = Star(ast)
            else:
                return ast

    def base(self) -> RegexAst:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of expression")
        kind, value, _ = tok
        if kind == "label":
            self.pos += 1
            return Symbol(value)
        if kind == "empty":
            self.pos += 1
            return EmptyLanguage()
        if kind == "op" and value == ".":
            self.pos += 1
            return AnySymbol()
        if kind == "op" and value == "@":
            self.pos += 1
            return Epsilon()
        if kind == "op" and value == "(":
            self.pos += 1
            inner = self.expr()
            tok = self.peek()
            if tok is None or tok[:2] != ("op", ")"):
                self.error("expected ')'")
            self.pos += 1
            return inner
        self.error(f"unexpected token {value!r}")


def parse_regex(text: str) -> RegexAst:
    """Parse an atom expression into its tree form."""
    tokens = _tokenize(text)
    if not tokens:
        raise RegexSyntaxError("empty expression", 0)
    return _Parser(tokens, len(text)).parse()
