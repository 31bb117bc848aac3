"""Lexer for the textual Sequence Datalog syntax.

The surface syntax follows the paper's notation as closely as ASCII allows:

* path variables are written ``$x``, atomic variables ``@x``;
* concatenation is written ``·`` or a dot that is *adjacent* to both of its
  operands (``a.$x``); a dot followed by whitespace or end of input ends a
  rule;
* packing is written ``<e>`` (or ``⟨e⟩``);
* rules are written ``Head :- Body.`` (``<-`` and ``←`` are also accepted);
* negation is written ``not A``, ``!A`` or ``¬A``; nonequalities ``e1 != e2``;
* the empty path is written ``eps``, ``ϵ`` or ``ε``;
* ``%`` and ``#`` start comments; a line containing only ``---`` separates
  strata.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ParseError

__all__ = ["Token", "TokenKind", "tokenize"]


class TokenKind:
    """Token kinds produced by :func:`tokenize` (simple string constants)."""

    NAME = "NAME"
    PATH_VAR = "PATH_VAR"
    ATOM_VAR = "ATOM_VAR"
    STRING = "STRING"
    LPAR = "LPAR"
    RPAR = "RPAR"
    COMMA = "COMMA"
    LANGLE = "LANGLE"
    RANGLE = "RANGLE"
    EQ = "EQ"
    NEQ = "NEQ"
    ARROW = "ARROW"
    NOT = "NOT"
    CONCAT = "CONCAT"
    END = "END"
    EPSILON = "EPSILON"
    STRATUM_SEP = "STRATUM_SEP"
    EOF = "EOF"


class Token(NamedTuple):
    """A single token with its source position (1-based line and column)."""

    kind: str
    text: str
    line: int
    column: int

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set("0123456789'")
_EPSILON_WORDS = {"eps", "ϵ", "ε", "epsilon"}
_NOT_WORDS = {"not", "¬"}


def _is_term_end(character: str) -> bool:
    """Characters that can end a term (for the adjacent-dot concatenation rule)."""
    return character in _NAME_CONT or character in ")>⟩'\""


def _is_term_start(character: str) -> bool:
    """Characters that can start a term (for the adjacent-dot concatenation rule)."""
    return character in _NAME_START or character in "$@<⟨('\"" or character in "ϵε"


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*, returning a list of tokens ending with an EOF token."""
    tokens: list[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(text)

    def error(message: str) -> ParseError:
        return ParseError(message, line, column)

    def at_line_start_up_to(position: int) -> bool:
        back = position - 1
        while back >= 0 and text[back] in " \t":
            back -= 1
        return back < 0 or text[back] == "\n"

    while index < length:
        character = text[index]

        # Newlines and whitespace.
        if character == "\n":
            index += 1
            line += 1
            column = 1
            continue
        if character in " \t\r":
            index += 1
            column += 1
            continue

        # Comments.
        if character in "%#":
            while index < length and text[index] != "\n":
                index += 1
            continue

        # Stratum separator: a line consisting of three or more dashes.
        if character == "-" and at_line_start_up_to(index):
            end = index
            while end < length and text[end] == "-":
                end += 1
            rest = end
            while rest < length and text[rest] in " \t\r":
                rest += 1
            if end - index >= 3 and (rest >= length or text[rest] == "\n"):
                tokens.append(Token(TokenKind.STRATUM_SEP, text[index:end], line, column))
                column += end - index
                index = end
                continue

        # Arrows.
        if text.startswith(":-", index) or text.startswith("<-", index):
            tokens.append(Token(TokenKind.ARROW, text[index:index + 2], line, column))
            index += 2
            column += 2
            continue
        if character == "←":
            tokens.append(Token(TokenKind.ARROW, character, line, column))
            index += 1
            column += 1
            continue

        # Nonequality and negation.
        if text.startswith("!=", index):
            tokens.append(Token(TokenKind.NEQ, "!=", line, column))
            index += 2
            column += 2
            continue
        if character == "≠":
            tokens.append(Token(TokenKind.NEQ, character, line, column))
            index += 1
            column += 1
            continue
        if character == "!":
            tokens.append(Token(TokenKind.NOT, character, line, column))
            index += 1
            column += 1
            continue
        if character == "¬":
            tokens.append(Token(TokenKind.NOT, character, line, column))
            index += 1
            column += 1
            continue

        # Single-character symbols.
        if character == "(":
            tokens.append(Token(TokenKind.LPAR, character, line, column))
            index += 1
            column += 1
            continue
        if character == ")":
            tokens.append(Token(TokenKind.RPAR, character, line, column))
            index += 1
            column += 1
            continue
        if character == ",":
            tokens.append(Token(TokenKind.COMMA, character, line, column))
            index += 1
            column += 1
            continue
        if character in "<⟨":
            tokens.append(Token(TokenKind.LANGLE, character, line, column))
            index += 1
            column += 1
            continue
        if character in ">⟩":
            tokens.append(Token(TokenKind.RANGLE, character, line, column))
            index += 1
            column += 1
            continue
        if character == "=":
            tokens.append(Token(TokenKind.EQ, character, line, column))
            index += 1
            column += 1
            continue
        if character == "·" or character == "*":
            tokens.append(Token(TokenKind.CONCAT, character, line, column))
            index += 1
            column += 1
            continue

        # Dot: concatenation when glued between two terms, end-of-rule otherwise.
        if character == ".":
            previous_ok = index > 0 and _is_term_end(text[index - 1])
            next_ok = index + 1 < length and _is_term_start(text[index + 1])
            kind = TokenKind.CONCAT if (previous_ok and next_ok) else TokenKind.END
            tokens.append(Token(kind, character, line, column))
            index += 1
            column += 1
            continue

        # Variables.
        if character in "$@":
            start = index + 1
            end = start
            while end < length and text[end] in _NAME_CONT:
                end += 1
            if end == start:
                raise error(f"expected a variable name after {character!r}")
            kind = TokenKind.PATH_VAR if character == "$" else TokenKind.ATOM_VAR
            tokens.append(Token(kind, text[start:end], line, column))
            column += end - index
            index = end
            continue

        # Quoted constants.
        if character in "'\"":
            quote = character
            end = index + 1
            value_chars = []
            while end < length and text[end] != quote:
                if text[end] == "\n":
                    raise error("unterminated string constant")
                value_chars.append(text[end])
                end += 1
            if end >= length:
                raise error("unterminated string constant")
            tokens.append(Token(TokenKind.STRING, "".join(value_chars), line, column))
            column += end + 1 - index
            index = end + 1
            continue

        # Names, epsilon, and the word forms of "not".
        if character in _NAME_START or character in "ϵε":
            end = index
            if character in "ϵε":
                end = index + 1
            else:
                while end < length and text[end] in _NAME_CONT:
                    end += 1
            word = text[index:end]
            if word in _NOT_WORDS:
                tokens.append(Token(TokenKind.NOT, word, line, column))
            elif word in _EPSILON_WORDS:
                tokens.append(Token(TokenKind.EPSILON, word, line, column))
            else:
                tokens.append(Token(TokenKind.NAME, word, line, column))
            column += end - index
            index = end
            continue

        raise error(f"unexpected character {character!r}")

    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens
