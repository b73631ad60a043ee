"""Parse validation for single tokenized Java statements.

A statement is valid when it parses as a local statement of a method
body: local-variable declarations, restricted expression statements
(assignment, call, new, ++/--), return/throw/break/continue/assert,
and control-flow headers whose body may be elided or left open with a
trailing '{'; a try, catch or finally body is otherwise a block, a
complete switch body is case groups, and a for header's init and update
parts hold only a declaration or statement expressions.  super is no
value on its own, and a '.' takes no literal.  Lines that could only occur
outside a method body (member declarations, closing braces, case
labels) are rejected, as are constructs we deliberately do not model
(block-bodied lambdas, anonymous classes).  Rejection is the
conservative direction: invalid statements are dropped from the corpus.

Each piece of syntax is one rule of ``_Parser``: ``attempt`` is the only
backtracking (declaration or expression, foreach or classic for header,
lambda, cast), and ``comma_list``, ``parens``, ``dims``, ``class_type``
and ``left_open`` are the comma-separated list, parenthesized
expression, ``[ ]`` pairs, qualified generic type and elided or open
body that several statements and expressions share.
"""

from __future__ import annotations

import logging

from .tokenizer import TokenizedStatement, is_identifier, is_number

log = logging.getLogger(__name__)

PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double"}
)

# A line starting with one of these can only be a member/class declaration,
# never a statement inside a method body.
_MEMBER_ONLY_STARTS = frozenset(
    {"public", "private", "protected", "static", "abstract", "native",
     "class", "interface", "enum", "package", "import", "implements",
     "extends", "case", "default", "}"}
)

_ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="}
)

_STATEMENT_EXPR_KINDS = frozenset({"assign", "call", "incdec", "new"})

# Statements that open with a keyword of their own; ';' is the empty one.
_KEYWORD_STATEMENTS = frozenset(
    {";", "return", "throw", "break", "continue", "assert", "if", "while",
     "for", "switch", "do", "try", "synchronized"}
)


# Literals spelled like names: never a name after a '.'.
_LITERAL_WORDS = frozenset({"null", "true", "false"})


def _is_name(tok: str) -> bool:
    return is_identifier(tok) and tok not in _LITERAL_WORDS


class _Fail(Exception):
    pass


class _Parser:
    def __init__(self, tokens: tuple[str, ...]):
        self.toks = tokens
        self.i = 0

    # -- primitives ----------------------------------------------------

    def peek(self, k: int = 0) -> str | None:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else None

    def next(self) -> str:
        if self.i >= len(self.toks):
            raise _Fail("unexpected end")
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def accept(self, tok: str) -> bool:
        if self.peek() == tok:
            self.i += 1
            return True
        return False

    def expect(self, tok: str) -> None:
        if not self.accept(tok):
            raise _Fail(f"expected {tok!r} at {self.i}, got {self.peek()!r}")

    def at_end(self) -> bool:
        return self.i >= len(self.toks)

    def ident(self) -> str:
        tok = self.next()
        if not is_identifier(tok):
            raise _Fail(f"expected identifier, got {tok!r}")
        return tok

    def attempt(self, *rules) -> bool:
        """Run rules in order; if one fails, rewind to where they began
        and return False."""
        save = self.i
        try:
            for rule in rules:
                rule()
        except _Fail:
            self.i = save
            return False
        return True

    # -- shared fragments ----------------------------------------------

    def comma_list(self, rule) -> None:
        rule()
        while self.accept(","):
            rule()

    def parens(self) -> None:
        self.expect("(")
        self.expression()
        self.expect(")")

    def dims(self) -> None:
        while self.peek() == "[" and self.peek(1) == "]":
            self.i += 2

    def class_type(self) -> None:
        """Qualified name with optional type arguments."""
        self.ident()
        while self.peek() == "." and is_identifier(self.peek(1) or ""):
            self.i += 2
        if self.peek() == "<":
            self.type_arguments()

    def left_open(self) -> bool:
        """Consume a control body that is elided or a '{' left open at the
        end of the line."""
        if self.i >= len(self.toks) - 1 and self.peek() in (None, "{"):
            self.i = len(self.toks)
            return True
        return False

    # -- statements ----------------------------------------------------

    def statement(self) -> None:
        tok = self.peek()
        if tok is None:
            raise _Fail("empty statement")
        if tok == "{":
            self.block()
            return
        if tok in ("this", "super") and self.peek(1) == "(":
            self.next()
            self.call_arguments()
            self.expect(";")
            return
        if tok not in _KEYWORD_STATEMENTS:
            if not self.attempt(self.declaration):
                self.statement_expression()
                self.expect(";")
            return
        self.next()
        if tok == "return":
            if not self.accept(";"):
                self.expression()
                self.expect(";")
        elif tok == "throw":
            self.expression()
            self.expect(";")
        elif tok in ("break", "continue"):
            if is_identifier(self.peek() or ""):
                self.next()
            self.expect(";")
        elif tok == "assert":
            self.expression()
            if self.accept(":"):
                self.expression()
            self.expect(";")
        elif tok == "if":
            self.parens()
            self.tail()
            if self.accept("else"):
                self.tail()
        elif tok in ("while", "synchronized"):
            self.parens()
            self.tail()
        elif tok == "for":
            self.for_header_and_tail()
        elif tok == "switch":
            self.parens()
            self.switch_body()
        elif tok == "do":
            self.tail()
            if self.accept("while"):
                self.parens()
                self.expect(";")
        elif tok == "try":
            if self.accept("("):
                self.resource()
                while self.accept(";") and self.peek() != ")":
                    self.resource()
                self.expect(")")
            self.block_tail()
            while self.accept("catch"):
                self.expect("(")
                self.catch_param()
                self.expect(")")
                self.block_tail()
            if self.accept("finally"):
                self.block_tail()
        # the remaining keyword is ';', the empty statement

    def tail(self) -> None:
        """Body of a control statement: elided, an open '{' at end of
        line, a complete block, or a single embedded statement.  A body
        is elided only at the end of the line, so `if ( x ) else {`
        is rejected."""
        if not self.left_open():
            self.statement()

    def block_tail(self) -> None:
        """Body of try, catch or finally: elided, an open '{' at end of
        line, or a complete block."""
        if not self.left_open():
            self.block()

    def switch_body(self) -> None:
        """Elided, an open '{', or a complete body of case groups: labels
        ('case' expression ':' or 'default' ':'), each followed by
        statements."""
        if self.left_open():
            return
        self.expect("{")
        if self.peek() not in ("case", "default", "}"):
            raise _Fail(f"expected a switch label, got {self.peek()!r}")
        while not self.accept("}"):
            if self.accept("case"):
                self.ternary()
                self.expect(":")
            elif self.accept("default"):
                self.expect(":")
            else:
                self.statement()

    def block(self) -> None:
        self.expect("{")
        while not self.accept("}"):
            if self.at_end():
                raise _Fail("unterminated block")
            self.statement()

    def for_header_and_tail(self) -> None:
        self.expect("(")
        if self.attempt(self.foreach_header, self.tail):
            return
        # classic three-part header: a declaration or statement
        # expressions, a condition, statement expressions
        if not self.accept(";"):
            if not self.attempt(self.declaration_body):
                self.comma_list(self.statement_expression)
            self.expect(";")
        if not self.accept(";"):
            self.expression()
            self.expect(";")
        if not self.accept(")"):
            self.comma_list(self.statement_expression)
            self.expect(")")
        self.tail()

    def foreach_header(self) -> None:
        """[final] type ident : expression )"""
        self.accept("final")
        self.type_ref()
        self.ident()
        self.expect(":")
        self.expression()
        self.expect(")")

    def resource(self) -> None:
        self.accept("final")
        self.type_ref()
        self.ident()
        self.expect("=")
        self.expression()

    def catch_param(self) -> None:
        self.accept("final")
        self.type_ref()
        while self.accept("|"):
            self.type_ref()
        self.ident()

    def declaration(self) -> None:
        self.declaration_body()
        self.expect(";")

    def declaration_body(self) -> None:
        self.accept("final")
        self.type_ref()
        self.comma_list(self.declarator)

    def declarator(self) -> None:
        # a name: never one of the literals spelled like names
        if not _is_name(self.next()):
            raise _Fail("expected a variable name")
        self.dims()
        if self.accept("="):
            self.variable_initializer()

    def variable_initializer(self) -> None:
        if self.peek() == "{":
            self.array_initializer()
        else:
            self.expression()

    def array_initializer(self) -> None:
        self.expect("{")
        if self.accept("}"):
            return
        self.variable_initializer()
        while self.accept(","):
            if self.peek() == "}":
                break
            self.variable_initializer()
        self.expect("}")

    # -- types ---------------------------------------------------------

    def type_ref(self) -> None:
        if self.peek() in PRIMITIVE_TYPES:
            self.next()
        else:
            self.class_type()
        self.dims()

    def type_arguments(self) -> None:
        self.expect("<")
        if not self.accept(">"):  # '< >' is the diamond
            self.comma_list(self.type_argument)
            self.expect(">")

    def type_argument(self) -> None:
        if self.accept("?"):
            if self.peek() in ("extends", "super"):
                self.next()
                self.type_ref()
            return
        self.type_ref()

    # -- expressions ---------------------------------------------------

    def statement_expression(self) -> None:
        kind = self.expression()
        if kind not in _STATEMENT_EXPR_KINDS:
            raise _Fail(f"expression of kind {kind!r} is not a statement")

    def expression(self) -> str:
        """Parse an expression, returning its statement-expression kind:
        'assign', 'call', 'incdec', 'new', or 'other'."""
        if self.attempt(self.lambda_expr):
            return "other"
        kind = self.ternary()
        if self.peek() in _ASSIGN_OPS:
            self.next()
            self.expression()
            return "assign"
        return kind

    def lambda_expr(self) -> None:
        if self.accept("("):
            if not self.accept(")"):
                self.comma_list(self.ident)
                self.expect(")")
        else:
            self.ident()
        self.expect("->")
        if self.peek() == "{":
            raise _Fail("block-bodied lambda unsupported")
        self.expression()

    def ternary(self) -> str:
        kind = self.binary(0)
        if self.accept("?"):
            self.expression()
            self.expect(":")
            self.expression()
            return "other"
        return kind

    _BINARY_LEVELS = (
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">=", "instanceof"),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def binary(self, level: int) -> str:
        if level >= len(self._BINARY_LEVELS):
            return self.unary()
        kind = self.binary(level + 1)
        ops = self._BINARY_LEVELS[level]
        while self.peek() in ops:
            op = self.next()
            if op == "instanceof":
                self.type_ref()
            else:
                self.binary(level + 1)
            kind = "other"
        return kind

    def unary(self) -> str:
        tok = self.peek()
        if tok in ("!", "~", "+", "-", "++", "--"):
            self.next()
            self.unary()
            return "incdec" if tok in ("++", "--") else "other"
        if tok == "(" and self.attempt(self.cast, self.unary):
            return "other"
        return self.postfix()

    def cast(self) -> None:
        self.expect("(")
        primitive = self.peek() in PRIMITIVE_TYPES
        self.type_ref()
        self.expect(")")
        if not self._starts_operand(self.peek(), signed=primitive):
            raise _Fail("not a cast")

    @staticmethod
    def _starts_operand(tok: str | None, signed: bool) -> bool:
        """Whether tok can begin a cast's operand.  A sign or ++/-- counts
        only after a primitive type, to keep '( a ) + b' a grouping."""
        return tok is not None and (
            is_identifier(tok) or is_number(tok) or tok[0] in "\"'"
            or tok in ("(", "!", "~", "new", "this", "super")
            or (signed and tok in ("+", "-", "++", "--"))
        )

    def postfix(self) -> str:
        kind = self.primary()
        while True:
            tok = self.peek()
            if tok == "." and self.peek(1) is not None and (
                _is_name(self.peek(1))
                or self.peek(1) in ("this", "class", "new", "super")
            ):
                self.next()
                member = self.next()
                if member == "super":
                    self._super_selector()
                    kind = "other"
                elif member == "new":
                    self.ident()
                    self.call_arguments()
                    kind = "new"
                elif self.peek() == "(":
                    self.call_arguments()
                    kind = "call"
                else:
                    kind = "other"
            elif tok == "(" and kind in ("other", "call"):
                # calling a non-name expression is not Java, but a bare
                # identifier primary lands here as a plain call
                raise _Fail("cannot call this expression")
            elif tok == "[":
                self.next()
                self.expression()
                self.expect("]")
                kind = "other"
            elif tok in ("++", "--"):
                self.next()
                return "incdec"
            elif tok == "::":
                self.next()
                if not self.accept("new"):
                    self.ident()
                kind = "other"
            else:
                return kind

    def primary(self) -> str:
        tok = self.peek()
        if tok is None:
            raise _Fail("expected expression")
        if tok == "(":
            self.parens()
            return "other"
        if tok == "new":
            self.next()
            return self.creator()
        self.next()
        if is_identifier(tok):
            if self.peek() == "(":
                self.call_arguments()
                return "call"
            return "other"
        if tok in PRIMITIVE_TYPES or tok == "void":
            # class literal: int [ ] . class, void . class
            if tok != "void":
                self.dims()
            self.expect(".")
            self.expect("class")
            return "other"
        if tok == "super":
            self._super_selector()
        elif not (is_number(tok) or tok[0] in "\"'" or tok == "this"):
            raise _Fail(f"unexpected token {tok!r}")
        return "other"

    def _super_selector(self) -> None:
        """super, alone or after a qualifying name, is no value: only a
        member access or a method reference follows it."""
        if self.peek() not in (".", "::"):
            raise _Fail("super is not an expression")

    def creator(self) -> str:
        if self.peek() in PRIMITIVE_TYPES:
            self.next()
        else:
            self.class_type()
        if self.peek() == "(":
            self.call_arguments()
            if self.peek() == "{":
                raise _Fail("anonymous class unsupported")
            return "new"
        if self.peek() != "[":
            raise _Fail("malformed creator")
        if self.toks[self.i - 2 : self.i] == ("<", ">"):
            raise _Fail("cannot create array with '<>'")
        saw_dim = False
        while self.accept("["):
            if not self.accept("]"):
                self.expression()
                self.expect("]")
                saw_dim = True
        if self.peek() == "{":
            self.array_initializer()
        elif not saw_dim:
            raise _Fail("array creation needs a dimension or initializer")
        return "new"

    def call_arguments(self) -> None:
        self.expect("(")
        if not self.accept(")"):
            self.comma_list(self.expression)
            self.expect(")")


def validate_statement(stmt: TokenizedStatement) -> bool:
    tokens = stmt.tokens
    if not tokens:
        return False
    if tokens[0] in _MEMBER_ONLY_STARTS:
        return False
    if all(t in ("{", "}") for t in tokens):
        return False
    parser = _Parser(tokens)
    try:
        parser.statement()
        if not parser.at_end():
            raise _Fail(f"trailing tokens from {parser.i}")
        return True
    except _Fail as exc:
        log.debug("reject %r: %s", stmt.serialized(), exc)
        return False
