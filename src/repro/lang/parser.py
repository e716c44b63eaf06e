"""Recursive-descent parser for the ZQL dialect.

Grammar (keywords case-insensitive; ``()`` after a path component is the
C++ accessor syntax of ZQL[C++] and is accepted and ignored):

.. code-block:: text

    statement  := set_query | insert | update | delete
    insert     := INSERT INTO ident '(' ident (',' ident)* ')'
                  VALUES tuple (',' tuple)*
    tuple      := '(' value (',' value)* ')'
    value      := NUMBER | STRING | TRUE | FALSE | NULL | '$' ident
    update     := UPDATE range SET assignment (',' assignment)*
                  [WHERE condition (('&&' | AND) condition)*]
    assignment := ident '.' ident '=' operand
    delete     := DELETE range [WHERE condition (('&&' | AND) condition)*]
    set_query  := query ((UNION | INTERSECT | EXCEPT) query)*
    query      := SELECT [DISTINCT] select_list FROM range (',' range)*
                  [WHERE condition (('&&' | AND) condition)*]
    select_list := '*' | item (',' item)*
    item       := path [AS ident] | ident '(' path (',' path)* ')'
    range      := [ident] ident IN source
    source     := path            -- bare name = collection, dotted = set path
    condition  := comparison | EXISTS '(' set_query ')' | '(' condition ')'
    comparison := operand ('=='|'!='|'<'|'<='|'>'|'>=') operand
    operand    := path | NUMBER | STRING | TRUE | FALSE | '$' ident
    path       := ident ['()'] ('.' ident ['()'])*
"""

from __future__ import annotations

from typing import Union

from repro.errors import QuerySyntaxError
from repro.lang.ast import (
    AggregateAst,
    AssignmentAst,
    ComparisonAst,
    Condition,
    ConstAst,
    DeleteAst,
    DmlAst,
    ExistsAst,
    InsertAst,
    Operand,
    OrderByAst,
    ParamAst,
    PathAst,
    QueryAst,
    RangeAst,
    SelectItemAst,
    SetQueryAst,
    UpdateAst,
)
from repro.lang.lexer import Token, TokenKind, tokenize

_COMPARISON_OPS = ("==", "!=", "<=", ">=", "<", ">")


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.END:
            self._pos += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise QuerySyntaxError(f"expected {word.upper()!r}", token.position)
        return self._advance()

    def _expect_symbol(self, sym: str) -> Token:
        token = self._peek()
        if not token.is_symbol(sym):
            raise QuerySyntaxError(f"expected {sym!r}", token.position)
        return self._advance()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise QuerySyntaxError("expected identifier", token.position)
        return self._advance()

    def _accept_symbol(self, sym: str) -> bool:
        if self._peek().is_symbol(sym):
            self._advance()
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    # -- grammar productions --------------------------------------------

    def parse_set_query(self) -> Union[QueryAst, SetQueryAst]:
        left: Union[QueryAst, SetQueryAst] = self.parse_query()
        while True:
            token = self._peek()
            if token.kind is TokenKind.KEYWORD and token.text in (
                "union",
                "intersect",
                "except",
            ):
                self._advance()
                right = self.parse_query()
                left = SetQueryAst(token.text, left, right)
            else:
                return left

    def parse_query(self) -> QueryAst:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        items = self._parse_select_list()
        self._expect_keyword("from")
        ranges = [self._parse_range()]
        while self._accept_symbol(","):
            ranges.append(self._parse_range())
        where: tuple[Condition, ...] = ()
        if self._accept_keyword("where"):
            where = tuple(self._parse_condition_list())
        group_by: tuple[PathAst, ...] = ()
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            paths = [self._parse_path()]
            while self._accept_symbol(","):
                paths.append(self._parse_path())
            group_by = tuple(paths)
        having: tuple[ComparisonAst, ...] = ()
        if self._accept_keyword("having"):
            clauses = [self._parse_comparison()]
            while self._peek().is_symbol("&&") or self._peek().is_keyword("and"):
                self._advance()
                clauses.append(self._parse_comparison())
            having = tuple(clauses)
        order_by = None
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            path = self._parse_path()
            ascending = True
            if self._accept_keyword("desc"):
                ascending = False
            else:
                self._accept_keyword("asc")
            order_by = OrderByAst(path, ascending)
        return QueryAst(
            tuple(items), tuple(ranges), where, distinct, order_by, group_by, having
        )

    _AGGREGATES = ("count", "sum", "avg", "min", "max")

    def _parse_select_list(self) -> list:
        if self._accept_symbol("*"):
            return []
        # Constructor call form: Newobject(e.name(), d.name()) — but an
        # aggregate name followed by '(' is an aggregate, not a constructor.
        token = self._peek()
        if (
            token.kind is TokenKind.IDENT
            and token.text.lower() not in self._AGGREGATES
            and self._tokens[self._pos + 1].is_symbol("(")
            and not self._tokens[self._pos + 2].is_symbol(")")
        ):
            self._advance()  # constructor name
            self._expect_symbol("(")
            items = [self._parse_select_item()]
            while self._accept_symbol(","):
                items.append(self._parse_select_item())
            self._expect_symbol(")")
            return items
        items = [self._parse_select_item()]
        while self._peek().is_symbol(","):
            # Lookahead: a comma might separate FROM ranges; here we are
            # still before FROM, so it always continues the select list.
            self._advance()
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self):
        token = self._peek()
        if (
            token.kind is TokenKind.IDENT
            and token.text.lower() in self._AGGREGATES
            and self._tokens[self._pos + 1].is_symbol("(")
            and not self._tokens[self._pos + 2].is_symbol(")")
        ):
            func = self._advance().text.lower()
            self._expect_symbol("(")
            if self._accept_symbol("*"):
                path = None
                if func != "count":
                    raise QuerySyntaxError(
                        f"{func}(*) is not meaningful; only COUNT(*)",
                        token.position,
                    )
            else:
                path = self._parse_path()
            self._expect_symbol(")")
            alias = None
            if self._accept_keyword("as"):
                alias = self._expect_ident().text
            return AggregateAst(func, path, alias)
        path = self._parse_path()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident().text
        return SelectItemAst(path, alias)

    # -- DML productions ------------------------------------------------

    def parse_insert(self) -> InsertAst:
        """``INSERT INTO collection (cols) VALUES (...)[, (...)]``."""
        self._expect_keyword("insert")
        self._expect_keyword("into")
        target = self._parse_path()
        if not target.is_bare_var:
            raise QuerySyntaxError(
                "INSERT target must be a collection name", self._peek().position
            )
        self._expect_symbol("(")
        columns = [self._expect_ident().text]
        while self._accept_symbol(","):
            columns.append(self._expect_ident().text)
        self._expect_symbol(")")
        self._expect_keyword("values")
        rows = [self._parse_value_tuple()]
        while self._accept_symbol(","):
            rows.append(self._parse_value_tuple())
        return InsertAst(target.root, tuple(columns), tuple(rows))

    def _parse_value_tuple(self) -> tuple[Operand, ...]:
        self._expect_symbol("(")
        values = [self._parse_value()]
        while self._accept_symbol(","):
            values.append(self._parse_value())
        self._expect_symbol(")")
        return tuple(values)

    def _parse_value(self) -> Operand:
        token = self._peek()
        if token.kind in (TokenKind.NUMBER, TokenKind.STRING):
            self._advance()
            return ConstAst(token.value, position=token.position)
        if token.kind is TokenKind.PARAM:
            self._advance()
            return ParamAst(token.text)
        if token.is_keyword("true") or token.is_keyword("false"):
            self._advance()
            return ConstAst(token.text == "true")
        if token.is_keyword("null"):
            self._advance()
            return ConstAst(None)
        raise QuerySyntaxError(
            "expected a literal value or $param", token.position
        )

    def parse_update(self) -> UpdateAst:
        """``UPDATE [Type] var IN source SET a.x = v, ... [WHERE ...]``."""
        self._expect_keyword("update")
        range_ = self._parse_range()
        self._expect_keyword("set")
        assignments = [self._parse_assignment()]
        while self._accept_symbol(","):
            assignments.append(self._parse_assignment())
        where: tuple[Condition, ...] = ()
        if self._accept_keyword("where"):
            where = tuple(self._parse_condition_list())
        return UpdateAst(range_, tuple(assignments), where)

    def _parse_assignment(self) -> AssignmentAst:
        start = self._peek().position
        target = self._parse_path()
        if len(target.links) != 1:
            raise QuerySyntaxError(
                "assignment target must be var.attribute", start
            )
        token = self._peek()
        if token.is_symbol("=") or token.is_symbol("=="):
            self._advance()
        else:
            raise QuerySyntaxError("expected '=' in assignment", token.position)
        return AssignmentAst(target, self._parse_operand())

    def parse_delete(self) -> DeleteAst:
        """``DELETE [Type] var IN source [WHERE ...]``."""
        self._expect_keyword("delete")
        range_ = self._parse_range()
        where: tuple[Condition, ...] = ()
        if self._accept_keyword("where"):
            where = tuple(self._parse_condition_list())
        return DeleteAst(range_, where)

    def _parse_range(self) -> RangeAst:
        first = self._expect_ident()
        if self._peek().kind is TokenKind.IDENT:
            type_name = first.text
            var = self._expect_ident().text
        else:
            type_name = None
            var = first.text
        self._expect_keyword("in")
        source_path = self._parse_path()
        source: Union[str, PathAst]
        source = source_path.root if source_path.is_bare_var else source_path
        return RangeAst(var, source, type_name)

    def _parse_condition_list(self) -> list[Condition]:
        conditions = [self._parse_condition()]
        while True:
            token = self._peek()
            if token.is_symbol("&&") or token.is_keyword("and"):
                self._advance()
                conditions.append(self._parse_condition())
            else:
                return conditions

    def _parse_condition(self) -> Condition:
        token = self._peek()
        negated = False
        if token.is_keyword("not"):
            self._advance()
            negated = True
            token = self._peek()
            if not token.is_keyword("exists"):
                raise QuerySyntaxError(
                    "NOT is supported only as NOT EXISTS", token.position
                )
        if token.is_keyword("exists"):
            self._advance()
            self._expect_symbol("(")
            subquery = self.parse_query()
            self._expect_symbol(")")
            return ExistsAst(subquery, negated)
        if token.is_symbol("("):
            self._advance()
            inner = self._parse_condition()
            self._expect_symbol(")")
            return inner
        return self._parse_comparison()

    def _parse_comparison(self) -> ComparisonAst:
        left = self._parse_operand()
        token = self._peek()
        if token.kind is not TokenKind.SYMBOL or token.text not in _COMPARISON_OPS:
            raise QuerySyntaxError("expected comparison operator", token.position)
        self._advance()
        right = self._parse_operand()
        return ComparisonAst(left, token.text, right)

    def _parse_operand(self) -> Operand:
        token = self._peek()
        if token.kind is TokenKind.NUMBER or token.kind is TokenKind.STRING:
            self._advance()
            return ConstAst(token.value, position=token.position)
        if token.kind is TokenKind.PARAM:
            self._advance()
            return ParamAst(token.text)
        if token.is_keyword("true") or token.is_keyword("false"):
            self._advance()
            return ConstAst(token.text == "true")
        if token.is_keyword("null"):
            self._advance()
            return ConstAst(None)
        return self._parse_path()

    def _parse_path(self) -> PathAst:
        root = self._expect_ident().text
        if (
            root == "extent"
            and self._peek().is_symbol("(")
            and self._tokens[self._pos + 1].kind is TokenKind.IDENT
            and self._tokens[self._pos + 2].is_symbol(")")
        ):
            # extent(TypeName) — the canonical name of a type extent.
            self._advance()
            inner = self._expect_ident().text
            self._advance()
            root = f"extent({inner})"
        self._accept_call_parens()
        links: list[str] = []
        while self._peek().is_symbol("."):
            self._advance()
            links.append(self._expect_ident().text)
            self._accept_call_parens()
        return PathAst(root, tuple(links))

    def _accept_call_parens(self) -> None:
        """Swallow a C++-style ``()`` accessor suffix."""
        if (
            self._peek().is_symbol("(")
            and self._tokens[self._pos + 1].is_symbol(")")
        ):
            self._advance()
            self._advance()

    def finish(self) -> None:
        token = self._peek()
        if token.kind is not TokenKind.END and not token.is_symbol(";"):
            raise QuerySyntaxError(
                f"unexpected trailing input {token.text!r}", token.position
            )


def parse_query(text: str) -> Union[QueryAst, SetQueryAst]:
    """Parse a ZQL query (possibly a UNION/INTERSECT/EXCEPT chain)."""
    parser = _Parser(tokenize(text))
    result = parser.parse_set_query()
    parser.finish()
    return result


def parse_statement(text: str) -> Union[QueryAst, SetQueryAst, DmlAst]:
    """Parse any ZQL statement: a query or an INSERT/UPDATE/DELETE."""
    parser = _Parser(tokenize(text))
    first = parser._peek()
    if first.is_keyword("insert"):
        result: Union[QueryAst, SetQueryAst, DmlAst] = parser.parse_insert()
    elif first.is_keyword("update"):
        result = parser.parse_update()
    elif first.is_keyword("delete"):
        result = parser.parse_delete()
    else:
        result = parser.parse_set_query()
    parser.finish()
    return result


__all__ = ["parse_query", "parse_statement"]
