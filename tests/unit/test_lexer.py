"""Unit tests for the ZQL lexer."""

import pytest

from repro.errors import QuerySyntaxError
from repro.lang.lexer import TokenKind, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop END


def texts(text):
    return [t.text for t in tokenize(text)][:-1]


class TestTokens:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SELECT select SeLeCt")
        assert all(t.is_keyword("select") for t in tokens[:-1])

    def test_identifiers(self):
        assert kinds("Employee e_1 _x") == [TokenKind.IDENT] * 3

    def test_numbers(self):
        tokens = tokenize("42 3.5")
        assert tokens[0].value == 42
        assert tokens[1].value == 3.5

    def test_string_double_and_single_quotes(self):
        assert tokenize('"Dallas"')[0].value == "Dallas"
        assert tokenize("'Dallas'")[0].value == "Dallas"

    def test_unterminated_string(self):
        with pytest.raises(QuerySyntaxError):
            tokenize('"Dallas')

    def test_two_char_symbols(self):
        assert texts("== != <= >= &&") == ["==", "!=", "<=", ">=", "&&"]

    def test_one_char_symbols(self):
        assert texts("( ) , . < > *") == ["(", ")", ",", ".", "<", ">", "*"]

    def test_path_not_float(self):
        # "e.age" must lex as IDENT DOT IDENT, not a number.
        assert kinds("e.age") == [TokenKind.IDENT, TokenKind.SYMBOL, TokenKind.IDENT]

    def test_unexpected_character(self):
        with pytest.raises(QuerySyntaxError):
            tokenize("a @ b")

    def test_end_token_always_present(self):
        assert tokenize("")[-1].kind is TokenKind.END

    def test_positions_recorded(self):
        tokens = tokenize("ab cd")
        assert tokens[0].position == 0
        assert tokens[1].position == 3

    def test_true_false_null_keywords(self):
        tokens = tokenize("true FALSE null")
        assert [t.text for t in tokens[:-1]] == ["true", "false", "null"]


class TestLexicalErrors:
    """Message and position of every lexical error, as the hand-written
    scanner reported them before the grammar became one regex."""

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ('SELECT "Dallas', "unterminated string literal", 7),
            ("c.name == 'it", "unterminated string literal", 10),
            ('"ok" "open', "unterminated string literal", 5),
            ("c.x # 3", "unexpected character '#'", 4),
            ("c.x & c.y", "unexpected character '&'", 4),
            ("  !", "unexpected character '!'", 2),
            ("c.x == $", "expected parameter name after '$'", 7),
            ("c.x == $1", "expected parameter name after '$'", 7),
            ("c.x == $ name", "expected parameter name after '$'", 7),
        ],
    )
    def test_message_and_position(self, text, message, position):
        with pytest.raises(QuerySyntaxError) as caught:
            tokenize(text)
        assert caught.value.position == position
        assert message in str(caught.value)

    def test_the_digest_pass_never_raises(self):
        from repro.lang.lexer import strip_literals

        digest, raws = strip_literals('SELECT "Dallas WHERE 1 # $')
        assert any('"' in piece for piece in digest)  # the stray quote stays
        assert raws == ["1"]

    def test_a_text_with_a_lexical_error_is_never_served_from_the_digest_memo(self):
        from repro.api import Database

        db = Database.sample(scale=0.02)
        good = 'SELECT * FROM City c IN Cities WHERE c.name == "x"'
        db.query(good)
        assert db.query(good).cache.outcome == "hit"
        for bad, position in (
            (good[:-1], len(good) - 3),  # the closing quote is missing
            (good.replace("==", "#="), good.index("==")),
            (good.replace('"x"', "$"), good.index('"x"')),
        ):
            with pytest.raises(QuerySyntaxError) as caught:
                db.query(bad)
            assert caught.value.position == position
