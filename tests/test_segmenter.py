import pytest
from hypothesis import given, settings

from eacs.corpus import tokenize_code
from eacs.errors import EmptySnippet
from eacs.segmenter import LANGUAGES, _java_fragments, segment

from .conftest import SOURCE_TEXT
from .oracles import java_fragments_reference, tokenize_code_reference


class TestJava:
    def test_semicolon_boundaries(self):
        snippet = segment("int a = 1; a++;", "java")
        assert [s.text for s in snippet.statements] == ["int a = 1;", "a++;"]

    def test_braces_are_boundaries(self):
        snippet = segment("void f() { x(); }", "java")
        assert [s.text for s in snippet.statements] == ["void f() {", "x();", "}"]

    def test_semicolon_inside_string_literal(self):
        snippet = segment('String s = "a;b"; t();', "java")
        assert [s.text for s in snippet.statements] == ['String s = "a;b";', "t();"]

    def test_semicolon_inside_comments(self):
        code = "// no; split\nint a = 1; /* nor; here */ int b = 2;"
        snippet = segment(code, "java")
        assert len(snippet.statements) == 2

    def test_char_literal_with_escape(self):
        snippet = segment("char c = '\\''; d();", "java")
        assert len(snippet.statements) == 2

    def test_block_comment_close_may_reuse_opening_star(self):
        snippet = segment("a = 1; /*/ b = 2; c = 3;", "java")
        assert [s.text for s in snippet.statements] == ["a = 1;", "/*/ b = 2;", "c = 3;"]

    @given(SOURCE_TEXT)
    @settings(max_examples=500, deadline=None)
    def test_scanner_matches_reference_walk(self, code):
        assert _java_fragments(code) == java_fragments_reference(code)

    def test_statement_count_bound_on_line_shaped_code(self):
        code = "int a = 1;\nint b = 2;\nif (a > b) {\n  a = b;\n}\n"
        snippet = segment(code, "java")
        lines = len(code.splitlines())
        assert len(snippet.statements) <= lines + code.count(";")


class TestPython:
    def test_bracket_continuation(self):
        snippet = segment("x = (1 +\n 2)\ny = 3", "python")
        assert len(snippet.statements) == 2

    def test_backslash_continuation(self):
        snippet = segment("x = 1 + \\\n 2\ny = 3", "python")
        assert len(snippet.statements) == 2

    def test_brackets_inside_strings_ignored(self):
        snippet = segment("s = '(['\nt = 2", "python")
        assert len(snippet.statements) == 2

    def test_plain_lines(self):
        snippet = segment("def f(a):\n    return a\n", "python")
        assert len(snippet.statements) == 2

    @pytest.mark.parametrize("comment", ["see (note", "see \\"])
    def test_comment_ends_the_line(self, comment):
        snippet = segment(f"x = 1  # {comment}\ny = 2\nz = 3", "python")
        assert [s.text for s in snippet.statements] == [f"x = 1  # {comment}", "y = 2", "z = 3"]

    def test_hash_inside_string_does_not_end_scan(self):
        snippet = segment("s = '#' + f(\n 1)\nt = 2", "python")
        assert [s.text for s in snippet.statements] == ["s = '#' + f(\n 1)", "t = 2"]


class TestGeneric:
    def test_physical_lines(self):
        snippet = segment("line one\n\nline two", "generic")
        assert len(snippet.statements) == 2

    def test_idempotent_on_own_output(self):
        code = "alpha\nbeta\ngamma"
        first = segment(code, "generic")
        again = segment("\n".join(s.text for s in first.statements), "generic")
        assert len(again.statements) == len(first.statements)


class TestContract:
    def test_empty_raises(self):
        with pytest.raises(EmptySnippet):
            segment("   ", "java")

    def test_positions_increase_and_tokens_match(self):
        # Statements come in source order, each with its own tokens.
        snippet = segment("int a = 1; a++;", "java")
        assert [s.text for s in snippet.statements] == ["int a = 1;", "a++;"]
        assert [s.tokens for s in snippet.statements] == [
            ("int", "a", "=", "1", ";"), ("a", "+", "+", ";")
        ]

    def test_deterministic(self):
        code = "public int f(int a) { return a; }"
        a = segment(code, "java")
        b = segment(code, "java")
        assert [s.text for s in a.statements] == [s.text for s in b.statements]

    @pytest.mark.parametrize("language", LANGUAGES)
    @given(code=SOURCE_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_full_tokens_are_statement_tokens_in_order(self, language, code):
        try:
            snippet = segment(code, language)
        except EmptySnippet:
            assert not tokenize_code_reference(code)
            return
        joined = tuple(t for s in snippet.statements for t in s.tokens)
        assert snippet.full_tokens == joined == tuple(tokenize_code_reference(code))
        assert [s.tokens for s in snippet.statements] == [
            tuple(tokenize_code(s.text)) for s in snippet.statements
        ]

    def test_unknown_language(self):
        with pytest.raises(ValueError):
            segment("x", "cobol")
