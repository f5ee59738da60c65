"""The rules of ``tests/code_lines.py``, the code-line count of src/plaplab."""

import textwrap

from tests.code_lines import code_lines


def count(source: str) -> int:
    return code_lines(textwrap.dedent(source))


def test_blank_lines_and_comments_do_not_count():
    assert count("""
        # a comment

        x = 1  # a trailing comment
            # an indented comment
        y = 2
        """) == 2


def test_docstrings_do_not_count():
    assert count('''
        """Module docstring,
        over two lines."""


        class A:
            """Class docstring."""

            def f(self):
                """Function
                docstring."""
                return 1


        async def g():
            """Coroutine docstring."""
            return 2
        ''') == 5


def test_a_string_after_the_first_statement_counts():
    assert count('''
        def f():
            x = 1
            """not a docstring"""
            return x
        ''') == 4


def test_every_line_of_a_multiline_string_counts():
    assert count('''
        X = """one
        two

        four"""
        ''') == 4


def test_every_line_of_a_continued_statement_counts():
    # a blank line inside the brackets holds no token, so it does not count
    assert count("""
        total = (1 +
                 2 +

                 3)
        call(a,
             b)
        y = 1 + \\
            2
        """) == 7
