from code_lines import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import math


class Box:
    """Class docstring."""

    size = 2  # a trailing comment

    def area(self):
        """Method docstring."""

        return math.prod(
            (self.size,
             self.size),
        )


TEXT = """a string,
not a docstring"""
'''


def test_counts_code_lines_without_blanks_comments_or_docstrings():
    # import, class, size, def, the call's four lines, and the two lines of TEXT
    assert code_lines(SOURCE) == 10
