"""The code-line counter behind the figures in ROADMAP.md and CHANGES.md."""

import importlib.util

from conftest import ROOT

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment does not hide the code


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Function docstring.

        Still the docstring.
        """
        text = """a string
that is not a docstring"""
        return (
            text,
            os.sep,
        )


async def g():
    """Async docstring."""
    return 2
'''


def _load_counter():
    path = ROOT / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_no_blank_comment_or_docstring_line():
    counter = _load_counter()
    # import, class, x, def f, the two lines of text, return ( ... ) over
    # four lines, async def, return 2
    assert counter.count_source(FIXTURE) == 12


def test_totals_a_directory(tmp_path, capsys):
    counter = _load_counter()
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert counter.main([str(tmp_path / "pkg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split() == ["12", "total"]
    assert [line.split()[0] for line in out[:-1]] == ["12", "0"]
