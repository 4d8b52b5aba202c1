"""tools/code_lines.py, the code-line count each simplicity change reports."""

import importlib.util
from pathlib import Path

import jacograph

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring."""
import os

# a comment line


class Box:
    """Class docstring,
    on two lines."""

    size = 1


def call(a):
    """Function docstring."""
    "a string statement after the docstring"
    return os.path.join(
        a,
    )
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leaves_out_docstrings_comments_and_blanks():
    # import, class, size, def, the string statement and the three lines of the call
    assert load_tool().code_lines(SAMPLE) == 8


def test_code_lines_total_is_the_sum_of_its_files(capsys):
    assert load_tool().main(["code_lines.py", str(Path(jacograph.__file__).parent)]) == 0
    *files, total = capsys.readouterr().out.splitlines()
    assert total.split()[1] == "total"
    assert [line.split()[1] for line in files] == sorted(line.split()[1] for line in files)
    assert len(files) >= 8 and int(total.split()[0]) == sum(int(line.split()[0]) for line in files)
