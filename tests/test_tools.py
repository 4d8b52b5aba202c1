"""The tools: code_lines.py, the code-line count each simplicity change reports, and mutants.py."""

import importlib.util
from pathlib import Path

import jacograph

TOOLS = Path(__file__).resolve().parents[1] / "tools"
TOOL = TOOLS / "code_lines.py"

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


def load_tool(path=TOOL):
    spec = importlib.util.spec_from_file_location(path.stem, path)
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


def test_every_mutation_changes_one_place_in_src():
    # the runner itself takes seconds and runs no test; this only keeps its
    # mutations pointed at the code they name
    sources = {path.name: path.read_text(encoding="utf-8") for path in Path(jacograph.__file__).parent.glob("*.py")}
    mutations = load_tool(TOOLS / "mutants.py").MUTATIONS
    assert len({name for name, *_ in mutations}) == len(mutations) == 6
    for name, file, text, replacement in mutations:
        assert text != replacement
        assert {f: source.count(text) for f, source in sources.items() if text in source} == {file: 1}, name
