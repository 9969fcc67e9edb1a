"""README's examples run as documented and print what README says they print."""

import re
from pathlib import Path

from seqcover.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# The exact line the CI workflow greps from the worked example's stdout.
COVER_LINE = ('{"source_id": "s3.txt", "length": 16, "covering_size": 4, '
              '"segments": [[0, 4], [4, 8], [8, 12], [12, 16]], '
              '"similarity": "13/16", "similarity_decimal": "0.812500"}')


def test_cover_worked_example_prints_the_pinned_line(tmp_path, monkeypatch, capsys):
    inputs = re.findall(r"^printf '([^']*)' > (\S+)$", README, re.MULTILINE)
    assert [name for _, name in inputs] == ["model/s1.txt", "model/s2.txt", "s3.txt"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model").mkdir()
    for text, name in inputs:
        (tmp_path / name).write_text(text)
    assert main(["cover", "--model-dir", "model", "--trace", "s3.txt"]) == 0
    assert capsys.readouterr().out == COVER_LINE + "\n"


def test_library_example_prints_its_comment(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert expected, "the Library example documents its output as '# ' comment lines"
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
