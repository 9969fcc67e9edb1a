"""README's examples run as documented and print what README says they print."""

import os
import re
import subprocess
import sys
from pathlib import Path

import seqcover

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_cover_worked_example_prints_the_pinned_line(tmp_path):
    """The worked example's inputs and command, run as ``python -m seqcover``,
    print the line its ``# `` comment lines show."""
    (block,) = (block for block in re.findall(r"^```sh\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
                if "\nseqcover cover " in block)
    inputs = re.findall(r"^printf '([^']*)' > (\S+)$", block, re.MULTILINE)
    assert [name for _, name in inputs] == ["model/s1.txt", "model/s2.txt", "s3.txt"]
    (tmp_path / "model").mkdir()
    for text, name in inputs:
        (tmp_path / name).write_text(text)
    (command,) = re.findall(r"^seqcover (cover .*)$", block, re.MULTILINE)
    expected = "".join(line[2:] for line in block.splitlines() if line.startswith("# "))
    src = str(Path(seqcover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "seqcover", *command.split()], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected + "\n", "")


def test_library_example_prints_its_comment(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert expected, "the Library example documents its output as '# ' comment lines"
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
