"""Package-level checks: the README quick start and command line examples
run as printed, and importing the command line pulls in no dependency beyond
numpy."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hypflow
from hypflow.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_examples():
    """(argv, expected stdout) for each ```sh hypflow ...``` block of the
    README and the ```text``` block that follows it."""
    text = README.read_text()
    pattern = r"```sh\n(hypflow .*?)```\s*```text\n(.*?)```"
    return [(shlex.split(command.replace("\\\n", " "))[1:], expected)
            for command, expected in re.findall(pattern, text, re.S)]


CLI_EXAMPLES = _readme_cli_examples()


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S)
    # pad with the lines above the block so tracebacks name README lines
    source = "\n" * text[: block.start(1)].count("\n") + block.group(1)
    exec(compile(source, str(README), "exec"), {})
    assert "Converged" in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    src = str(Path(hypflow.__file__).resolve().parents[1])
    code = ("import sys; import hypflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_readme_has_every_cli_example():
    assert [argv[0] for argv, _ in CLI_EXAMPLES] == ["validate", "flow", "solve", "compare"]


@pytest.mark.parametrize("argv, expected", CLI_EXAMPLES, ids=[a[0] for a, _ in CLI_EXAMPLES])
def test_readme_cli_example_output(argv, expected, tmp_path, monkeypatch, capsys):
    mesh = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    (tmp_path / "pants.json").write_text(mesh)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
