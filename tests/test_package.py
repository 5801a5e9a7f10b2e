"""Package-level checks: the README quick start runs, and importing the
command line pulls in no dependency beyond numpy."""

import re
import subprocess
import sys
from pathlib import Path

import hypflow

README = Path(__file__).resolve().parents[1] / "README.md"


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
