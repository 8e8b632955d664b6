import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "source_size.py"


def test_source_size_refuses_a_tree_without_the_package(tmp_path):
    # it used to count 0 lines there, and the settable values of whatever
    # diagocp the path imported
    for argv in ([str(tmp_path)], [str(SCRIPT.parents[1]), str(tmp_path)]):
        run = subprocess.run([sys.executable, str(SCRIPT), *argv],
                             capture_output=True, text=True)
        assert run.returncode == 2 and not run.stdout
        assert str(tmp_path / "src" / "diagocp") in run.stderr
