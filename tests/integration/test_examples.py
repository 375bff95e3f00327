"""Integration: the scripts under ``examples/`` still run.

Nothing else executes them, so an API change that breaks one would
otherwise go unnoticed.  Each example is loaded from its file and its
``main()`` is run in a temporary directory.
"""

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_resume_and_repository_example(tmp_path, capsys):
    _load("resume_and_repository").main(tmp_path)
    out = capsys.readouterr().out
    assert "resumed: skipped runs [0, 1], executed runs [2, 3, 4]" in out
    assert "#1: recovery-demo (5 runs)" in out
    assert "#2: recovery-demo-seed7 (5 runs)" in out
    assert ("sd_service_add events: "
            "{'recovery-demo': 5, 'recovery-demo-seed7': 5}") in out
    assert out.count("median t_R = ") == 2
