"""The README's library quick start runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_source():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs():
    namespace = {}
    # The block passes a tau below the theoretical minimum and says so.
    with pytest.warns(UserWarning, match="below the theoretical minimum"):
        exec(compile(quick_start_source(), str(README), "exec"), namespace)
    assert namespace["result"].r_hat in list(namespace["radius_grid"](1.0, 0.5, 200))
