import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs(capsys):
    # the documented API, read from README itself, so that the two cannot drift
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["roots"]
    assert namespace["verdict"].overall
    assert math.isfinite(float(capsys.readouterr().out))
