"""README states the file-format versions the code writes, and its library
Quickstart runs and prints what its comments say."""

import os
import re
import subprocess
import sys

import pytest

import phase_surrogate
from phase_surrogate import model, pipeline, simulator

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")
SRC = os.path.dirname(os.path.dirname(phase_surrogate.__file__))


@pytest.mark.parametrize("pattern,version", [
    (r"`world\.phw`, manifest version (\d+)", simulator.WORLD_VERSION),
    (r"`manifest\.json` \(version (\d+)", pipeline.DATASET_VERSION),
    (r"Model files are version (\d+)", model.MODEL_VERSION),
], ids=["world", "dataset", "model"])
def test_readme_states_the_file_format_version(pattern, version):
    with open(README, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    assert [int(v) for v in re.findall(pattern, text)] == [version]


def test_library_quickstart_prints_what_its_comments_say(tmp_path):
    # each print with a trailing comment must print that comment's text
    with open(README, encoding="utf-8") as fh:
        code = re.search(r"## Quickstart \(library\)\n\n```python\n(.*?)```",
                         fh.read(), re.S).group(1)
    promised = re.findall(r"^print\(.*\)  # (.*)$", code, re.M)
    assert promised
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    printed = out.stdout.splitlines()
    for line in promised:
        assert line in printed


def test_what_is_inside_names_every_module():
    # each list item of "What is inside" names its modules in parentheses
    with open(README, encoding="utf-8") as fh:
        section = re.search(r"## What is inside\n(.*?)\n## ", fh.read(),
                            re.S).group(1)
    named = re.findall(r"`(\w+\.py)`", " ".join(
        re.findall(r"^- `[^`]+` \(([^)]*)\)", section, re.M)))
    package = os.path.dirname(phase_surrogate.__file__)
    modules = {name for name in os.listdir(package) if name.endswith(".py")}
    assert sorted(set(named) - modules) == []
    assert sorted(modules - set(named)) == ["__init__.py", "errors.py"]
