"""README states the file-format versions the code writes."""

import os
import re

import pytest

from phase_surrogate import model, pipeline, simulator

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


@pytest.mark.parametrize("pattern,version", [
    (r"`world\.phw`, manifest version (\d+)", simulator.WORLD_VERSION),
    (r"`manifest\.json` \(version (\d+)", pipeline.DATASET_VERSION),
    (r"Model files are version (\d+)", model.MODEL_VERSION),
], ids=["world", "dataset", "model"])
def test_readme_states_the_file_format_version(pattern, version):
    with open(README, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    assert [int(v) for v in re.findall(pattern, text)] == [version]
