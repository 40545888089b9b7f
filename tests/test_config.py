"""The shipped run configs load under the config checks."""

import re
from pathlib import Path

from convmkit.config import load_config

ROOT = Path(__file__).resolve().parent.parent


def test_shipped_run_config_loads():
    cfg = load_config(ROOT / "configs" / "run.yaml")
    assert cfg.mode == "da" and cfg.network == "tiny"
    cfg.resolve_spec()


def test_readme_yaml_example_loads(tmp_path):
    blocks = re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "README has no yaml example"
    for i, block in enumerate(blocks):
        p = tmp_path / f"example{i}.yaml"
        p.write_text(block)
        load_config(p).resolve_spec()
