"""The package root: __version__ only, and imports that load no more than they need."""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _loaded_after(statement: str) -> list:
    """mvamp modules a fresh interpreter holds after running statement."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('mvamp'))))"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_root_import_loads_no_submodule():
    assert _loaded_after("import mvamp") == ["mvamp"]


def test_version_matches_pyproject():
    import mvamp

    with open(ROOT / "pyproject.toml", "rb") as f:
        assert mvamp.__version__ == tomllib.load(f)["project"]["version"]


def test_perfbench_setup_imports_skip_sampler_and_cli():
    loaded = _loaded_after("import mvamp.field, mvamp.harness")
    assert "mvamp.harness" in loaded
    assert "mvamp.sampler" not in loaded and "mvamp.cli" not in loaded, loaded
