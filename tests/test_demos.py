"""Smoke tests of the narrative scripts in demos/, the README example and the exported names."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "hybrid_esn"


def run_script(path, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(tmp_path, demo):
    result = run_script(demo, tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "quick_start.py"
    script.write_text(code + "assert preds.shape == (10, 1000)\n")
    result = run_script(script, tmp_path)
    assert result.returncode == 0, result.stderr


def test_exported_names_resolve():
    # the package's own imports run here; a module's __all__ is checked by name
    package = importlib.import_module("hybrid_esn")
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    missing = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if not hasattr(package, alias.asname or alias.name)]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"hybrid_esn.{path.stem}")
            missing += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                        if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    imports = [node for node in ast.walk(ast.parse(demo.read_text()))
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "hybrid_esn"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{demo.name}: {node.module} has no {missing}"
