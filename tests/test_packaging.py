"""The package metadata points only at code that exists, the README's
example runs as printed, the private numpy names the code calls are there,
and the pytest configuration reports a failing property test."""
import importlib
import re
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
README = ROOT / "README.md"


def test_every_console_script_imports():
    meta = tomllib.loads(PYPROJECT.read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    rewards = capsys.readouterr().out
    assert rewards.startswith("[") and rewards.rstrip().endswith("]")


def test_bare_lapack_gufuncs_exist():
    # the ZF stage of ``risnoma.linklayer`` calls the gufuncs behind
    # np.linalg.eigvalsh and np.linalg.inv directly; a numpy release that
    # moves or reshapes these private names fails here, not mid-run
    from numpy.linalg import _umath_linalg
    for gufunc, signature in ((_umath_linalg.eigvalsh_lo, "(m,m)->(m)"),
                              (_umath_linalg.inv, "(m,m)->(m,m)")):
        assert isinstance(gufunc, np.ufunc)
        assert gufunc.signature.replace(" ", "") == signature


FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10
'''


def test_failing_property_reports_its_example(tmp_path):
    # on a failure hypothesis imports libcst to suggest a patch; under the
    # repo's ``filterwarnings = error`` a deprecation warning raised by that
    # import must not abort the test run before the example is shown
    shutil.copy(ROOT / "pytest.ini", tmp_path)
    (tmp_path / "test_throwaway.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "test_throwaway.py"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
