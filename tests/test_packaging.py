"""The package metadata points only at code that exists, the README's
example runs as printed, and the private numpy names the code calls are
there."""
import importlib
import re
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
