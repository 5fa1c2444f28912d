"""The package's public names and import cost."""

import os
import subprocess
import sys

import iterauction as ia


def test_every_public_name_resolves():
    assert len(set(ia.__all__)) == len(ia.__all__)
    assert [name for name in ia.__all__ if not hasattr(ia, name)] == []


def test_import_loads_no_scipy():
    # scipy.optimize alone takes about 0.6 s to import, so only the MILP and
    # statistics paths that need it may load it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys, iterauction; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
