"""The six demos print exactly what they printed when their output was pinned.

Each demo runs in a fresh interpreter with this checkout's ``src`` first on
the import path; its standard output is compared by sha256.  A change that
alters any printed value, witness or trace line of a demo fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "01_gadget_discrepancy.py": "9a8a7454c5bffbd0d3cacc5d88ed1ab6b37dcc10eb687bf29271ffa24229c832",
    "02_fourier_and_vazirani.py": "f8ba5294264cb695ee0139348e7dd98226d23b9aa794ed7fa9bf1a79cdc5111a",
    "03_density_restoring.py": "473120da5676b1d8bb2424856d11534b610e1c3a8ed42b24a0dcf65076f5fe0e",
    "04_dangerous_values.py": "eb9682b0b867ffe9ca508c1e71ae9fc74298db592f90d49508468f34a862ff97",
    "05_deterministic_lifting.py": "31881f7abad3b89fb81cb94021fa2419535a03f687c62036ad4c145a89f29a97",
    "06_randomized_lifting.py": "717b11aa3fd3384146b15630bd2e4366cde5fcd55cbe19fc6940581a5012962f",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_digest(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
