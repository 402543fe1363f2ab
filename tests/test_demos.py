"""The demos run end to end, so a demo that uses a removed name fails here.

`05_catalog_report.py` is left out: it reruns the bundled catalog, which
`test_acceptance` already verifies.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_series_and_closed_forms.py",
    "02_gamma_quadrature_bounds.py",
    "03_transform_chain.py",
    "04_proof_steps.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
