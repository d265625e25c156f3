"""Each script under demos/ runs to the end and prints its headline.

The demos call the library as a user would, from a fresh process, so a
renamed entry point or a changed report would otherwise go unnoticed
until someone ran them by hand.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_TIMEOUT_S = 60

# one line each demo prints when its computation comes out as expected
HEADLINES = {
    "numeric_checks.py": "  log-linear slope -20.19",
    "spectrum_from_product.py": "  -> matches the catalogued weak table",
    "wall_crossing_catalog.py":
        "== nf3, target (1, 1, 1, 1, 2), at most 5 vertices: AGREE ==",
}


def test_every_demo_has_a_headline():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(
        HEADLINES)


@pytest.mark.parametrize("demo", sorted(HEADLINES))
def test_demo_runs_and_prints_its_headline(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True,
                          timeout=DEMO_TIMEOUT_S,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert HEADLINES[demo] in proc.stdout.splitlines()
