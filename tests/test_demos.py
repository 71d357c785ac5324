import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# each demo with exact lines of its output; the seeded ones pin f itself
_DEMO_LINES = {
    "clt_histogram": (
        "sample m2 = 1.0059 (want 1)  m4 = 3.0140 (want 3)",
        "complex model: mean |S/sqrt(N)|^2 = 1.0203 (want 1), mean = +0.0157+0.0004i",
    ),
    "fluctuation_scan": (
        "set invariants: all hold",
        "fraction of trials with studentized max > 1.665: 0.818",
    ),
    "pell_curves": ("  x= 665857  y= 470832   ratio vs previous: 5.828",),
    "moment_growth": (" 4000   3583   38616493   38506501 109992   0.00687",),
    "squarefree_density": ("   200000      178956   0.89478",),
    "smooth_and_largest": ("rows with log P+ / log n >= 1: 77203 of 99999 histogrammed",),
}


@pytest.mark.parametrize("demo", list(_DEMO_LINES))
def test_demo_runs(demo, src_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT, env=src_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in _DEMO_LINES[demo]:
        assert line in lines
