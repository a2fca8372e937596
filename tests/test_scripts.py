import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/tight_families.py"],
        ["scripts/verify_bounds.py", "--trials", "5", "--seed", "1"],
        ["scripts/histogram_switch.py", "--n", "8", "--reps", "1", "--budgets", "32"],
        ["scripts/order_switch.py", "--n", "3", "4", "--reps", "1"],
        ["scripts/line_count.py"],
        ["scripts/parse_split.py", "--scale", "0.02", "--reps", "1"],
        # A checkout compared with itself gives the same output on every call.
        ["scripts/compare_outputs.py", ".", "--tiny", "--seeds", "0"],
        # The benchmark builds its instances through the package's public names.
        ["perfbench/smoke.py"],
    ],
)
def test_script_exits_zero(argv):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
