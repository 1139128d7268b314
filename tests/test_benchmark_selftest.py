"""The benchmark's own self-test, run as a script.

perfbench/selftest.py runs every workload at toy size, untraced and traced,
and fails when a span it expects (say metrics.shortest_path_metric or
embedding.best_embedding on the separator path) never fires, when a metric
is missing, or when planted bad outputs are not counted as failures.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
