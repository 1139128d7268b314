"""Every demo script runs to completion and prints the bytes it printed when
its digest was recorded: the SHA-256 of its stdout is pinned below."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_intersection_graphs.py": "e52b9d18697033194bc81212d092f543a69413f08b87c7de9246e13f20ec8da9",
    "02_congestion_and_duality.py": "dd3b31f0c0e4512c2ca39f0384816522111b1409a3951007a11e8b54870cb6f8",
    "03_embedding_and_sweep.py": "03d5496c57b04796e7d1a4e4c37a3f9d73a124cc79450ece12af6565592312e0",
    "04_string_graph_separators.py": "0064a5576c475f374fbaf2c51a197bb6abb5bf1b9c235fa9b7b92ba14eb14e43",
    "05_exponential_crossings.py": "cbfb394bc18b50cfff0d82e193701cb94641186053bf4a8eab87c5adfd6af7b7",
    "06_conflict_experiment.py": "bc0331ee3e2b6b085ec9680cbf84ac0723e514bada104c168b248b2e20078893",
    "07_cuts_and_sparsity.py": "c83494eaa7cc77385c5e86c2ea6a1dfc29d1a2dd3eb6b5ab6d47a62e96304c10",
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_0(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.name]
