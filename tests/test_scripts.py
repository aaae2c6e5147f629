import os
import subprocess
import sys
from pathlib import Path

import recolour

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_envelope_report_smoke():
    src = str(Path(recolour.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "envelope_report.py"), "--max-n", "5", "--pairs", "2"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.split() == [
        "n", "D", "|", "elim/n^2", "rounds/n", "perv/n", "walk/n^2", "walk/env", "dist/n^2",
    ]
    # connected non-regular graphs on n vertices exist for every D in 2..n-1
    buckets = [tuple(int(x) for x in row.split("|")[0].split()) for row in rows]
    assert buckets == [(n, d) for n in (4, 5) for d in range(2, n)]
