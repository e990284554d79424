"""Start-up: what `import fareysum.cli` loads into a fresh interpreter.

Every `fareysum` process pays for this import, and most never start a
process pool or write JSON, so those modules load only where they run:
the pool's `pickle` on its first pooled call, and `concurrent.futures`
and `multiprocessing` never.  The record types are NamedTuples, so
`dataclasses` (which loads `inspect`) never loads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LEFT_OUT = ("concurrent.futures", "multiprocessing", "pickle", "json", "csv", "dataclasses", "inspect")

# repr, not json, so that the probe itself loads nothing it measures
PROBE = """
import sys
bare = set(sys.modules)
import fareysum.cli
print(repr(sorted(set(sys.modules) - bare)))
"""


def test_cli_import_leaves_out_the_pool_json_and_csv():
    # compared with the bare interpreter, since site may preload modules
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    added = ast.literal_eval(done.stdout.strip().splitlines()[-1])
    assert "fareysum.cli" in added and "fareysum.pool" in added
    assert [name for name in added
            if any(name == m or name.startswith(m + ".") for m in LEFT_OUT)] == []
