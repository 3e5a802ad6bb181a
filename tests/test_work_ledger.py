import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_work_ledger_is_byte_stable(tmp_path):
    """Two runs of the ledger script on its smallest set, each in a fresh process,
    write the same bytes, and the file holds no timing field."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outputs = []
    for run in range(2):
        out = tmp_path / f"ledger{run}.json"
        subprocess.run([sys.executable, str(ROOT / "tools" / "work_ledger.py"), "--sets", "cli",
                        "--output", str(out)], check=True, env=env, timeout=300)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    ledger = json.loads(outputs[0])
    assert list(ledger["sets"]) == ["cli"]
    rows = ledger["sets"]["cli"]["estimators"]
    assert sorted(rows) == ["dantzig", "lasso", "mle"]
    assert all(row["solves"] == 12 and row["iterations_sum"] > 0 for row in rows.values())

    def keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys(value)

    assert not any("time" in key or "seconds" in key for key in keys(ledger))
