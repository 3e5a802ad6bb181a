"""Every function the benchmark's traced run wraps must exist in the program.

`perfbench/spans.py` looks up each (owner, attribute) when it installs its
spans, so a renamed or deleted name would crash the traced run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans


def test_every_traced_target_resolves():
    missing = [f"{owner.__name__}.{attr}" for _, owner, attr, _ in spans.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert not missing
