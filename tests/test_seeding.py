"""Cells give the same numbers in any process.

``hash()`` of a ``str`` changes with ``PYTHONHASHSEED``, which Python
randomises per interpreter, so a seed derived from it makes a cell's
metrics depend on the process that ran it.  One cell of every kind is
run in two fresh interpreters with different hash seeds, and the
records' content must match.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import repro
from repro.campaign.fabric.chaos import _subprocess_env

SRC = Path(repro.__file__).resolve().parent

_CELLS = """
import json
from repro.campaign.runner import _cell_payload, execute_cell
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.campaign.store import CellRecord
from repro.experiments.scale import ExperimentScale
from repro.media.frames import FrameSpec

scale = ExperimentScale(
    sessions=1, lag_session_duration_s=4.0, qoe_session_duration_s=3.0,
    content_spec=FrameSpec(64, 48, 8), probe_count=2, score_frames=6,
)
kinds = ("lag", "qoe", "bandwidth", "mobile", "endpoints", "dynamics")
spec = CampaignSpec(
    name="hashseed", scale=scale,
    scenarios=[ScenarioSpec(kind, {"platform": ("meet",)}) for kind in kinds],
)
spec_hash = spec.spec_hash()
for cell in spec.expand():
    record = CellRecord.from_dict(
        execute_cell(_cell_payload(cell, spec, spec_hash))
    )
    print(json.dumps(record.content_key()))
"""


def test_cell_content_independent_of_hash_seed():
    runs = []
    for hash_seed in ("0", "1"):
        env = _subprocess_env()
        env["PYTHONHASHSEED"] = hash_seed
        runs.append(subprocess.Popen(
            [sys.executable, "-c", _CELLS], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    outputs = []
    for run in runs:
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, err
        outputs.append([json.loads(line) for line in out.splitlines()])
    first, second = outputs
    assert [key[1] for key in first] == [
        "lag", "qoe", "bandwidth", "mobile", "endpoints", "dynamics",
    ]
    assert all(key[4] == "ok" for key in first), first
    for a, b in zip(first, second):
        assert a == b, f"{a[0]} differs between PYTHONHASHSEED 0 and 1"


def test_src_makes_no_hash_call():
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                calls.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert calls == []
