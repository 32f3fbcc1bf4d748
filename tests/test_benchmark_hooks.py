"""The benchmark in ``perfbench/`` still runs against this source tree.

``perfbench/run.py`` drives ``multirank.cli.main`` in process and traces
it by rebinding module globals (``profile.flatten``,
``profile.rank_dispatch``, ``rank.exact_rank``, ``rank.rank_mod_gaussian``
and others).  A change that renames one of them, or prints to stdout
outside the report, leaves a result line that is not a measurement.
Each run here works on a copy of the tree, so its output files stay out
of the checkout.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_reference_workload_gives_a_strict_result_line(tmp_path, trace):
    for name in ("src", "states", "perfbench"):
        shutil.copytree(REPO / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference",
         "--seconds", "0.3", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    # NaN and Infinity are refused here, null by the type checks below
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["failed"]) == (True, 0)
    assert type(result["attempted"]) is int and result["attempted"] > 0
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), name
