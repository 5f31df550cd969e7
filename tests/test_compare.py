"""tools/compare.py: its verdicts on fixed numbers, and one small run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.fixture(scope="module")
def compare():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import compare
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return compare


@pytest.mark.parametrize("parent, change, bound, better, outcome", [
    # 9 of 10 pairs won, medians 10 apart against a parent spread of 5.5
    ([100, 101, 102, 103, 104, 105, 106, 107, 108, 109],
     [90, 91, 92, 93, 94, 95, 96, 97, 98, 110], 0.25, "lower", "gain"),
    # 8 of 10 won: no gain, and inside the bound
    ([100, 101, 102, 103, 104, 105, 106, 107, 108, 109],
     [90, 91, 92, 93, 94, 95, 96, 97, 108, 110], 0.25, "lower", "within bound"),
    # every pair won, but by less than the parent's spread
    ([100, 110, 120, 130], [99, 109, 119, 129], 0.25, "lower", "within bound"),
    # 12% above the parent's median against a bound of 10%
    ([100, 100, 101, 101], [112, 113, 113, 114], 0.10, "lower", "worse"),
    # higher is better: every pair won by more than the spread, then lost by 30%
    ([10, 11, 10, 11], [20, 21, 20, 21], 0.25, "higher", "gain"),
    ([10, 11, 10, 11], [7, 7.7, 7, 7.7], 0.25, "higher", "worse"),
    # a parent spread of 40% of its median is wider than the 25% bound
    ([80, 120, 80, 120], [85, 115, 85, 115], 0.25, "lower", "unresolved"),
])
def test_verdict(compare, parent, change, bound, better, outcome):
    assert compare.verdict(parent, change, bound, better)["verdict"] == outcome


def test_verdict_counts_ties_for_neither_side(compare):
    v = compare.verdict([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.0, 5.0], 0.25)
    assert v["wins"] == {"change": 1, "parent": 1}
    assert v["median"] == {"parent": 2.5, "change": 2.25}
    assert v["difference"] == 0.0


def test_a_tree_against_itself(tmp_path):
    # its temporary directory is made in TMPDIR, and must be gone at exit
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare.py"), str(ROOT), str(ROOT),
         "--workload", "deep-profile", "--small", "--seconds", "1", "--pairs", "2"],
        capture_output=True, text=True, timeout=300, env={**os.environ, "TMPDIR": str(tmp_path)})
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("deep-profile: 2 pairs")
    for side in ("parent", "change"):
        assert any(line.startswith(f"  {side}: correct true, attempted ") for line in lines)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for spec in bench["end_to_end"]:
        assert sum(line.startswith(f"  {spec['name']} ") for line in lines) == 1, spec["name"]
    assert list(tmp_path.iterdir()) == []
