"""tools/compare.py: its verdicts on fixed numbers, and one small run."""

import argparse
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


def test_a_side_is_a_directory_or_a_revision(compare, tmp_path):
    # a repository of its own, so the test needs no history of this checkout
    repo = tmp_path / "repo"
    (repo / "src" / "mktinfo").mkdir(parents=True)
    (repo / "src" / "mktinfo" / "__init__.py").write_text("first = True\n")
    (repo / "README.md").write_text("not copied\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "first"], check=True)
    (repo / "src" / "mktinfo" / "__init__.py").write_text("first = False\n")

    compare.copy_src("HEAD", str(tmp_path / "rev"), str(repo))
    assert sorted(p.name for p in (tmp_path / "rev").iterdir()) == ["src"]
    assert (tmp_path / "rev" / "src" / "mktinfo" / "__init__.py").read_text() == "first = True\n"
    compare.copy_src(str(repo), str(tmp_path / "dir"), str(repo))
    assert (tmp_path / "dir" / "src" / "mktinfo" / "__init__.py").read_text() == "first = False\n"
    for tree in ("no-such-revision", str(tmp_path / "rev" / "src")):
        with pytest.raises(ValueError, match="no src/mktinfo|neither a directory nor a revision"):
            compare.copy_src(tree, str(tmp_path / "bad"), str(repo))


def test_each_run_has_an_empty_parse_cache_of_its_own(compare, tmp_path, monkeypatch):
    # a stand-in for perfbench/run.py that reports the cache directory it
    # was given and what it held, and leaves an entry there
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(
        "import json, os\n"
        "cache = os.environ['XDG_CACHE_HOME']\n"
        "held = os.listdir(cache)\n"
        "open(os.path.join(cache, 'entry'), 'w').close()\n"
        "print(json.dumps({'cache': cache, 'held': held}))\n")
    monkeypatch.setattr(compare, "CHECKOUT", str(checkout))
    side = tmp_path / "side"
    side.mkdir()
    args = argparse.Namespace(seconds=1.0, small=True)
    first, second = (compare.run(str(side), "four-panel", seed, args) for seed in (0, 1))
    assert first["held"] == second["held"] == []
    assert first["cache"] != second["cache"]
    assert all(Path(r["cache"]).parent == side and not Path(r["cache"]).exists()
               for r in (first, second))
