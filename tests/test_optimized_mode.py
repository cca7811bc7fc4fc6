"""The CLI gives the same bytes and exit codes under ``python -O``, which
strips ``assert`` statements, as without it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
Z6 = ROOT / "perfbench" / "z6.txt"


def cli(optimize: bool, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    flags = ["-O"] if optimize else []
    result = subprocess.run(
        [sys.executable, *flags, "-m", "permutoid_lab.cli", *argv],
        env=env, capture_output=True, timeout=120,
    )
    return result.returncode, result.stdout


def pipeline(optimize: bool, tmp: Path):
    """Ball permutoid of Z6 at radius 4, its pseudogroup, the rigidity
    test, and the finite-quotient probe; returns each step's (code, stdout)."""
    tmp.mkdir()
    cameron = cli(optimize, "cameron", "--presentation", str(Z6), "--radius", "4")
    (tmp / "gens.json").write_bytes(cameron[1])
    generate = cli(optimize, "pseudogroup", "generate", str(tmp / "gens.json"))
    (tmp / "pseudogroup.json").write_bytes(generate[1])
    rigid = cli(optimize, "pseudogroup", "rigid", str(tmp / "pseudogroup.json"))
    probe = cli(
        optimize, "probe-finite-quotient", "--presentation", str(Z6),
        "--radius", "4", "--max-size", "12", "--deterministic",
    )
    return [cameron, generate, rigid, probe]


def test_same_bytes_with_and_without_asserts(tmp_path):
    plain = pipeline(False, tmp_path / "plain")
    optimized = pipeline(True, tmp_path / "optimized")
    assert [code for code, _ in plain] == [0, 0, 0, 0]
    assert all(out for _, out in plain)
    assert optimized == plain


# the search branches twice before its first development, on three points
BRANCHING = {
    "ground_set_size": 3,
    "elements": [
        {"name": "one", "map": [[0, 0], [1, 1], [2, 2]]},
        {"name": "p", "map": [[0, 1]]},
        {"name": "q", "map": [[1, 0]]},
    ],
}

# saturates to three maximal elements that develop onto Z3 on three points
ONE_PAIR = {"ground_set_size": 3, "elements": [{"name": "g", "map": [[0, 1]]}]}


def searches(optimize: bool, tmp: Path):
    """The development search and the rigid development search, each with
    --deterministic; returns each step's (code, stdout)."""
    tmp.mkdir()
    (tmp / "branching.json").write_text(json.dumps(BRANCHING))
    (tmp / "gens.json").write_text(json.dumps(ONE_PAIR))
    develop = cli(
        optimize, "develop", str(tmp / "branching.json"), "--max-size", "5", "--deterministic"
    )
    generate = cli(optimize, "pseudogroup", "generate", str(tmp / "gens.json"))
    (tmp / "pseudogroup.json").write_bytes(generate[1])
    rigid_develop = cli(
        optimize, "pseudogroup", "develop", str(tmp / "pseudogroup.json"),
        "--max-size", "5", "--deterministic",
    )
    return [develop, generate, rigid_develop]


def test_search_bytes_with_and_without_asserts(tmp_path):
    plain = searches(False, tmp_path / "plain")
    optimized = searches(True, tmp_path / "optimized")
    assert [code for code, _ in plain] == [0, 0, 0]
    assert all(b'"verdict": "found"' in plain[i][1] for i in (0, 2))
    assert optimized == plain
