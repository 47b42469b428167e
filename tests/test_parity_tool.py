"""tools/parity.py: the working tree against a git revision, bit for bit."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("parity_tool", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                           capture_output=True)
    return probe.returncode == 0


parity = load_tool()


class TestParityTool:
    def test_quick_list_is_desk_seeds_0_and_1(self):
        quick = parity.instances(quick=True)
        assert [(s["base"], s["overrides"]) for s in quick] == [
            ("desk", {"seed": 0}), ("desk", {"seed": 1}),
        ]
        full = parity.instances()
        assert len(full) == 61 and len({s["name"] for s in full}) == 61
        assert quick == full[:2]

    def test_row_names_the_first_differing_field(self):
        digests = dict.fromkeys(parity.FIELDS, "0")
        mine = {"digests": dict(digests, nu="1", warnings="1"), "iterations": 5,
                "objective": 2.0}
        theirs = {"digests": digests, "iterations": 4, "objective": 3.0}
        assert parity.row(theirs, theirs) == "bitwise"
        assert parity.row(mine, theirs) == "differs in nu: iterations 4 -> 5, objective 3.0 -> 2.0"

    @pytest.mark.skipif(not in_git_checkout(), reason="needs git and a checkout with a HEAD")
    def test_tiny_instance_is_bitwise_against_head(self):
        # the --quick path on one tiny instance: both trees solve it in their
        # own processes, and the digests of every field agree
        tiny = [parity.instance("desk seed 0, 20 iterations", "desk", seed=0,
                                max_outer_iters=20)]
        assert parity.compare("HEAD", tiny) == [("desk seed 0, 20 iterations", "bitwise")]

    def test_artifact_trees_compare_byte_for_byte(self, tmp_path):
        # the full run's artifact row: identical trees pass, and one changed byte
        # or a file only one tree holds names its path
        mine, theirs = tmp_path / "mine", tmp_path / "theirs"
        for root in (mine, theirs):
            (root / "results" / "desk").mkdir(parents=True)
            (root / "results" / "desk" / "summary.json").write_bytes(b'{"a": 1}\n')
            (root / "trace.csv").write_bytes(b"1,2\n")
        assert parity.differing_files(mine, theirs) == []
        (theirs / "results" / "desk" / "summary.json").write_bytes(b'{"a": 2}\n')
        assert parity.differing_files(mine, theirs) == ["results/desk/summary.json"]
        (mine / "extra.csv").write_bytes(b"")
        assert parity.differing_files(mine, theirs) == [
            "extra.csv", "results/desk/summary.json",
        ]
