"""The README's examples run as written and do what their comments say."""

import json
import re
import shlex
from pathlib import Path

import weakrig as wr
from weakrig.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _command(prefix):
    """The README command line that starts with ``prefix``, comment dropped."""
    lines = [line.split("#")[0].strip() for block in _blocks("sh")
             for line in block.splitlines() if line.startswith(prefix)]
    assert len(lines) == 1, prefix
    return shlex.split(lines[0])


def test_python_blocks_hold_their_comments():
    blocks = _blocks("python")
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), ns)
    fw, triples, tree, points = ns["fw"], ns["triples"], ns["tree"], ns["points"]
    assert not wr.is_infinitesimally_rigid(fw)
    assert triples.s == 9 and wr.is_infinitesimally_weakly_rigid(fw, triples)
    assert ns["tdag"].s == 2 * fw.n - 3
    assert wr.is_infinitesimally_weakly_rigid(wr.Framework(tree, points), ns["tdag"])
    assert ns["report"].verdict is wr.Verdict.UNSTABLE
    assert ns["gain"] is not None
    assert wr.shape_distance(ns["rebuilt"], points) < 1e-12


def test_check_command(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = _command("weakrig check fixtures/hexagon.json --mode weak")
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out == "IWR: yes (rank 9/9)\n"


def test_simulate_command(monkeypatch, tmp_path, capsys):
    """Run in a temporary directory, so the outputs land there."""
    (tmp_path / "fixtures").symlink_to(ROOT / "fixtures")
    monkeypatch.chdir(tmp_path)
    argv = _command("weakrig simulate fixtures/hexagon_run.json")
    assert main(argv[1:]) == 0
    summary = json.loads((tmp_path / f"{argv[-1]}_summary.json").read_text())
    assert summary["converged"] and summary["final_cost"] < 1e-6
    assert float(capsys.readouterr().out.split("final V:")[1].split()[0]) < 1e-6
