"""Golden CLI sessions: exact stdout and exit code of every command.

The README `--machine` session, both demos in both output modes and a human
session over recover, verify and health.  Store roots in human output are
shown as `<tmp>`.
"""

from fractions import Fraction

import pytest

from lagpar import block_digest, make_block, render_block_file
from lagpar.cli import main

README_SESSION = [
    (
        ["--machine", "encode", "--values", "2,3,5", "--m", "1", "--id", "demo"],
        0,
        "block index=3 role=parity value=8/1\n",
    ),
    (
        ["--machine", "store", "--values", "2,3,5", "--m", "2", "--id", "demo"],
        0,
        "stored dataset=demo k=3 m=2 blocks=5\n",
    ),
    (
        ["--machine", "inject", "--store", "primary", "--fault", "delete", "--id", "demo",
         "--index", "0"],
        0,
        "injected store=primary fault=delete dataset=demo index=0\n",
    ),
    (
        ["--machine", "recover", "--id", "demo"],
        0,
        "result dataset=demo values=2/1,3/1,5/1 provenance=reconstructed suspects=\n",
    ),
    (
        ["--machine", "verify", "--id", "demo"],
        0,
        "verified dataset=demo consistent=true residuals=\n",
    ),
    (
        ["--machine", "health"],
        0,
        "health store=primary reachable=true datasets=demo corrupt=\n"
        "health store=secondary reachable=true datasets=demo corrupt=\n",
    ),
]

CARBON = """\
demo name=carbon
data emissions=300/1,400/1,300/1 total_value=3000/1
stored dataset=carbon-demo k=4 m=4
block index=4 role=parity value=11500/1
block index=5 role=parity value=28800/1
block index=6 role=parity value=57900/1
block index=7 role=parity value=101800/1
injected store=primary fault=delete dataset=carbon-demo index=0
injected store=primary fault=delete dataset=carbon-demo index=1
injected store=primary fault=delete dataset=carbon-demo index=2
injected store=primary fault=delete dataset=carbon-demo index=3
result recovered=300/1,400/1,300/1,3000/1 provenance=reconstructed
result footprint=1/3
"""

FORECAST_HEAD = """\
demo name=forecast
note source=fixture formula=a*exp(b*t)+c*sin(d*t)
data coefficients=1/1,2/1,3/1,4/1 source=fixture
stored dataset=forecast-demo k=4 m=2
block index=4 role=parity value=5/1
block index=5 role=parity value=6/1
"""

FORECAST = {
    "primary-degraded": (
        0,
        FORECAST_HEAD
        + "injected store=primary fault=delete dataset=forecast-demo index=1\n"
        "injected store=primary fault=delete dataset=forecast-demo index=3\n"
        "result recovered=1/1,2/1,3/1,4/1 provenance=reconstructed\n",
    ),
    "healthy": (0, FORECAST_HEAD + "result recovered=1/1,2/1,3/1,4/1 provenance=primary\n"),
    "beyond-threshold": (
        3,
        FORECAST_HEAD
        + "".join(
            f"injected store=primary fault=delete dataset=forecast-demo index={i}\n"
            for i in range(4)
        ),
    ),
}

PLANT = "plant parity 3"

HUMAN_SESSION = [
    (
        ["health"],
        0,
        "primary store at <tmp>/primary: UNREACHABLE\n"
        "secondary store at <tmp>/secondary: UNREACHABLE\n",
    ),
    (
        ["store", "--values", "2,3,5", "--m", "3", "--id", "demo"],
        0,
        "stored dataset demo: 3 originals in primary, 3 parity blocks in secondary\n",
    ),
    (["recover", "--id", "demo"], 0, "recovered dataset demo (primary): 2/1,3/1,5/1\n"),
    (["verify", "--id", "demo"], 0, "dataset demo is consistent across 6 blocks\n"),
    PLANT,
    (["verify", "--id", "demo"], 0, "dataset demo is INCONSISTENT at indices 3\n"),
    (["recover", "--id", "demo"], 0, "recovered dataset demo (primary): 2/1,3/1,5/1\n"),
    (
        ["inject", "--store", "primary", "--fault", "delete", "--id", "demo", "--index", "0"],
        0,
        "injected into primary store: fault=delete dataset=demo index=0\n",
    ),
    (
        ["recover", "--id", "demo"],
        0,
        "recovered dataset demo (reconstructed): 2/1,3/1,5/1; suspect indices: 3\n",
    ),
    (
        ["inject", "--store", "secondary", "--fault", "flip", "--id", "demo", "--index", "5",
         "--offset", "40"],
        0,
        "injected into secondary store: fault=flip dataset=demo index=5 offset=40\n",
    ),
    (
        ["health"],
        0,
        "primary store at <tmp>/primary: reachable, datasets [demo], corrupt files []\n"
        "secondary store at <tmp>/secondary: reachable, datasets [demo], "
        "corrupt files [demo/block_5.plyd]\n",
    ),
    (["verify", "--id", "demo"], 0, "dataset demo is INCONSISTENT at indices 4\n"),
    (["recover", "--id", "demo"], 4, ""),
    (
        ["inject", "--store", "secondary", "--fault", "unreachable"],
        0,
        "injected into secondary store: fault=unreachable\n",
    ),
    (
        ["health"],
        0,
        "primary store at <tmp>/primary: reachable, datasets [demo], corrupt files []\n"
        "secondary store at <tmp>/secondary: UNREACHABLE\n",
    ),
    (["recover", "--id", "demo"], 3, ""),
]


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_readme_machine_session(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LAGPAR_ROOT", str(tmp_path))
    for argv, code, out in README_SESSION:
        assert run(capsys, argv) == (code, out), argv


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["human", "machine"])
def test_demo_carbon(capsys, machine):
    assert run(capsys, [*machine, "demo-carbon"]) == (0, CARBON)


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["human", "machine"])
@pytest.mark.parametrize("scenario", sorted(FORECAST))
def test_demo_forecast(capsys, machine, scenario):
    argv = [*machine, "demo-forecast", "--scenario", scenario]
    assert run(capsys, argv) == FORECAST[scenario]


def _plant_parity_3(root):
    """Rewrite parity block 3 of `demo` as 99, with a matching digest in both manifests."""
    evil = make_block(3, Fraction(99), 3, "demo")
    (root / "secondary" / "demo" / "block_3.plyd").write_text(render_block_file(evil, 3))
    for side in ("primary", "secondary"):
        path = root / side / "demo" / "manifest.plym"
        lines = path.read_text().splitlines()
        lines[4] = f"digest index=3 sha256={block_digest(evil)}"
        path.write_text("\n".join(lines) + "\n")


def test_human_session(tmp_path, capsys):
    roots = ["--primary", str(tmp_path / "primary"), "--secondary", str(tmp_path / "secondary")]
    for step in HUMAN_SESSION:
        if step == PLANT:
            _plant_parity_3(tmp_path)
            continue
        argv, code, out = step
        got_code, got_out = run(capsys, [*roots, *argv])
        assert (got_code, got_out.replace(str(tmp_path), "<tmp>")) == (code, out), argv
