"""Golden CLI sessions: exact stdout and exit code of every command.

The README `--machine` session, both demos in both output modes, a wide
k = m = 24 encode, a human session over recover, verify and health, a
store in the old PLYM1/PLYD1 format, and the help text at a fixed terminal
width.  Store roots in human output are shown as `<tmp>`.
"""

import hashlib
from fractions import Fraction

import pytest

from lagpar import block_digest, make_block, render_block_file
from lagpar.cli import build_parser, main
from conftest import rewrite_manifest

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

# (-1)**i * (i**3 + 7*i + 3) / (i % 7 + 1) for i in 0..23
WIDE_VALUES = (
    "3,-11/2,25/3,-51/4,19,-163/6,261/7,-395,571/2,-265,1073/4,-1411/5,"
    "605/2,-2291/7,2845,-3483/2,4211/3,-5035/4,5961/5,-6995/6,8143/7,"
    "-9411,10805/2,-12331/3"
)

WIDE_ENCODE = """\
block index=24 role=parity value=-26265761693/2
block index=25 role=parity value=-3579442078459/12
block index=26 role=parity value=-42656096349865/12
block index=27 role=parity value=-118169774764815/4
block index=28 role=parity value=-384275091140947/2
block index=29 role=parity value=-3122464971079343/3
block index=30 role=parity value=-9764954132228181/2
block index=31 role=parity value=-20366033977230701/1
block index=32 role=parity value=-230991354127310615/3
block index=33 role=parity value=-267664644659013915/1
block index=34 role=parity value=-6056323776461643245/7
block index=35 role=parity value=-10494554375555824637/4
block index=36 role=parity value=-37591284473732098361/5
block index=37 role=parity value=-40962230637655152315/2
block index=38 role=parity value=-53308550383493403424/1
block index=39 role=parity value=-133137576967458413465/1
block index=40 role=parity value=-640449560542905814093/2
block index=41 role=parity value=-10417511017585300365711/14
block index=42 role=parity value=-6700454549942461770975/4
block index=43 role=parity value=-109864174704591569929909/30
block index=44 role=parity value=-15583690580023950754155/2
block index=45 role=parity value=-16165533345377811203391/1
block index=46 role=parity value=-98275774217860423153252/3
block index=47 role=parity value=-129879750003021605101065/2
"""

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


OLD_FORMAT_SESSION = [
    (["--machine", "recover", "--id", "demo"], 3, ""),
    (["recover", "--id", "demo"], 3, ""),
    (["--machine", "verify", "--id", "demo"], 3, ""),
    (
        ["--machine", "health"],
        0,
        "health store=primary reachable=true datasets=demo corrupt=demo/manifest.plym\n"
        "health store=secondary reachable=true datasets=demo corrupt=demo/manifest.plym\n",
    ),
    (
        ["health"],
        0,
        "primary store at <tmp>/primary: reachable, datasets [demo], "
        "corrupt files [demo/manifest.plym]\n"
        "secondary store at <tmp>/secondary: reachable, datasets [demo], "
        "corrupt files [demo/manifest.plym]\n",
    ),
]

# at COLUMNS=80: argparse wraps help to $COLUMNS - 2, worked out each time help is printed
HELP = {
    "lagpar": """\
usage: lagpar [-h] [--primary PRIMARY] [--secondary SECONDARY] [--machine]
              {encode,store,recover,verify,health,inject,demo-carbon,demo-forecast}
              ...

Exact-rational parity coding: encode k values into parity blocks, store them
across two tiers, and recover from loss or corruption.

positional arguments:
  {encode,store,recover,verify,health,inject,demo-carbon,demo-forecast}
    encode              print parity blocks for a value list
    store               write originals + parity + manifest to the stores
    recover             recover a dataset's values
    verify              check block consistency for a dataset
    health              report reachability and corrupt files
    inject              inject a fault into a store (test harness)
    demo-carbon         carbon-footprint walkthrough
    demo-forecast       forecast-coefficient recovery walkthrough

options:
  -h, --help            show this help message and exit
  --primary PRIMARY     primary store root (default: $LAGPAR_ROOT/primary)
  --secondary SECONDARY
                        secondary store root (default: $LAGPAR_ROOT/secondary)
  --machine             machine-parseable key=value output
""",
    "lagpar recover": """\
usage: lagpar recover [-h] --id ID

options:
  -h, --help  show this help message and exit
  --id ID
""",
}


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


def test_wide_encode_machine(capsys):
    argv = ["--machine", "encode", "--values", WIDE_VALUES, "--m", "24", "--id", "wide"]
    assert run(capsys, argv) == (0, WIDE_ENCODE)


def _plant_parity_3(root):
    """Rewrite parity block 3 of `demo` as 99, with a matching digest in both manifests."""
    evil = make_block(3, Fraction(99), 3, "demo")
    (root / "secondary" / "demo" / "block_3.plyd").write_text(render_block_file(evil))
    for side in ("primary", "secondary"):
        rewrite_manifest(root / side / "demo" / "manifest.plym", digests={3: block_digest(evil)})


def test_human_session(tmp_path, capsys):
    roots = ["--primary", str(tmp_path / "primary"), "--secondary", str(tmp_path / "secondary")]
    for step in HUMAN_SESSION:
        if step == PLANT:
            _plant_parity_3(tmp_path)
            continue
        argv, code, out = step
        got_code, got_out = run(capsys, [*roots, *argv])
        assert (got_code, got_out.replace(str(tmp_path), "<tmp>")) == (code, out), argv


def _write_old_format_store(root):
    """`2,3,5` with m=1 as stores wrote it before the manifest held k and m."""
    lines = [
        f"block index={i} role={'original' if i < 3 else 'parity'} value={v}/1"
        for i, v in enumerate((2, 3, 5, 8))
    ]
    manifest = "PLYM1\n" + "".join(
        f"digest index={i} sha256={hashlib.sha256(line.encode()).hexdigest()}\n"
        for i, line in enumerate(lines)
    ) + "created=2026-01-01T00:00:00Z\n"
    for side, indices in (("primary", range(3)), ("secondary", [3])):
        directory = root / side / "demo"
        directory.mkdir(parents=True)
        for i in indices:
            (directory / f"block_{i}.plyd").write_text(f"PLYD1\ndataset=demo k=3 m=1\n{lines[i]}\n")
        (directory / "manifest.plym").write_text(manifest)


def test_old_format_store_is_not_read(tmp_path, capsys):
    _write_old_format_store(tmp_path)
    roots = ["--primary", str(tmp_path / "primary"), "--secondary", str(tmp_path / "secondary")]
    for argv, code, out in OLD_FORMAT_SESSION:
        got_code, got_out = run(capsys, [*roots, *argv])
        assert (got_code, got_out.replace(str(tmp_path), "<tmp>")) == (code, out), argv


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [*command.split()[1:], "--help"]
    assert run(capsys, argv) == (0, HELP[command])


def test_help_wraps_to_each_calls_width(capsys, monkeypatch):
    helps = []
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out = run(capsys, ["--help"])
        assert (code, out) == (0, build_parser().format_help()), columns
        helps.append(out)
    narrow, wide = helps
    assert len(narrow.splitlines()) > len(wide.splitlines())
