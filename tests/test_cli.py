import argparse
import os
import subprocess
import sys

import pytest

from lagpar import AmbiguityError, parse_kv_line
from lagpar.cli import build_parser, main
from test_golden import FORECAST


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def store_flags(store_pair):
    primary, secondary = store_pair
    return ["--primary", str(primary.root), "--secondary", str(secondary.root)]


def test_encode_constant_machine(capsys):
    code, out, _ = run_cli(capsys, "--machine", "encode", "--values", "7", "--m", "2", "--id", "d1")
    assert code == 0
    assert out.splitlines() == [
        "block index=1 role=parity value=7/1",
        "block index=2 role=parity value=7/1",
    ]


def test_encode_quadratic_machine(capsys):
    # P through (0,2),(1,3),(2,5) has P(3)=8, frozen from the oracle
    code, out, _ = run_cli(capsys, "--machine", "encode", "--values", "2,3,5", "--m", "1", "--id", "d2")
    assert code == 0
    assert out == "block index=3 role=parity value=8/1\n"


@pytest.mark.parametrize("flag", ["--values", "--val"])
def test_encode_negative_leading_value(capsys, flag):
    # P through (0,-1/2),(1,3) has P(2)=13/2
    code, out, _ = run_cli(capsys, "--machine", "encode", flag, "-1/2,3", "--m", "1", "--id", "d")
    assert code == 0
    assert out == "block index=2 role=parity value=13/2\n"


def test_store_negative_leading_value(capsys, store_pair):
    flags = store_flags(store_pair)
    code, out, _ = run_cli(capsys, "--machine", *flags, "store", "--values", "-1/2,3", "--m", "1", "--id", "d")
    assert code == 0
    assert out == "stored dataset=d k=2 m=1 blocks=3\n"
    code, out, _ = run_cli(capsys, "--machine", *flags, "recover", "--id", "d")
    assert code == 0
    assert "values=-1/2,3/1" in out


def test_encode_human_mode(capsys):
    code, out, _ = run_cli(capsys, "encode", "--values", "2,3,5", "--m", "1", "--id", "d2")
    assert code == 0
    assert "parity blocks for dataset d2" in out
    assert "index 3: 8/1" in out


def test_encode_empty_values_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "encode", "--values", "", "--m", "1", "--id", "d3")
    assert code == 2
    assert "error:" in err


def test_encode_bad_rational_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "encode", "--values", "1.5", "--m", "1", "--id", "d3")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_store_recover_verify_flow(capsys, store_pair):
    flags = store_flags(store_pair)
    code, out, _ = run_cli(capsys, "--machine", *flags, "store", "--values", "2,3", "--m", "3", "--id", "d1")
    assert code == 0
    assert out == "stored dataset=d1 k=2 m=3 blocks=5\n"

    code, out, _ = run_cli(capsys, "--machine", *flags, "verify", "--id", "d1")
    assert code == 0
    assert "consistent=true" in out

    for index in (0, 1):
        code, _, _ = run_cli(
            capsys, "--machine", *flags, "inject", "--store", "primary",
            "--fault", "delete", "--id", "d1", "--index", str(index),
        )
        assert code == 0

    code, out, _ = run_cli(capsys, "--machine", *flags, "recover", "--id", "d1")
    assert code == 0
    assert "provenance=reconstructed" in out
    assert "values=2/1,3/1" in out


def test_recover_unknown_dataset_exits_3(capsys, store_pair):
    code, _, err = run_cli(capsys, *store_flags(store_pair), "recover", "--id", "ghost")
    assert code == 3
    assert "error:" in err


def test_health_reports_unreachable_after_inject(capsys, store_pair):
    flags = store_flags(store_pair)
    run_cli(capsys, *flags, "store", "--values", "1", "--m", "1", "--id", "d1")
    run_cli(capsys, *flags, "inject", "--store", "primary", "--fault", "unreachable")
    code, out, _ = run_cli(capsys, "--machine", *flags, "health")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "health store=primary reachable=false datasets= corrupt="
    assert lines[1] == "health store=secondary reachable=true datasets=d1 corrupt="


def test_health_lists_corrupt_files(capsys, store_pair):
    flags = store_flags(store_pair)
    run_cli(capsys, *flags, "store", "--values", "1,2", "--m", "1", "--id", "d1")
    run_cli(capsys, *flags, "inject", "--store", "primary", "--fault", "flip",
            "--id", "d1", "--index", "0", "--offset", "40")
    code, out, _ = run_cli(capsys, "--machine", *flags, "health")
    assert code == 0
    assert "corrupt=d1/block_0.plyd" in out.splitlines()[0]


def test_inject_flip_requires_offset(capsys, store_pair):
    flags = store_flags(store_pair)
    run_cli(capsys, *flags, "store", "--values", "1", "--m", "1", "--id", "d1")
    code, _, _ = run_cli(capsys, *flags, "inject", "--store", "primary",
                         "--fault", "flip", "--id", "d1", "--index", "0")
    assert code == 2


@pytest.mark.parametrize("fault", [["delete"], ["flip", "--offset", "0"]])
def test_inject_rejects_id_outside_store(capsys, store_pair, fault):
    flags = store_flags(store_pair)
    run_cli(capsys, *flags, "store", "--values", "1", "--m", "1", "--id", "victim")
    victim = store_pair[0].block_path("victim", 0)
    before = victim.read_bytes()
    # from inside the secondary store, ../primary/victim names the primary's dataset
    code, out, err = run_cli(capsys, *flags, "inject", "--store", "secondary", "--fault",
                             *fault, "--id", "../primary/victim", "--index", "0")
    assert code == 2
    assert out == "" and "bad dataset id" in err
    assert victim.read_bytes() == before


def test_identical_roots_rejected(capsys, tmp_path):
    root = str(tmp_path / "same")
    code, _, _ = run_cli(capsys, "--primary", root, "--secondary", root,
                         "store", "--values", "1", "--m", "0", "--id", "d")
    assert code == 2


@pytest.mark.parametrize("command", [["store", "--values", "1", "--m", "0", "--id", "d"],
                                     ["recover", "--id", "d"]], ids=["store", "recover"])
def test_aliased_roots_rejected(capsys, aliased_roots, command):
    primary, secondary = aliased_roots
    code, out, err = run_cli(capsys, "--primary", str(primary), "--secondary", str(secondary),
                             *command)
    assert (code, out) == (2, "")
    assert err == "error: primary and secondary store roots must differ\n"


def test_commands_on_existing_roots_never_resolve_paths(capsys, store_pair, monkeypatch):
    flags = store_flags(store_pair)
    assert run_cli(capsys, *flags, "store", "--values", "1,2", "--m", "1", "--id", "d")[0] == 0

    def realpath(*args, **kwargs):
        raise AssertionError("os.path.realpath called")

    monkeypatch.setattr(os.path, "realpath", realpath)
    for command in (["recover", "--id", "d"], ["verify", "--id", "d"], ["health"]):
        code, out, _ = run_cli(capsys, "--machine", *flags, *command)
        assert code == 0 and out, command


@pytest.mark.parametrize("primary_name", ["file", "file/p"])
def test_store_root_that_cannot_be_created_exits_3(capsys, tmp_path, primary_name):
    (tmp_path / "file").write_text("")
    primary, secondary = tmp_path / primary_name, tmp_path / "dir" / "s"
    code, out, err = run_cli(capsys, "--machine", "--primary", str(primary),
                             "--secondary", str(secondary),
                             "store", "--values", "1,2", "--m", "1", "--id", "x")
    assert (code, out) == (3, "")
    assert err.startswith("error: cannot write")
    assert not (primary / "x").exists() and not (secondary / "x").exists()


def test_lagpar_root_env_sets_default_stores(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LAGPAR_ROOT", str(tmp_path / "env_stores"))
    code, _, _ = run_cli(capsys, "store", "--values", "4,5", "--m", "1", "--id", "d1")
    assert code == 0
    assert (tmp_path / "env_stores" / "primary" / "d1" / "block_0.plyd").is_file()
    assert (tmp_path / "env_stores" / "secondary" / "d1" / "block_2.plyd").is_file()
    code, out, _ = run_cli(capsys, "--machine", "recover", "--id", "d1")
    assert code == 0
    assert "values=4/1,5/1" in out


def test_ambiguity_maps_to_exit_4(capsys, store_pair, monkeypatch):
    def boom(*args, **kwargs):
        raise AmbiguityError("tie")

    monkeypatch.setattr("lagpar.cli.recover_dataset", boom)
    code, _, err = run_cli(capsys, *store_flags(store_pair), "recover", "--id", "d")
    assert code == 4
    assert "tie" in err


def test_machine_lines_conform_to_kv_grammar(capsys, store_pair):
    flags = store_flags(store_pair)
    collected = []
    for argv in (
        ["--machine", "encode", "--values", "2,3,5", "--m", "2", "--id", "d9"],
        ["--machine", *flags, "store", "--values", "2,3,5", "--m", "2", "--id", "d9"],
        ["--machine", *flags, "verify", "--id", "d9"],
        ["--machine", *flags, "recover", "--id", "d9"],
        ["--machine", *flags, "health"],
        ["--machine", *flags, "inject", "--store", "primary", "--fault", "delete",
         "--id", "d9", "--index", "0"],
        ["--machine", "demo-carbon"],
        ["--machine", "demo-forecast"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        collected.extend(out.splitlines())
    assert collected
    for line in collected:
        parse_kv_line(line)  # raises on any grammar violation


def test_demo_carbon_output(capsys):
    code, out, _ = run_cli(capsys, "demo-carbon")
    assert code == 0
    assert "footprint=1/3" in out
    assert "recovered=300/1,400/1,300/1,3000/1" in out
    assert "provenance=reconstructed" in out


def test_demo_forecast_scenarios(capsys):
    code, out, _ = run_cli(capsys, "demo-forecast")
    assert code == 0
    assert "recovered=1/1,2/1,3/1,4/1 provenance=reconstructed" in out
    assert "source=fixture" in out

    code, out, _ = run_cli(capsys, "demo-forecast", "--scenario", "healthy")
    assert code == 0
    assert "provenance=primary" in out

    code, _, err = run_cli(capsys, "demo-forecast", "--scenario", "beyond-threshold")
    assert code == 3
    assert "error:" in err


def test_commands_other_than_store_and_inject_do_not_mutate(capsys, store_pair):
    flags = store_flags(store_pair)
    run_cli(capsys, *flags, "store", "--values", "1,2", "--m", "2", "--id", "d1")
    primary, secondary = store_pair

    def snapshot():
        return {
            str(p): p.read_bytes()
            for store in (primary, secondary)
            for p in sorted(store.root.rglob("*"))
            if p.is_file()
        }

    before = snapshot()
    for argv in (["verify", "--id", "d1"], ["recover", "--id", "d1"], ["health"],
                 ["encode", "--values", "9", "--m", "1", "--id", "other"]):
        run_cli(capsys, *flags, *argv)
    assert snapshot() == before


def test_module_entry_point_runs_in_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "lagpar", "--machine", "encode",
         "--values", "2,3,5", "--m", "1", "--id", "d2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout == "block index=3 role=parity value=8/1\n"


# --- one parser per process: each sequence below runs in this one process ---

ENCODE = ["encode", "--values", "2,3,5", "--m", "1", "--id", "d2"]
ENCODE_MACHINE = (0, "block index=3 role=parity value=8/1\n", "")


def test_main_builds_its_parser_once(capsys, monkeypatch):
    run_cli(capsys, "--machine", "encode", "--values", "7", "--m", "1", "--id", "d")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["--machine", *ENCODE], ["demo-forecast", "--scenario", "healthy"],
                 ["encode", "--values", "", "--m", "1", "--id", "d3"]):
        run_cli(capsys, *argv)
    assert built == []
    assert build_parser() is not build_parser()
    assert built


def test_machine_call_does_not_leak_into_next_call(capsys):
    assert run_cli(capsys, "--machine", *ENCODE) == ENCODE_MACHINE
    assert run_cli(capsys, *ENCODE) == (
        0, "parity blocks for dataset d2 (k=3, m=1):\n  index 3: 8/1\n", ""
    )


@pytest.mark.parametrize("first", [
    ["--machine", "encode", "--values", "2,3,5", "--m", "one", "--id", "d2"],
    ["--machine", "encode", "--values", "2,3,5", "--id", "d2"],
    ["--machine", "nope"],
], ids=["bad-int", "missing-option", "unknown-command"])
def test_usage_error_then_valid_encode(capsys, first):
    code, out, err = run_cli(capsys, *first)
    assert (code, out) == (2, "") and err.startswith("usage: lagpar")
    assert run_cli(capsys, "--machine", *ENCODE) == ENCODE_MACHINE


def test_help_then_valid_command(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and out.startswith("usage: lagpar")
    assert run_cli(capsys, "--machine", *ENCODE) == ENCODE_MACHINE


def test_scenario_default_applies_after_an_explicit_scenario(capsys):
    assert run_cli(capsys, "demo-forecast", "--scenario", "healthy")[:2] == FORECAST["healthy"]
    assert run_cli(capsys, "demo-forecast")[:2] == FORECAST["primary-degraded"]


def test_lagpar_root_is_read_on_every_call(capsys, tmp_path, monkeypatch):
    for name in ("a", "b"):
        monkeypatch.setenv("LAGPAR_ROOT", str(tmp_path / name))
        code, out, _ = run_cli(capsys, "--machine", "store", "--values", "4,5", "--m", "1",
                               "--id", "d1")
        assert (code, out) == (0, "stored dataset=d1 k=2 m=1 blocks=3\n")
    for name in ("a", "b"):
        assert (tmp_path / name / "primary" / "d1" / "manifest.plym").is_file()
        assert (tmp_path / name / "secondary" / "d1" / "manifest.plym").is_file()
