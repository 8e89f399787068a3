"""Command-line interface.

Global flags pick the two store roots and the output mode; subcommands wrap
the library operations.  Machine mode (``--machine``) prints one
``tag key=value ...`` line per fact, using the same line grammar as the
block files, so output can be parsed with :func:`lagpar.storage.parse_kv_line`.

Exit codes: 0 success, 2 bad usage or invalid input, 3 recovery or storage
failure, 4 ambiguous corruption location.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from collections.abc import Iterable
from fractions import Fraction
from pathlib import Path

from .blocks import encode, verify
from .errors import AmbiguityError, EmptyInputError, InputError, LagparError
from .indicators import IndicatorDef, IndicatorKind, compute_indicator
from .rationals import format_rational, parse_user_rational
from .storage import (
    DeleteBlock,
    FlipByte,
    RecoveryResult,
    Store,
    Unreachable,
    block_line,
    collect_recovery_set,
    health_check,
    inject_fault,
    recover_dataset,
    same_directory,
    store_dataset,
)

DEFAULT_STORE_PARENT = "lagpar_stores"


def _stores(args: argparse.Namespace) -> tuple[Store, Store]:
    parent = Path(os.environ.get("LAGPAR_ROOT", DEFAULT_STORE_PARENT))
    primary = Path(args.primary) if args.primary else parent / "primary"
    secondary = Path(args.secondary) if args.secondary else parent / "secondary"
    if same_directory(primary, secondary):
        raise InputError("primary and secondary store roots must differ")
    return Store(primary), Store(secondary)


def _parse_values(text: str) -> list[Fraction]:
    if text == "":
        raise EmptyInputError("no values given")
    return [parse_user_rational(token) for token in text.split(",")]


def _join_rationals(values) -> str:
    return ",".join(format_rational(v) for v in values)


def _join_ints(values) -> str:
    return ",".join(str(v) for v in values)


def cmd_encode(args: argparse.Namespace) -> int:
    values = _parse_values(args.values)
    blocks = encode(values, args.m, args.id)
    if args.machine:
        for block in blocks:
            print(block_line(block))
    else:
        print(f"parity blocks for dataset {args.id} (k={len(values)}, m={args.m}):")
        for block in blocks:
            print(f"  index {block.index}: {format_rational(block.value)}")
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    values = _parse_values(args.values)
    primary, secondary = _stores(args)
    store_dataset(values, args.m, args.id, primary, secondary)
    k = len(values)
    if args.machine:
        print(f"stored dataset={args.id} k={k} m={args.m} blocks={k + args.m}")
    else:
        print(
            f"stored dataset {args.id}: {k} originals in primary, "
            f"{args.m} parity blocks in secondary"
        )
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    primary, secondary = _stores(args)
    result = recover_dataset(args.id, primary, secondary)
    values_text = _join_rationals(result.values)
    suspects_text = _join_ints(result.suspects)
    if args.machine:
        print(
            f"result dataset={args.id} values={values_text} "
            f"provenance={result.provenance.value} suspects={suspects_text}"
        )
    else:
        line = f"recovered dataset {args.id} ({result.provenance.value}): {values_text}"
        if result.suspects:
            line += f"; suspect indices: {suspects_text}"
        print(line)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    primary, secondary = _stores(args)
    recovery_set = collect_recovery_set(args.id, primary, secondary)
    report = verify(recovery_set)
    residuals_text = _join_ints(report.residual_indices)
    if args.machine:
        consistent = "true" if report.consistent else "false"
        print(f"verified dataset={args.id} consistent={consistent} residuals={residuals_text}")
    elif report.consistent:
        print(f"dataset {args.id} is consistent across {len(recovery_set.blocks)} blocks")
    else:
        print(f"dataset {args.id} is INCONSISTENT at indices {residuals_text}")
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    primary, secondary = _stores(args)
    for name, store in (("primary", primary), ("secondary", secondary)):
        status = health_check(store)
        datasets_text = ",".join(status.datasets_present)
        corrupt_text = ",".join(
            p.relative_to(store.root).as_posix() for p in status.corrupt_files
        )
        if args.machine:
            reachable = "true" if status.reachable else "false"
            print(
                f"health store={name} reachable={reachable} "
                f"datasets={datasets_text} corrupt={corrupt_text}"
            )
        elif not status.reachable:
            print(f"{name} store at {store.root}: UNREACHABLE")
        else:
            print(
                f"{name} store at {store.root}: reachable, "
                f"datasets [{datasets_text}], corrupt files [{corrupt_text}]"
            )
    return 0


def cmd_inject(args: argparse.Namespace) -> int:
    primary, secondary = _stores(args)
    store = primary if args.store == "primary" else secondary
    if args.fault == "unreachable":
        fault = Unreachable()
        detail = "fault=unreachable"
    else:
        if args.id is None or args.index is None:
            raise InputError(f"fault {args.fault!r} needs --id and --index")
        if args.fault == "delete":
            fault = DeleteBlock(args.id, args.index)
            detail = f"fault=delete dataset={args.id} index={args.index}"
        else:
            if args.offset is None:
                raise InputError("fault 'flip' needs --offset")
            fault = FlipByte(args.id, args.index, args.offset)
            detail = (
                f"fault=flip dataset={args.id} index={args.index} offset={args.offset}"
            )
    inject_fault(store, fault)
    if args.machine:
        print(f"injected store={args.store} {detail}")
    else:
        print(f"injected into {args.store} store: {detail}")
    return 0


def _demo_recover(
    dataset_id: str, values: list[Fraction], m: int, lost: Iterable[int]
) -> RecoveryResult:
    """Store values in throwaway stores, delete the lost originals, recover.

    Prints the stored, block, injected and result lines along the way.
    """
    k = len(values)
    with tempfile.TemporaryDirectory() as tmp:
        primary, secondary = Store(Path(tmp) / "primary"), Store(Path(tmp) / "secondary")
        store_dataset(values, m, dataset_id, primary, secondary)
        print(f"stored dataset={dataset_id} k={k} m={m}")
        for block in collect_recovery_set(dataset_id, primary, secondary).blocks[k:]:
            print(block_line(block))
        for index in lost:
            inject_fault(primary, DeleteBlock(dataset_id, index))
            print(f"injected store=primary fault=delete dataset={dataset_id} index={index}")
        result = recover_dataset(dataset_id, primary, secondary)
    print(
        f"result recovered={_join_rationals(result.values)} "
        f"provenance={result.provenance.value}"
    )
    return result


def cmd_demo_carbon(args: argparse.Namespace) -> int:
    """Walk through encode, total original loss, recovery, and the footprint ratio."""
    emissions = [Fraction(300), Fraction(400), Fraction(300)]
    total_value = Fraction(3000)
    values = [*emissions, total_value]
    print("demo name=carbon")
    print(
        f"data emissions={_join_rationals(emissions)} "
        f"total_value={format_rational(total_value)}"
    )
    result = _demo_recover("carbon-demo", values, len(values), range(len(values)))
    footprint_def = IndicatorDef(
        id="carbon_footprint",
        kind=IndicatorKind.RATIO_OF_SUMS,
        numerator_inputs=("company_a", "company_b", "company_c"),
        denominator_inputs=("total_value",),
    )
    names = ("company_a", "company_b", "company_c", "total_value")
    footprint = compute_indicator(footprint_def, dict(zip(names, result.values)))
    print(f"result footprint={format_rational(footprint)}")
    return 0


def cmd_demo_forecast(args: argparse.Namespace) -> int:
    """Store fixture forecasting coefficients, degrade the primary, recover them."""
    coefficients = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    print("demo name=forecast")
    print("note source=fixture formula=a*exp(b*t)+c*sin(d*t)")
    print(f"data coefficients={_join_rationals(coefficients)} source=fixture")
    lost = {
        "primary-degraded": (1, 3),
        "beyond-threshold": range(len(coefficients)),
    }.get(args.scenario, ())
    _demo_recover("forecast-demo", coefficients, 2, lost)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagpar",
        description=(
            "Exact-rational parity coding: encode k values into parity blocks, "
            "store them across two tiers, and recover from loss or corruption."
        ),
    )
    parser.add_argument("--primary", help="primary store root (default: $LAGPAR_ROOT/primary)")
    parser.add_argument(
        "--secondary", help="secondary store root (default: $LAGPAR_ROOT/secondary)"
    )
    parser.add_argument(
        "--machine", action="store_true", help="machine-parseable key=value output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    encode_p = sub.add_parser("encode", help="print parity blocks for a value list")
    encode_p.add_argument("--values", required=True, help="comma-separated rationals, e.g. 2,3,-1/2")
    encode_p.add_argument("--m", required=True, type=int, help="number of parity blocks")
    encode_p.add_argument("--id", required=True, help="dataset id")
    encode_p.set_defaults(func=cmd_encode)

    store_p = sub.add_parser("store", help="write originals + parity + manifest to the stores")
    store_p.add_argument("--values", required=True)
    store_p.add_argument("--m", required=True, type=int)
    store_p.add_argument("--id", required=True)
    store_p.set_defaults(func=cmd_store)

    recover_p = sub.add_parser("recover", help="recover a dataset's values")
    recover_p.add_argument("--id", required=True)
    recover_p.set_defaults(func=cmd_recover)

    verify_p = sub.add_parser("verify", help="check block consistency for a dataset")
    verify_p.add_argument("--id", required=True)
    verify_p.set_defaults(func=cmd_verify)

    health_p = sub.add_parser("health", help="report reachability and corrupt files")
    health_p.set_defaults(func=cmd_health)

    inject_p = sub.add_parser("inject", help="inject a fault into a store (test harness)")
    inject_p.add_argument("--store", required=True, choices=("primary", "secondary"))
    inject_p.add_argument(
        "--fault", required=True, choices=("unreachable", "delete", "flip")
    )
    inject_p.add_argument("--id")
    inject_p.add_argument("--index", type=int)
    inject_p.add_argument("--offset", type=int)
    inject_p.set_defaults(func=cmd_inject)

    carbon_p = sub.add_parser("demo-carbon", help="carbon-footprint walkthrough")
    carbon_p.set_defaults(func=cmd_demo_carbon)

    forecast_p = sub.add_parser("demo-forecast", help="forecast-coefficient recovery walkthrough")
    forecast_p.add_argument(
        "--scenario",
        choices=("primary-degraded", "healthy", "beyond-threshold"),
        default="primary-degraded",
    )
    forecast_p.set_defaults(func=cmd_demo_forecast)
    return parser


def _glue_values(argv: list[str]) -> list[str]:
    """Join ``--values`` (or an abbreviation) to a list that starts with '-'.

    argparse reads a separate token that starts with '-' as an option unless
    it is a plain negative number, so ``--values -1/2,3`` would be refused
    with "expected one argument"; ``--values=-1/2,3`` is parsed as meant.
    """
    glued: list[str] = []
    for token in argv:
        flag = glued[-1] if glued else ""
        negative = token[:1] == "-" and token[1:2].isdigit()
        if negative and len(flag) > 2 and "--values".startswith(flag):
            glued[-1] = f"{flag}={token}"
        else:
            glued.append(token)
    return glued


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` shares across calls; parsing leaves no state on it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(_glue_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AmbiguityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except LagparError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
