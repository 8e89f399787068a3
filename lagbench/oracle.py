"""Expected outcomes, judged from the outside.

CLI outcomes are ``(exit code, stdout)`` pairs parsed with
``lagpar.parse_kv_line``; library outcomes are the returned objects.  The
expected values come from the generated inputs alone, and the polynomial
arithmetic used to predict parity and residuals is a plain Lagrange sum
written here, independent of ``lagpar.poly``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from lagpar import parse_kv_line


def canonical(values: Sequence[Fraction]) -> str:
    return ",".join(f"{v.numerator}/{v.denominator}" for v in values)


def lagrange_at(ys: Sequence[Fraction], xs: Sequence[int], x: int) -> Fraction:
    """Value at x of the polynomial of degree < len(xs) through (xs[i], ys[i])."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = Fraction(yi)
        for j, xj in enumerate(xs):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def _lines(result, code: int, want: list):
    rc, out = result
    if rc != code:
        return f"exit {rc}, expected {code}"
    got = [parse_kv_line(line) for line in out.splitlines()]
    if got != want:
        return f"output {out!r}"
    return None


def stored(ident: str, k: int, m: int):
    want = [("stored", {"dataset": ident, "k": str(k), "m": str(m), "blocks": str(k + m)})]
    return lambda result: _lines(result, 0, want)


def recovered(ident: str, values, provenance: str, suspects=()):
    want = [(
        "result",
        {
            "dataset": ident,
            "values": canonical(values),
            "provenance": provenance,
            "suspects": ",".join(str(i) for i in suspects),
        },
    )]
    return lambda result: _lines(result, 0, want)


def verified(ident: str):
    want = [("verified", {"dataset": ident, "consistent": "true", "residuals": ""})]
    return lambda result: _lines(result, 0, want)


def failed_with(code: int):
    """Exit ``code`` with nothing on stdout: no values may be printed."""
    return lambda result: _lines(result, code, [])


def healthy(datasets, corrupt: dict[str, set[str]]):
    """Both stores reachable, every dataset listed, exactly the given files flagged."""

    def check(result):
        rc, out = result
        if rc != 0:
            return f"exit {rc}, expected 0"
        seen = {}
        for tag, kv in map(parse_kv_line, out.splitlines()):
            if tag != "health" or kv.get("reachable") != "true":
                return f"unexpected line {tag} {kv}"
            seen[kv["store"]] = (
                set(filter(None, kv["datasets"].split(","))),
                set(filter(None, kv["corrupt"].split(","))),
            )
        want = {name: (set(datasets), files) for name, files in corrupt.items()}
        if seen != want:
            return f"health {seen}, expected {want}"
        return None

    return check


def parity_of(values, n: int):
    """encode() returned exactly the parity blocks k..n-1 of the interpolant."""
    k = len(values)
    xs = range(k)

    def check(blocks):
        got = [(b.index, b.value) for b in blocks]
        want = [(x, lagrange_at(values, xs, x)) for x in range(k, n)]
        return None if got == want else f"parity {got}, expected {want}"

    return check


def equal_values(values):
    want = list(values)
    return lambda got: None if list(got) == want else f"values {got}, expected {want}"


def residuals_of(values_by_index: Sequence[Fraction], k: int):
    """verify() named exactly the blocks off the interpolant through blocks 0..k-1."""
    xs = range(k)
    head = values_by_index[:k]
    want = tuple(
        x for x in range(k, len(values_by_index))
        if lagrange_at(head, xs, x) != values_by_index[x]
    )

    def check(report):
        got = (report.consistent, tuple(report.residual_indices))
        return None if got == (not want, want) else f"verify {got}, expected {(not want, want)}"

    return check


def located(values, corrupted):
    want = (tuple(values), tuple(sorted(corrupted)))

    def check(result):
        got = (tuple(result.recovered), tuple(result.suspects))
        return None if got == want else f"located {got}, expected {want}"

    return check
