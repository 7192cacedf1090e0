#!/usr/bin/env python3
"""End-to-end demo: build a model, pack trees, run the protocol, audit it.

Prints the multigraph, the packing, the full transcript and the exact
security report for a small model (the unit triangle by default).
"""

import argparse
from fractions import Fraction

from pinkey import (
    PinModel,
    TerminalSet,
    audit,
    draw_edge_keys,
    export_transcript,
    format_rational,
    realize_multigraph,
    run_protocol,
    solve_capacity,
    steiner_packing,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    model = PinModel.from_weights(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
    target = TerminalSet.full(model.m)
    capacity = solve_capacity(model, target).value
    print(f"model: unit triangle, C(A) = {format_rational(capacity)}")

    graph = realize_multigraph(model, args.scale)
    print(f"multigraph at n = {args.scale}: "
          + ", ".join(f"{i}-{j} x{c}" for (i, j), c in
                      sorted(graph.multiplicities.items()) if c))

    packing = steiner_packing(graph, target)
    rate = Fraction(packing.count, args.scale)
    print(f"packed {packing.count} trees, rate {format_rational(rate)}")
    for k, tree in enumerate(packing.trees):
        print(f"  tree {k}: " + " ".join(f"{i}-{j}#{c}" for (i, j, c) in tree.edges))

    keys = draw_edge_keys(graph, args.seed)
    run = run_protocol(packing, keys)
    print("\ntranscript:")
    print(export_transcript(run), end="")

    report = audit(run)
    print(f"\nsecurity index s = {format_rational(report.security_index)} "
          f"({report.method})")
    print(f"H(K)   = {format_rational(report.key_entropy)} bits")
    print(f"H(K|F) = {format_rational(report.key_given_transcript)} bits")
    print("recovery: " + " ".join(
        f"terminal {t}: {'ok' if ok else 'FAIL'}"
        for t, ok in sorted(report.recoverability.items())
    ))
    print("audit " + ("passed" if report.passed else "failed"))


if __name__ == "__main__":
    main()
