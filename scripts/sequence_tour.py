#!/usr/bin/env python3
"""Print a quick tour of the families the package computes.

Shows the bundled integer sequences next to their weight vectors, a few
label-bounded level rows, meander/excursion counts and walker stars.
"""

from embtrees.binary import BinaryWeights, binary_Tj_recurrence
from embtrees.dary import DaryFamily, dary_Tj_recurrence
from embtrees.kernel import tree_root
from embtrees.oeis import FIXTURE_WEIGHTS
from embtrees.paths import excursion_gf, meander_gf
from embtrees.steps import StepSet
from embtrees.walkers import lockstep_star, quarterplane_gf


def ints(series, n=10):
    return [int(c) for c in series.coeffs[:n]]


def main() -> None:
    print("== named families (weights v1 v2 w1 w2 w3) ==")
    for seq_id, weights in sorted(FIXTURE_WEIGHTS.items()):
        series = tree_root(BinaryWeights.make(*weights).kinds, 10)
        print(f"{seq_id}  {weights}: {ints(series)}")

    print("\n== binary trees with labels bounded at j ==")
    rows = binary_Tj_recurrence(BinaryWeights.make(0, 0, 1, 0, 0), 1, 4, 10)
    for j in range(0, 5):
        print(f"j={j}: {ints(rows[j])}")

    print("\n== left ternary trees (no label above 0) ==")
    print(ints(dary_Tj_recurrence(DaryFamily('odd', 1), 0, 10)[0]))

    print("\n== Dyck meanders / excursions from level 0 ==")
    dyck = StepSet.make([(-1, 1), (1, 1)])
    print("meanders:  ", ints(meander_gf(dyck, 0, 12).plain, 12))
    print("excursions:", ints(excursion_gf(dyck, 0, 12), 12))

    print("\n== three walkers, star (1,1) ==")
    for boundary in ("vicious", "osculating", "updown"):
        print(f"{boundary:>10}: {ints(lockstep_star(boundary, 1, 1, 9).series, 9)}")

    print("\n== quarter-plane walks from the origin ==")
    print("three steps:", ints(quarterplane_gf("S1", 0, 0, 10)))
    print("six steps:  ", ints(quarterplane_gf("S2", 0, 0, 10)))


if __name__ == "__main__":
    main()
