"""Walk the full catalog and compare the two wall-crossing computations.

For each theory and target charge, the combinatorial sum over ordered
decompositions and the framed-diagram decay calculus are evaluated tree
by tree; any coincident-ray symbols are solved from the jump constraints
and printed.  Every total is a coefficient of the quadratic refinement
sigma(target) of the target charge.
"""
from wallcross.decay import conjecture_check
from wallcross.lattice import theory_by_name

CATALOG = [("nf0", (1, 1), None), ("nf0", (1, 2), None),
           ("nf0", (2, 3), None), ("nf1", (1, 1, -1), None),
           ("nf2", (1, 1, 1, 1), None), ("nf3", (1, 1, 1, 1, 2), 5)]


def main():
    for name, target, mv in CATALOG:
        theory = theory_by_name(name)
        rep = conjecture_check(theory, target, max_vertices=mv)
        bound = "" if mv is None else f", at most {mv} vertices"
        print(f"\n== {name}, target {target}{bound}: "
              f"{'AGREE' if rep.ok else 'DISAGREE'} ==")
        for key, tc in sorted(rep.trees.items()):
            framings = ", ".join(d.describe() for d, _ in tc.framings)
            print(f"  tree {key}")
            print(f"    ordered-decomposition total : {tc.js_total}")
            print(f"    decay-calculus total        : {tc.resolved_gmn}")
            if framings:
                print(f"    framings: {framings}")
        if rep.ledger:
            print("  solved coincident-ray symbols:")
            for k, v in sorted(rep.ledger.items()):
                print(f"    {k} = {v}")
        if rep.free_symbols:
            print(f"  free symbols (any value works): {rep.free_symbols}")


if __name__ == "__main__":
    main()
