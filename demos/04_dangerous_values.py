#!/usr/bin/env python3
"""The dangerous-value classification and the two claim checks.

Every value of the speaking party is classified before conditioning:
leaking (some output pattern under half its uniform probability) or
sparsifying (some conditioning destroys too much density).  The scan below
classifies every x for the and gadget against a uniform opponent, then
demonstrates the one-sided claim (dangerous and non-leaking values are
skewing) and the small-n counterexample to its converse companion (a
non-biasing value that is nevertheless dangerous), which is why the
shipped verify corpus reports counterexamples for that claim at n = 2.
"""

from fractions import Fraction
from itertools import product

from liftsim import (
    DistributionTable,
    builtin_gadget,
    dangerous_probability,
    is_biasing,
    is_dangerous,
    is_leaking,
    is_skewing,
    is_sparsifying,
    max_density,
)
from liftsim.exact import frac_str

AND = builtin_gadget("and1")
b, n, eps = 1, 2, Fraction(1, 4)

print("classification against Y uniform on all of Lambda^2 (and gadget):")
Y = DistributionTable.uniform(list(product((0, 1), repeat=2)))
delta_y = max_density(Y, b)[0]
for x in product((0, 1), repeat=2):
    leak = is_leaking(x, Y, AND)
    spars = is_sparsifying(x, Y, AND, delta_y, eps)
    marks = []
    if leak.flagged:
        marks.append(f"leaking (witness I={leak.witness[0]}, z={leak.witness[1]})")
    if spars.flagged:
        marks.append("sparsifying")
    print(f"  x={x}: {', '.join(marks) if marks else 'safe'}")

mass = dangerous_probability(Y, Y, AND, delta_y, eps)
print(f"dangerous mass under uniform X: {frac_str(mass)}")
print("(every x with a zero block makes AND(0, .) constant, hence leaking)")

print("\nclaim check: dangerous and non-leaking values are skewing")
Y2 = DistributionTable.uniform([(0, 0), (0, 1), (1, 0)])
d2 = max_density(Y2, b)[0]
hits = 0
for x in product((0, 1), repeat=2):
    leak = is_leaking(x, Y2, AND).flagged
    spars = is_sparsifying(x, Y2, AND, d2, eps).flagged
    if spars and not leak:
        hits += 1
        assert is_skewing(x, Y2, AND, d2, eps).flagged
        print(f"  x={x}: sparsifying, not leaking -> skewing confirmed")
if not hits:
    print("  (no sparsifying-but-not-leaking value on this support)")

print("\nconverse direction fails at n=2: a dangerous value that is NOT biasing")
Yce = DistributionTable.uniform([(0, 0), (1, 1)])
dce = max_density(Yce, b)[0]
x = (0, 1)
print(f"  Y uniform on {{00, 11}} (density witness {frac_str(dce)}), x = {x}")
print(f"  leaking: {is_leaking(x, Yce, AND).flagged} "
      f"(AND(0, .) never outputs 1)")
print(f"  biasing: {is_biasing(x, Yce, AND, dce, eps, Fraction(2), n).flagged}")
print("  at n=2 the size bound admits only S={1,2} with empty J, whose")
print("  conditional xor is Y_2 with bias 0 -- the implication needs n >= 4")
