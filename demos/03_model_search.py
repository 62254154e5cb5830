"""Finding every small model of an identity.

The search engine completes Latin squares cell by cell (the first empty cell
in row-major order, smallest symbol first, candidate sets as bitmasks), fills
every cell that is left with one candidate or that an identity forces, and
prunes any branch on which some fully determined instance of a requested
identity already fails.  So it finds the models in table order.  At these orders
the enumeration is exhaustive, so "the models coincide" is a theorem check,
not a sample.
"""

from quasilab import (
    SearchOptions,
    builtin,
    count,
    equivalence_report,
    find_all,
    implies_on_order,
)

# How many quasigroups of each small order satisfy the Neumann identity?
for n in range(1, 6):
    c = count(SearchOptions(order=n, identities=(builtin("neumann"),)))
    print(f"order {n}: {c} Neumann quasigroups")
print()

# The same numbers appear for the Schweizer identity yz*yx = xz -- because
# the two identities have exactly the same finite models.
for n in range(1, 6):
    rep = equivalence_report(n, builtin("neumann"), builtin("schweizer"))
    print(f"order {n}: same model sets = {rep.same_models}")
print()

# Implication checking enumerates models of the hypothesis and tests the
# conclusion on each.  Commutativity does not imply associativity, and the
# search hands back the first counter-model:
out = implies_on_order(3, builtin("commutative"), builtin("associative"))
print("commutative => associative at order 3:", out.holds)
print("counter-model:")
print(out.witness)
print()

# Up-to-isomorphism reporting keeps one representative per class: the 16
# labeled order-4 Neumann quasigroups collapse to 2 (cyclic and Klein).
reps = find_all(SearchOptions(order=4, identities=(builtin("neumann"),), up_to_isomorphism=True))
print(f"order-4 Neumann models up to isomorphism: {len(reps)}")
for q in reps:
    print()
    print(q)
