"""The general (not necessarily idempotent) cube-term decision.

Non-idempotent algebras lose the blocker machinery, but prefixing every
tuple with the full universe (0, 1, ..., n-1) recovers it: the algebra has
a cube term iff for every value pair (a, b) the prefixed constant tuple
for a is generated by the prefixed proper overwrites of (a..a, b..b) at
the dimension bound n**3 * m.  Passing all pairs at ANY depth already
proves a cube term exists, so the decision deepens iteratively and only
a negative answer pays for the full bound.  From d = 13 on, where the
2**d - 1 overwrites outgrow one 4,096-row generator block, each query
closes orbits under permutations of the last d coordinates instead of
tuples, whatever the operations, which makes the full bound reachable.
"""

import time

from cubeterm import FiniteAlgebra, OperationTable, bound_general, decide_cube_general, fixture

nand = fixture("nand2")
print("({0,1}, nand): functionally complete, so a cube term must exist")
dec = decide_cube_general(nand)
print(f"  verdict: {dec.verdict}, all pairs passed at depth {dec.witness_dimension}\n")

const0 = FiniteAlgebra(2, (OperationTable("c0", 1, (0, 0)),), name="const0")
print("({0,1}, constant 0): the clone is projections plus constants")
dec = decide_cube_general(const0)
print(f"  verdict: {dec.verdict} at the full bound d={dec.dimension_bound},"
      f" failing pair {dec.failing_pair}\n")

c3 = fixture("constant3")
print("({0,1,2}, c2): full bound is", bound_general(c3), "- first cap the search at 4")
dec = decide_cube_general(c3, cap=4)
print(f"  capped verdict: {dec.verdict} ({dec.note})")
t0 = time.perf_counter()
dec = decide_cube_general(c3)
elapsed_ms = (time.perf_counter() - t0) * 1000
print(f"  full-bound verdict: {dec.verdict} at d={dec.dimension_bound},"
      f" failing pair {dec.failing_pair} ({elapsed_ms:.0f} ms)")
print(f"  at d={dec.dimension_bound} the query starts from {dec.dimension_bound} generator"
      f" orbits instead of 2^{dec.dimension_bound} - 1 tuples")
