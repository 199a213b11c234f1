"""Realize a random tuple of oriented flags by points: the returned
points reproduce, pairwise, the orientations of the iterated brackets of
the deleted subtuples."""

from eulerflags import bracket, hereditarily_spanning, ori, realize_points
from eulerflags.randgen import RationalSampler

s = RationalSampler(11)
Fs = s.flags(2, 4)
xs = realize_points(Fs)

print("points (primitive integer vectors):")
for x in xs:
    print("   ", x)
print("hereditarily spanning:", hereditarily_spanning(xs))

checks = 0
for i in range(4):
    for j in range(i + 1, 4):
        keep = [t for t in range(4) if t not in (i, j)]
        lhs = ori([xs[t] for t in keep])
        rhs = ori(bracket([Fs[t] for t in keep]).basis)
        assert lhs == rhs
        checks += 1
print(f"all {checks} orientation equalities hold exactly")
