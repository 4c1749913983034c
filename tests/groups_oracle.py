"""The triple-loop `validate_group` that `fuzzcheck.groups` replaced, kept
as the differential oracle: associativity is tested on labels through
`FiniteGroup.op` for every (a, b, c) in carrier order."""

from fuzzcheck.groups import FiniteGroup
from fuzzcheck.sets import Verdict


def validate_group(group: FiniteGroup) -> Verdict:
    """Exhaustive closure, associativity, identity and inverse checks."""
    elems = group.carrier.elements
    for row in group.table:
        for v in row:
            if v not in group.carrier:
                return Verdict.failed(f"product {v!r} not an element", witness=v)
    e = group.identity
    for x in elems:
        if group.op(e, x) != x or group.op(x, e) != x:
            return Verdict.failed(f"identity law fails at {x!r}", witness=x)
        if group.op(x, group.inv(x)) != e or group.op(group.inv(x), x) != e:
            return Verdict.failed(f"inverse law fails at {x!r}", witness=x)
    for a in elems:
        for b in elems:
            for c in elems:
                if group.op(group.op(a, b), c) != group.op(a, group.op(b, c)):
                    return Verdict.failed(
                        f"associativity fails at ({a!r},{b!r},{c!r})", witness=(a, b, c)
                    )
    return Verdict.passed()
