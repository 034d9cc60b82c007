"""Convention seeds change gauges, not results.

Every integer-spin current of su2_4^3, su2_4 x su3_3 and
su2_4 x su2_6 x su2_2, one per generated subgroup, is extended and every
class resolved under the convention seeds None and 0-5. Each run passes
`check_modular` and fails no condition-report check but the half-integer
spin flag {5c}, which fails on the same currents with and without a seed;
each seeded extended S matches the unseeded one under `match_fields`.
Seeded representatives that do not multiply, or a closure phase taken as
the principal root of r^N, fail {5b}, GF or {6} here.
"""
import functools

import pytest

from fpres.currents import Theory
from fpres.extend import extend, match_fields
from fpres.modular import check_modular, tensor
from fpres.phases import norm1
from fpres.validate import condition_report
from fpres.wzw import su2, sun

SEEDS = (None, 0, 1, 2, 3, 4, 5)
THEORIES = {
    "su2_4^3": lambda: tensor(su2(4), su2(4), su2(4)),
    "su2_4-su3_3": lambda: tensor(su2(4), sun(3, 3)),
    "su2_4-su2_6-su2_2": lambda: tensor(su2(4), su2(6), su2(2)),
}


@functools.lru_cache(maxsize=None)
def theory(name):
    return Theory(THEORIES[name]())


def currents():
    """(theory name, current label), one integer-spin current per
    subgroup it generates."""
    out = []
    for name in THEORIES:
        th, seen = theory(name), set()
        for j in th.center.elements:
            sub = th.subgroup([j])
            if j and norm1(th.md.h[j]) == 0 and sub not in seen:
                seen.add(sub)
                out.append((name, th.md.labels[j]))
    return out


def failed_checks(ex):
    resolutions = [ex.resolve(c) for c in ex.residual_classes() if c.order > 1]
    report = condition_report(ex.extended_theory(
        extra_bundles=[r.bundle for r in resolutions]))
    return {(j, cid) for j, body in report["bundles"].items()
            for cid, entry in body["checks"].items() if not entry["ok"]}


@pytest.mark.parametrize("name,label", currents(), ids=lambda x: str(x).replace(" ", ""))
def test_seeded_resolutions_pass_the_condition_report(name, label):
    th = theory(name)
    base = extend(th, [th.md.index(label)])
    flags = failed_checks(base)
    assert {cid for _, cid in flags} <= {"{5c}"}
    for seed in SEEDS[1:]:
        ex = extend(th, [th.md.index(label)], convention_seed=seed)
        assert check_modular(ex.ext_md)["ok"], seed
        match_fields(base.ext_md, ex.ext_md)
        failed = failed_checks(ex)
        assert {cid for _, cid in failed} <= {"{5c}"}, (seed, failed)
        assert len(failed) == len(flags), (seed, failed, flags)


def test_the_sweep_covers_the_known_failures():
    # the runs that failed {5b}, GF or {6} under a seed when each class
    # chose its representatives by itself
    got = set(currents())
    for case in [("su2_4^3", (4, 4, 4)), ("su2_4^3", (0, 0, 4)),
                 ("su2_4^3", (4, 0, 0)), ("su2_4^3", (0, 4, 0)),
                 ("su2_4-su3_3", (4, (0, 0))),
                 ("su2_4-su2_6-su2_2", (4, 0, 0))]:
        assert case in got
