"""Reference good-domain axiom check.

This is the body of the lazy ``SchottkyGroup.verify`` that the
constructor replaced: it checked the axioms on the first call and kept
the report, and every operation that needed a good fundamental domain
asked for it first.  The library now runs the same checks when a group is
built and raises AxiomViolation, with the whole report, when one fails;
``test_groups.py`` compares the two.  The tables that the body read are
built here as the constructor builds them.
"""

from typing import List

from schottky.disks import disjoint, image
from schottky.groups import AxiomCheck, AxiomReport


def verify(ctx, generators, B, C) -> AxiomReport:
    """The report of the good-domain axioms of the generators with the
    bounded open disks B_i and C_i, every check in the library's order."""
    generators, B, C = tuple(generators), tuple(B), tuple(C)
    rank = len(generators)
    domain = tuple((-i, D, D.closure()) for i, D in enumerate(B, 1))
    domain += tuple((i, D, D.closure()) for i, D in enumerate(C, 1))
    base_complements = {-l: K.complement() for l, _, K in domain}

    checks: List[AxiomCheck] = []
    closed = [(f"B{-l}" if l < 0 else f"C{l}", K) for l, _, K in domain]
    for i in range(len(closed)):
        for j in range(i + 1, len(closed)):
            (n1, D1), (n2, D2) = closed[i], closed[j]
            ok = disjoint(D1, D2)
            checks.append(
                AxiomCheck(
                    f"disjoint:{n1}+,{n2}+",
                    ok,
                    "" if ok else f"{D1} meets {D2}",
                )
            )
    for g, B, (l, C, K) in zip(generators, B, domain[rank:]):
        got_closed = image(g, B.complement())
        ok = got_closed == K
        checks.append(
            AxiomCheck(
                f"image:g{l}(P1-B{l})=C{l}+",
                ok,
                "" if ok else f"got {got_closed}, want {K}",
            )
        )
        got_open = image(g, base_complements[l])
        ok = got_open == C
        checks.append(
            AxiomCheck(
                f"image:g{l}(P1-B{l}+)=C{l}",
                ok,
                "" if ok else f"got {got_open}, want {C}",
            )
        )
    return AxiomReport(tuple(checks))
