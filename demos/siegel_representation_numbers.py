#!/usr/bin/env python3
"""Exact representation numbers from local densities.

For the three one-class quintary forms handled here (sum of five squares,
A1+D4, A5) the number of representations of t factors into an archimedean
density, an L-value, and finitely many p-adic densities.  Everything is
exact: the L-value at the negative integer is a rational Cohen number, the
p-adic densities have closed forms certified against a counting oracle, and
the assembled integer equals the honest count.
"""

from fractions import Fraction

from latq import lattices as lt
from latq import siegel as sg


def section(title):
    print()
    print(title)
    print("-" * len(title))


section("A full density report (A5 form, t = 6)")
rep = sg.siegel_r("A5", 6)
print(f"t = {rep.t}: split t = t_A * t1 * t2^2 = {rep.t_a} * {rep.t1} * {rep.t2}^2")
print(f"field discriminant D = {rep.D}, L-function discriminant delta = {rep.delta}")
print(f"Cohen number H(2, {rep.delta}) = {rep.cohen}")
for p, a in rep.alphas:
    print(f"alpha_{p} = {a}   (local factor {dict(rep.local_factors)[p]})")
print(f"numeric L(2, {rep.delta}) enclosure: [{rep.l_value_bounds[0]:.6f}, {rep.l_value_bounds[1]:.6f}]")
print(f"assembled representation number r = {rep.r}; independent routes agree: {rep.routes_agree}")
print("honest count of norm-12 vectors in A5:", lt.rep_count(lt.A(5), 12))

section("One-class exactness across a range")
a5 = lt.theta_counts(lt.A(5), 21)
a1d4 = lt.theta_counts(lt.standard_lattice("A1+D4"), 21)
print(" t | r(t, S5) | r(t, A1+D4) | r(t, A5)   (all equal the exhaustive counts)")
for t in range(1, 11):
    r1 = sg.siegel_r("S5", t).r
    r2 = sg.siegel_r("A1D4", t).r
    r3 = sg.siegel_r("A5", t).r
    assert r2 == a1d4[t] and r3 == a5[t]
    print(f"{t:2d} | {r1:8d} | {r2:11d} | {r3:8d}")

section("The counting oracle that certifies the closed forms")
t = 12
for p, closed in ((2, sg.alpha2_A5(t)), (3, sg.alpha3_A5(t))):
    stabilized = sg.oracle_alpha("A5", p, t)
    print(f"alpha_{p}(t={t}, A5): closed form {closed} == counted mod p^a {stabilized}")

section("Cohen numbers are rational with bounded denominators")
for delta in (1, 5, 8, 12, 24, 21, 40):
    h = sg.cohen_H(2, delta)
    assert 120 % h.denominator == 0
    print(f"H(2, {delta:3d}) = {str(h):>8s}   (denominator divides 120)")

section("Six-squares counts in closed form")
print("N_{D6}(2m) for m = 1..10:", [sg.nd6(m) for m in range(1, 11)])
print("via enumeration        :", lt.theta_counts(lt.D(6), 11)[1:])
