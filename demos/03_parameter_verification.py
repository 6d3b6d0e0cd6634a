#!/usr/bin/env python3
"""Walkthrough: exhaustive verification of the claimed parameters.

Each LRM(r,m) claims (n, 2^k, d) = (2^(m-1), 2^(sum of binomials), 2^(m-r)).
The verifier computes the exact minimum Lee weight from whichever of the
code and its dual has fewer words, and cross-checks the Gray image weight of
the minimum witness.
"""

import time

from z4rm import lee_weight_distribution, lrm, verify_theorem1
from z4rm.reports import report_lines, report_text, verify_all_line

print("== one full report ==")
print(report_text(verify_theorem1(2, 3)))

print()
print("== the machine-readable line format ==")
for line in report_lines(verify_theorem1(1, 4)):
    print(line)

print()
print("== the whole grid up to m=4 ==")
for m in range(1, 5):
    for r in range(m + 1):
        print(verify_all_line(verify_theorem1(r, m)))

print()
print("== weight distributions collapse onto few Lee weights ==")
for r, m in [(0, 3), (1, 3), (2, 3)]:
    dist = lee_weight_distribution(lrm(r, m))
    nonzero = {w: c for w, c in enumerate(dist.counts) if c}
    print(f"LRM({r},{m}): {nonzero}")

print()
print("== desk-scale stress: 2^26 codewords of length 16 ==")
t0 = time.time()
rep = verify_theorem1(3, 5, budget=28, workers=4)
print(f"LRM(3,5), 2^26 codewords, checked through its 2^6-word dual in "
      f"{time.time() - t0:.1f}s: computed "
      f"(n={rep.computed_n}, k={rep.computed_k}, d={rep.computed_d}), "
      f"passed={rep.passed}")
