"""
Watching part-count distributions turn Gaussian
===============================================

"""

# as the rank grows, the normalized part-count distribution of a highest
# root approaches a normal law; the diagnostics below measure how fast
from qkostant import convergence_sweep, family_poly, summarize

# a single distribution in detail
s = summarize(family_poly("B", 50))
print("B50:", "mean", float(s.mean), "variance", float(s.variance))
print("  KS distance      ", s.ks_distance)
print("  skewness         ", s.skewness)
print("  excess kurtosis  ", s.excess_kurtosis)
for t, err in s.mgf_errors:
    print(f"  |log M({t:+.1f}) - t^2/2| = {err:.3e}")

# the same four diagnostics across a rank ladder, for every family; the
# product family is the type-A all-ones weight with three bumped indices
print()
print("family rank     KS        skew      exkurt    maxMGF")
for family in ("A", "B", "C", "D", "product"):
    bumps = 3 if family == "product" else 0
    for s in convergence_sweep(family, (25, 100, 400), bumps=bumps):
        print(f"{family:7s} {s.rank:4d}  {s.ks_distance:.2e}  "
              f"{s.skewness:+.2e}  {s.excess_kurtosis:+.2e}  "
              f"{s.max_mgf_error:.2e}")

# every column shrinks roughly like a power of the rank; the same sweep is
# available from the command line as
#   qkostant converge --family B --ranks 25,100,400
