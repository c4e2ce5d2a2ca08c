"""Evaluating the dilation-average operator pointwise.

Atom parts are summed exactly; density parts go through adaptive
quadrature.  Operators whose measure is provably unbounded on the target
space refuse to evaluate; the truncated operator is the operator of the
truncated measure.
"""

import math

from hausdorff_bergman import (
    DensitySegment,
    DivergentIntegral,
    HausdorffOperator,
    Measure,
    apply,
    apply_with_error,
    rational_power,
    truncate,
)

f = rational_power(1.0, 2.0)  # (z + i)^-2

# a single atom acts by exact dilation: (w/s) f(z/s)
op = HausdorffOperator(Measure.from_atoms((2.0, 1.0)), p=2.0)
print("atom (2, 1) at z = i:", apply(op, f, 1j), "(exact: -2/9)")

# the uniform density on [1, 2]; value known in closed form at z = i
mu = Measure(segments=(DensitySegment.from_spec(1.0, 2.0, ("const", (1.0,))),))
res = apply_with_error(HausdorffOperator(mu, p=2.0), f, 1j)
print(f"uniform [1,2] at z = i: {res.value:.12f} +/- {res.error_estimate:.1e}")
print("  closed form -(ln 1.5 - 1/6) =", -(math.log(1.5) - 1.0 / 6.0))

# unbounded measures refuse silent partial answers
lebesgue = Measure(segments=(
    DensitySegment.from_spec(0.0, math.inf, ("const", (1.0,)),
                             exp_lo=0.0, exp_hi=0.0),
))
try:
    apply(HausdorffOperator(lebesgue, p=2.0), f, 1j)
except DivergentIntegral as exc:
    print("\nLebesgue density:", exc)

truncated = HausdorffOperator(truncate(lebesgue, 0.25), p=2.0)
print("with truncation to [1/4, 4]:", apply(truncated, f, 1j),
      "(exact: -(ln 4 - 3/5))")
