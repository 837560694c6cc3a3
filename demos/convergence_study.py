"""
Convergence study on a smooth manufactured solution.

Runs the trigonometric case at k=1 on both standard mesh families and
prints the error tables with fitted rates.  Expected orders: energy norm
and pressure at k, interior velocity (against the projected exact
velocity) at k+1.  Four levels keep the rate fit clear of the coarse
pre-asymptotic regime.  With the stability eigensolves it takes about
1 s with one BLAS thread on a 2-core machine.

Equivalent CLI:  wgstokes study --degree 1
"""
from wgstokes.study import StudyConfig, run_study

for family in ("uniform-quad", "perturbed-polygon"):
    config = StudyConfig(case="taylor-trig", family=family, degree=1, n0=4, levels=4)
    result = run_study(config)
    print("\n".join(result.summary_lines()))
    print()

# the same driver gates rates against the guaranteed orders; a miss would
# have flipped result.passed and the CLI exit status
