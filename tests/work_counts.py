"""The exact work counts that the tests and CI pin, each written once.

A work count does not depend on the machine: map applications, Newton
passes, factorizations, solver calls.  The tests import these names, and
CI's "Benchmark work counts" and "Console script" steps read this file by
path, so a change that moves a count edits it here and nowhere else.
"""

# the default rectangle (cglvortex sweep --mode rect, bench/run.py rect_fp):
# its points, each one fixed_point_solve call; its row maps in all; the maps
# of the rolling block that carries them, FP_BLOCK rows at once; and the
# points that switch to Anderson mixing
RECT_POINTS = 105
RECT_MAPS = 2197
RECT_BLOCK_MAPS = 109
RECT_ACCELERATED = 14

# verify at the 10 criterion-6 points (bench/run.py cross_check), one
# shoot_solve call each.  "warm" is sweep.verify, which starts shooting and
# FD from the converged fixed-point branch; "cold" starts both from
# eps cos x.  Factorizations are spsolve calls, RK4 runs are _rk4_lanes
# calls with and without tangent lanes, and FD systems are
# _fd_newton_system calls
VERIFY_POINTS = 10
VERIFY_WORK = {
    "warm": dict(shoot_steps=10, fd_passes=30, factorizations=35,
                 rk4_tangent=10, rk4_plain=10, fd_systems=25),
    "cold": dict(shoot_steps=34, fd_passes=44, factorizations=71,
                 rk4_tangent=34, rk4_plain=34, fd_systems=37),
}
# the fixed-point maps of the cross_check workload: verify's solves, and
# the gauge check, which turns the fixed-point branch instead of solving
VERIFY_MAPS = 207

# the warm pi/12 ray to |rho| = 200, 32 points from the quadratic predictor
# (bench/run.py ray_fd): FD's Newton passes and factorizations, and
# shooting's Newton steps on the same ray
RAY_POINTS = 32
RAY_FD_PASSES = 111
RAY_FD_FACTORIZATIONS = 82
RAY_SHOOT_STEPS = 81

# the traced counts of each benchmark workload at seed 0 (bench/run.py
# --workload all --trace 1), by metric
TRACED = {
    "rect_fp": {"reduction.fixed_point_solve.calls": RECT_POINTS,
                "reduction.map_applications": RECT_MAPS},
    "cross_check": {"direct.shoot_solve.calls": VERIFY_POINTS,
                    "direct.shoot_solve.newton_iters": VERIFY_WORK["warm"]["shoot_steps"],
                    "direct.fd_solve.reported_iters": VERIFY_WORK["warm"]["fd_passes"],
                    "direct.spsolve.calls": VERIFY_WORK["warm"]["factorizations"],
                    "reduction.map_applications": VERIFY_MAPS},
    "ray_fd": {"direct.fd_solve.calls": RAY_POINTS,
               "direct.fd_solve.reported_iters": RAY_FD_PASSES,
               "direct.spsolve.calls": RAY_FD_FACTORIZATIONS},
}
