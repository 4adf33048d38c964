"""The benchmark's workloads: seeded inputs and the solve call each one makes.

Inputs are made from the seed with NumPy alone, before the program is
imported, so the program receives only arrays and problem objects. Each
workload is one closed loop with one caller: the next solve starts when the
previous one has returned.
"""

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# max_err of the sixth-order variable-k catalog problem at n = 125
RECORDED_MAX_ERR = 1.2344642e-06


@dataclass
class Case:
    """A workload's program objects, ready to solve in a closed loop."""

    solve: Callable            # solve(config) -> Field3D
    config: object             # the workload's SolverConfig
    poisoned: Callable         # () -> solve(config) on a NaN right-hand side
    scheme: object
    grid: object
    profile: object
    boundary: object
    rhs: Callable              # unfolded right-hand side values, for the residual
    analytic: Optional[Callable]
    workers: int               # threads or parts the mode uses

    @property
    def field_bytes(self):
        return 16 * self.grid.n_x * self.grid.n_y * self.grid.n_z


def _random_field(rng, n):
    """Seeded (n, n, n) complex array, filled a plane at a time to bound memory."""
    values = np.empty((n, n, n), dtype=complex)
    for plane in values:
        plane.real = rng.standard_normal((n, n))
        plane.imag = rng.standard_normal((n, n))
    return values


class SixthVarK:
    """The README's usage: catalog variable-k problem, sixth order, 2 threads."""

    name = "sixth-vark-125-shared2"
    n, smoke_n = 125, 15

    @staticmethod
    def make_inputs(seed, n):
        return {}  # the catalog problem is fixed; the seed has nothing to vary

    @staticmethod
    def build(hf, inputs, n):
        problem = hf.helmholtz_problem(a=10, b=9, c=10, beta=10, gamma=9,
                                       scheme=hf.SchemeKind.SIXTH_ORDER, n=n)
        nan = lambda x, y, z: np.full(np.broadcast(x, y, z).shape, np.nan)
        poison = dataclasses.replace(
            problem, source=dataclasses.replace(problem.source, f=nan))
        return Case(
            solve=lambda cfg: hf.solve_direct(problem, cfg),
            config=hf.SolverConfig(mode=hf.SharedWorkers(2)),
            poisoned=lambda: lambda cfg: hf.solve_direct(poison, cfg),
            scheme=problem.scheme, grid=problem.grid, profile=problem.profile,
            boundary=problem.boundary,
            rhs=lambda: hf.build_rhs(problem.scheme, problem.source,
                                     problem.profile, problem.grid).values,
            analytic=problem.analytic, workers=2)


class FourthAbsorbPart2Socket:
    """Fourth order, complex k^2(z) with absorbing z-ramps, 2 parts over sockets."""

    name = "fourth-absorb-159-part2-socket"
    n, smoke_n = 159, 14
    K0 = 12.0       # interior wavenumber
    RAMP = 0.2      # width of each absorbing layer, as a share of the z extent
    SIGMA = 0.5     # peak absorption, as a share of k0^2

    @staticmethod
    def make_inputs(seed, n):
        return {"rhs": _random_field(np.random.default_rng(seed), n)}

    @classmethod
    def k2_profile(cls):
        """k^2(z) = k0^2 (1 + i sigma(z)) and its two z-derivatives on [0, 1].

        sigma rises as the cube of the depth into a layer of width RAMP at
        each z wall, so the profile is twice continuously differentiable.
        """
        k0sq, w, s0 = cls.K0**2, cls.RAMP, cls.SIGMA

        def depth(z):  # (r, dr/dz): 1 at a wall, 0 at the layer's inner edge
            low = np.clip(1.0 - z / w, 0.0, None)
            high = np.clip(1.0 - (1.0 - z) / w, 0.0, None)
            return low + high, np.where(low > 0, -1.0 / w, 0.0) + np.where(high > 0, 1.0 / w, 0.0)

        def k2(z):
            r, _ = depth(z)
            return k0sq * (1.0 + 1j * s0 * r**3)

        def k2_z(z):
            r, dr = depth(z)
            return k0sq * 1j * s0 * 3.0 * r**2 * dr

        def k2_zz(z):
            r, dr = depth(z)
            return k0sq * 1j * s0 * 6.0 * r * dr**2

        return k2, k2_z, k2_zz

    @classmethod
    def build(cls, hf, inputs, n):
        grid = hf.make_grid(hf.Domain(0.0, 1.0, 0.0, 1.0, 0.0, 1.0), n, n, n)
        profile = hf.sample_profile(*cls.k2_profile(), 0.0, grid)
        scheme = hf.SchemeKind.FOURTH_ORDER
        boundary = hf.BoundaryData.zero()
        rhs_values = inputs["rhs"]
        rhs = hf.Field3D(rhs_values)

        def solve(cfg, field=rhs):
            return hf.solve_discrete(field, boundary, scheme, profile, grid, cfg)[0]

        def poisoned():
            values = rhs_values.copy()
            values[0, 0, 0] = np.nan
            return lambda cfg: solve(cfg, hf.Field3D(values))

        config = hf.SolverConfig(mode=hf.Partitioned(2),
                                 transport_factory=hf.transport.socket_mesh)
        return Case(solve=solve, config=config, poisoned=poisoned, scheme=scheme,
                    grid=grid, profile=profile, boundary=boundary,
                    rhs=lambda: rhs_values, analytic=None, workers=2)


WORKLOADS = {w.name: w for w in (SixthVarK, FourthAbsorbPart2Socket)}
