"""Built-in plant dynamics and sampled-time integration.

A plant is an ODE right-hand side plus a sampling period and a growth
descriptor.  The growth descriptor is either a constant matrix L (the
one-step spread of a cell of radius r is bounded by expm(L*tau) @ r) or
the exact flag for dynamics whose flow does not depend on the state, in
which case cells translate rigidly and the radius is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

EXACT = "exact"


class AbstractionError(Exception):
    """Integration produced a non-finite successor."""


@dataclass
class PlantSpec:
    name: str
    dim: int
    input_dim: int
    rhs: callable                      # (x tuple, u tuple) -> dx tuple
    tau: float
    growth: object = EXACT             # n x n matrix, or EXACT
    exact_step: callable = None        # (x, u, tau) -> x', required for EXACT

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if isinstance(self.growth, str) and self.growth == EXACT:
            self.growth = EXACT
            if self.exact_step is None:
                raise ValueError("exact growth requires a closed-form step")
        else:
            import numpy as np
            L = np.asarray(self.growth, dtype=float)
            if L.shape != (self.dim, self.dim):
                raise ValueError(f"growth matrix must be {self.dim}x{self.dim}")
            if not np.all(np.isfinite(L)):
                raise ValueError("growth matrix entries must be finite")
            off = L - np.diag(np.diag(L))
            if np.any(off < 0):
                raise ValueError("growth matrix off-diagonal entries must be >= 0")
            self.growth = L

    @property
    def is_exact(self):
        return self.growth is EXACT

    @cached_property
    def growth_factor(self):
        """expm(L*tau); nonnegative for valid growth matrices."""
        if self.is_exact:
            raise ValueError("exact plants have no growth matrix")
        from scipy.linalg import expm
        return expm(self.growth * self.tau)


def integrate(spec, x, u):
    """One sampling step: closed form when exact, else classical RK4 with
    5 substeps."""
    x = tuple(float(v) for v in x)
    u = tuple(float(v) for v in u)
    if spec.exact_step is not None:
        out = tuple(spec.exact_step(x, u, spec.tau))
    else:
        h = spec.tau / 5.0
        rhs = spec.rhs
        for _ in range(5):
            k1 = rhs(x, u)
            k2 = rhs(tuple(a + h / 2 * b for a, b in zip(x, k1)), u)
            k3 = rhs(tuple(a + h / 2 * b for a, b in zip(x, k2)), u)
            k4 = rhs(tuple(a + h * b for a, b in zip(x, k3)), u)
            x = tuple(a + h / 6 * (b + 2 * c + 2 * d + e)
                      for a, b, c, d, e in zip(x, k1, k2, k3, k4))
        out = x
    if not all(math.isfinite(v) for v in out):
        raise AbstractionError(f"non-finite successor from x={x}, u={u}")
    return out

def growth_radius(spec, r, u):
    """Componentwise over-approximation radius after one sampling step."""
    r = tuple(float(v) for v in r)
    if any(v < 0 for v in r):
        raise ValueError("radius components must be >= 0")
    if spec.is_exact:
        return r
    return tuple(float(v) for v in spec.growth_factor @ r)


# ----------------------------------------------------------------------
# named dynamics


def _integrator_step(x, u, tau):
    return tuple(a + b * tau for a, b in zip(x, u))


def robot(tau=1.0, dim=2):
    """Fully actuated point robot: velocity inputs, state-independent flow."""
    return PlantSpec(
        name="robot", dim=dim, input_dim=dim,
        rhs=lambda x, u: u,
        tau=tau, growth=EXACT, exact_step=_integrator_step)


def two_robot(tau=1.0):
    """Two planar robots stacked into one 4-dimensional plant."""
    p = robot(tau=tau, dim=4)
    p.name = "two_robot"
    return p


def double_integrator(tau=0.5):
    def rhs(x, u):
        return (x[1], u[0])

    def step(x, u, tau):
        return (x[0] + x[1] * tau + 0.5 * u[0] * tau * tau,
                x[1] + u[0] * tau)

    return PlantSpec(
        name="di", dim=2, input_dim=1, rhs=rhs, tau=tau,
        growth=[[0.0, 1.0], [0.0, 0.0]], exact_step=step)


def jet(tau=0.25, demo_span=2.0):
    """Axial-compressor surge model; demo parameterization."""
    def rhs(x, u):
        return (-x[1] - 1.5 * x[0] ** 2 - 0.5 * x[0] ** 3, u[0])

    # worst-case Jacobian magnitudes over |x0| <= demo_span
    a = 3.0 * demo_span + 1.5 * demo_span ** 2
    return PlantSpec(
        name="jet", dim=2, input_dim=1, rhs=rhs, tau=tau,
        growth=[[a, 1.0], [0.0, 0.0]])


def dcdc(tau=0.5):
    """Boost converter; the scalar input selects one of two circuit modes."""
    xl, xc = 3.0, 70.0
    rl, rc, ro, vs = 0.05, 0.005, 1.0, 1.0

    def rhs(x, u):
        il, vc = x
        if u[0] < 1.5:
            return (-(rl / xl) * il + vs / xl,
                    -(1.0 / (xc * (ro + rc))) * vc)
        k = ro / (ro + rc)
        return ((-(rl + k * rc) / xl) * il - (k / xl) * vc + vs / xl,
                (k / xc) * il - (1.0 / (xc * (ro + rc))) * vc)

    a = (rl + rc) / xl
    return PlantSpec(
        name="dcdc", dim=2, input_dim=1, rhs=rhs, tau=tau,
        growth=[[a, 1.0 / xl], [1.0 / xc, 1.0 / (xc * (ro + rc))]])


def vehicle(tau=0.3, v_max=1.0):
    """Unicycle: planar position plus heading, speed and turn rate inputs."""
    def rhs(x, u):
        return (u[0] * math.cos(x[2]), u[0] * math.sin(x[2]), u[1])

    return PlantSpec(
        name="vehicle", dim=3, input_dim=2, rhs=rhs, tau=tau,
        growth=[[0.0, 0.0, v_max], [0.0, 0.0, v_max], [0.0, 0.0, 0.0]])


def pendulum(tau=0.1, g=9.8, length=1.0, damping=1.0):
    """Inverted pendulum about the upright, torque input."""
    def rhs(x, u):
        return (x[1], (g / length) * math.sin(x[0]) - damping * x[1] + u[0])

    return PlantSpec(
        name="pendulum", dim=2, input_dim=1, rhs=rhs, tau=tau,
        growth=[[0.0, 1.0], [g / length, damping]])


_BUILDERS = {
    "robot": robot,
    "two_robot": two_robot,
    "di": double_integrator,
    "jet": jet,
    "dcdc": dcdc,
    "vehicle": vehicle,
    "pendulum": pendulum,
}


def make_plant(name, tau=None, params=None):
    """Instantiate a named plant; params are forwarded to its builder."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown plant {name!r}; have {sorted(_BUILDERS)}") from None
    kwargs = dict(params or {})
    if tau is not None:
        kwargs["tau"] = tau
    return builder(**kwargs)
