"""Closed-form worldlines and time-course laws for the three solvable motions.

Covers circular motion in a homogeneous magnetic field, hyperbolic motion in
a homogeneous electric field (start from rest), and an oscillation-plus-drift
law, together with the period / half-period / simultaneity maps each one
admits in closed form.  All quantities live in the primed frame K' unless a
boost is applied; natural units (c = 1) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .frames import FRAME_KPRIME, Boost, Worldline, lorentz_gamma

__all__ = [
    "CyclotronParams",
    "UniformEParams",
    "OscDriftParams",
    "cyclotron_state",
    "cyclotron_worldline",
    "simultaneity_difference",
    "magnetic_period_map",
    "magnetic_half_period_map",
    "uniform_e_state",
    "uniform_e_worldline",
    "electric_time_map",
    "electric_proper_time",
    "osc_drift_state",
    "osc_drift_worldline",
    "osc_drift_period_map",
]


@dataclass(frozen=True)
class CyclotronParams:
    """Circular constant-speed motion of a charge in B' = (0, 0, B_prime).

    The rotation frequency uses the *relativistic* mass,
    omega' = e*B'/(m0*gamma(u0')); this is well defined only because the
    orbital speed, and with it gamma, is constant on the circle.
    """

    u0_prime: float
    B_prime: float
    alpha: float = 0.0
    r0_prime: np.ndarray = field(default_factory=lambda: np.zeros(3))
    m0: float = 1.0
    e: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.u0_prime < 1.0:
            raise ValueError(f"orbital speed must be in (0, 1), got {self.u0_prime}")
        if self.B_prime == 0.0:
            raise ValueError("B_prime must be nonzero")
        if self.m0 <= 0.0:
            raise ValueError("rest mass must be positive")
        if self.e == 0.0:
            raise ValueError("charge must be nonzero for cyclotron motion")
        if not 0.0 < abs(self.omega_prime) < math.inf:
            raise ValueError(f"rotation frequency e*B'/(m0*gamma) must be finite and nonzero, "
                             f"got {self.omega_prime}")
        r0 = np.asarray(self.r0_prime, dtype=float)
        if r0.shape != (3,):
            raise ValueError("r0_prime must be a 3-vector")
        r0.flags.writeable = False
        object.__setattr__(self, "r0_prime", r0)

    @property
    def omega_prime(self) -> float:
        """Rotation frequency e*B'/m with m the constant relativistic mass."""
        return self.e * self.B_prime / (self.m0 * lorentz_gamma(self.u0_prime))

    @property
    def period_prime(self) -> float:
        return 2.0 * math.pi / abs(self.omega_prime)


def cyclotron_state(p: CyclotronParams, t_prime) -> tuple[np.ndarray, np.ndarray]:
    """Position and velocity on the circle at K'-time ``t_prime``.

    With phase phi' = omega'*t' + alpha:
    u' = u0'*(cos phi', -sin phi', 0),
    r' = r0' + (u0'/omega')*(sin phi', cos phi', 0).
    Accepts scalar or array times; arrays give (n, 3) outputs.
    """
    t = np.asarray(t_prime, dtype=float)
    phi = p.omega_prime * t + p.alpha
    rho = p.u0_prime / p.omega_prime
    r = p.r0_prime + rho * np.stack(
        [np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1
    )
    u = p.u0_prime * np.stack(
        [np.cos(phi), -np.sin(phi), np.zeros_like(phi)], axis=-1
    )
    return r, u


def cyclotron_worldline(
    p: CyclotronParams, t0: float, t1: float, n: int, frame_tag: str = FRAME_KPRIME
) -> Worldline:
    """Sample the cyclotron solution on a uniform K'-time grid."""
    t = np.linspace(t0, t1, n)
    r, u = cyclotron_state(p, t)
    return Worldline(frame_tag=frame_tag, t=t, r=r, u=u)


def simultaneity_difference(
    p1: CyclotronParams, p2: CyclotronParams, b: Boost, t_prime
):
    """K-frame time difference t2 - t1 between equal-t' events on two orbits.

    The two particles must share everything except the phase offset alpha.
    The events simultaneous in K' map to K times differing by

        t2 - t1 = 2*gamma*v0*(u0'/omega') * sin((a2-a1)/2) * cos(omega'*t' + (a1+a2)/2),

    which oscillates at the rotation frequency: in K the two events trade
    places in time order once per half turn.
    """
    shared = [
        ("u0_prime", p1.u0_prime, p2.u0_prime),
        ("B_prime", p1.B_prime, p2.B_prime),
        ("m0", p1.m0, p2.m0),
        ("e", p1.e, p2.e),
    ]
    for name, a, c in shared:
        if a != c:
            raise ValueError(f"orbits must share {name}: {a} != {c}")
    if not np.array_equal(p1.r0_prime, p2.r0_prime):
        raise ValueError("orbits must share the center offset r0_prime")
    t = np.asarray(t_prime, dtype=float)
    w = p1.omega_prime
    amp = 2.0 * b.gamma * b.v0 * (p1.u0_prime / w) * math.sin(0.5 * (p2.alpha - p1.alpha))
    out = amp * np.cos(w * t + 0.5 * (p2.alpha + p1.alpha))
    return float(out) if np.isscalar(t_prime) else out


def magnetic_period_map(p: CyclotronParams, b: Boost) -> tuple[float, float]:
    """(T', T): orbital period in K' and the K-frame interval it maps to, T = gamma*T'."""
    t_prime = p.period_prime
    return t_prime, b.gamma * t_prime


def magnetic_half_period_map(p: CyclotronParams, b: Boost, t0_prime: float) -> float:
    """K-frame interval matching half an orbit started at K'-time ``t0_prime``.

    Unlike the full period, the half-period map depends on the start phase:
    Delta_t = gamma*(T'/2)*(1 - (2/pi)*v0*u0'*sin(omega'*t0' + alpha)).
    """
    t_half = 0.5 * p.period_prime
    osc = (2.0 / math.pi) * b.v0 * p.u0_prime * math.sin(p.omega_prime * t0_prime + p.alpha)
    return b.gamma * t_half * (1.0 - osc)


@dataclass(frozen=True)
class UniformEParams:
    """Charge released from rest at t' = 0 in a homogeneous electric field E'."""

    E_prime: np.ndarray
    m0: float = 1.0
    e: float = 1.0
    r0_prime: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        E = np.asarray(self.E_prime, dtype=float)
        r0 = np.asarray(self.r0_prime, dtype=float)
        if E.shape != (3,) or r0.shape != (3,):
            raise ValueError("E_prime and r0_prime must be 3-vectors")
        if not np.linalg.norm(E) > 0.0:
            raise ValueError("E_prime must be nonzero")
        if self.m0 <= 0.0:
            raise ValueError("rest mass must be positive")
        if self.e == 0.0:
            raise ValueError("charge must be nonzero for uniform-field motion")
        E.flags.writeable = False
        r0.flags.writeable = False
        object.__setattr__(self, "E_prime", E)
        object.__setattr__(self, "r0_prime", r0)

    @property
    def a(self) -> np.ndarray:
        """Acceleration parameter e*E'/m0."""
        return self.e * self.E_prime / self.m0

    @property
    def a_mag(self) -> float:
        return float(np.linalg.norm(self.a))


def uniform_e_state(p: UniformEParams, t_prime) -> tuple[np.ndarray, np.ndarray]:
    """Hyperbolic-motion position and velocity at K'-time ``t_prime``.

    u'(t') = a*t'/sqrt(1 + |a|^2*t'^2) with a = e*E'/m0; the speed climbs
    monotonically toward 1 but never reaches it.  The position integrates to
    r' = r0' + a*(sqrt(1 + |a|^2*t'^2) - 1)/|a|^2.
    """
    t = np.asarray(t_prime, dtype=float)
    a = p.a
    a2 = p.a_mag ** 2
    root = np.sqrt(1.0 + a2 * t * t)
    u = a * (t / root)[..., None]
    r = p.r0_prime + a * ((root - 1.0) / a2)[..., None]
    return r, u


def uniform_e_worldline(
    p: UniformEParams, t0: float, t1: float, n: int, frame_tag: str = FRAME_KPRIME
) -> Worldline:
    """Sample the hyperbolic-motion solution on a uniform K'-time grid."""
    t = np.linspace(t0, t1, n)
    r, u = uniform_e_state(p, t)
    return Worldline(frame_tag=frame_tag, t=t, r=r, u=u)


def electric_time_map(p: UniformEParams, b: Boost, t_prime):
    """Time-course ratio dt/dt' = gamma*(1 + v0*ax*t'/sqrt(1 + |a|^2*t'^2)).

    Exceeds gamma exactly when ax*t' > 0 and falls below it when ax*t' < 0:
    the course of time tracks the projection of the field on the boost axis.
    """
    t = np.asarray(t_prime, dtype=float)
    ax = p.a[0]
    out = b.gamma * (1.0 + b.v0 * ax * t / np.sqrt(1.0 + p.a_mag ** 2 * t * t))
    return float(out) if np.isscalar(t_prime) else out


def electric_proper_time(p: UniformEParams, t_prime) -> tuple:
    """(rate, tau): dtau/dt' = 1/sqrt(1 + |a|^2*t'^2) and its integral from 0.

    tau(t') = asinh(|a|*t')/|a|; the rate decays to zero as the speed
    saturates, so proper time accumulates ever more slowly.
    """
    t = np.asarray(t_prime, dtype=float)
    am = p.a_mag
    rate = 1.0 / np.sqrt(1.0 + am * am * t * t)
    tau = np.arcsinh(am * t) / am
    if np.isscalar(t_prime):
        return float(rate), float(tau)
    return rate, tau


@dataclass(frozen=True)
class OscDriftParams:
    """Oscillation superposed on a uniform drift: r' = a'*sin(omega'*t') + u0'*t'.

    The peak speed |a'*omega'| + |u0'| can exceed 1 for careless parameters;
    the constructor samples one full period (720 points) and rejects any
    choice that goes superluminal.
    """

    a_prime: np.ndarray
    omega_prime: float
    u0_prime: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        a = np.asarray(self.a_prime, dtype=float)
        u0 = np.asarray(self.u0_prime, dtype=float)
        if a.shape != (3,) or u0.shape != (3,):
            raise ValueError("a_prime and u0_prime must be 3-vectors")
        if self.omega_prime == 0.0:
            raise ValueError("omega_prime must be nonzero")
        a.flags.writeable = False
        u0.flags.writeable = False
        object.__setattr__(self, "a_prime", a)
        object.__setattr__(self, "u0_prime", u0)
        t = np.linspace(0.0, self.period_prime, 720, endpoint=False)
        speeds = np.linalg.norm(self.velocity(t), axis=-1)
        if not np.all(speeds < 1.0):
            raise ValueError(
                f"worldline goes superluminal: peak sampled speed {speeds.max():.6f}"
            )

    @property
    def period_prime(self) -> float:
        return 2.0 * math.pi / abs(self.omega_prime)

    def velocity(self, t_prime) -> np.ndarray:
        t = np.asarray(t_prime, dtype=float)
        w = self.omega_prime
        return self.a_prime * (w * np.cos(w * t))[..., None] + self.u0_prime


def osc_drift_state(p: OscDriftParams, t_prime) -> tuple[np.ndarray, np.ndarray]:
    """Position and velocity of the oscillatory-drift law at K'-time ``t_prime``."""
    t = np.asarray(t_prime, dtype=float)
    r = p.a_prime * np.sin(p.omega_prime * t)[..., None] + p.u0_prime * t[..., None]
    return r, p.velocity(t)


def osc_drift_worldline(
    p: OscDriftParams, t0: float, t1: float, n: int, frame_tag: str = FRAME_KPRIME
) -> Worldline:
    """Sample the oscillatory-drift law on a uniform K'-time grid."""
    t = np.linspace(t0, t1, n)
    r, u = osc_drift_state(p, t)
    return Worldline(frame_tag=frame_tag, t=t, r=r, u=u)


def osc_drift_period_map(p: OscDriftParams, b: Boost) -> tuple[float, float]:
    """(T', T) for the oscillatory drift: T = gamma*(1 + v0*u0x')*T'.

    The period ratio now depends on the particle's drift velocity, not just
    on the frames' relative speed; u0' = 0 recovers the magnetic-field law
    T = gamma*T'.
    """
    t_prime = p.period_prime
    return t_prime, b.gamma * (1.0 + b.v0 * p.u0_prime[0]) * t_prime
