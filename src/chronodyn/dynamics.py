"""Relativistic equations of motion in homogeneous fields, plus energy audits.

The integrated variable is the momentum p = m0*u/sqrt(1 - u^2): recovering
u = p/sqrt(m0^2 + |p|^2) keeps every state subluminal by construction.
Integration advances coordinate time t (not proper time tau); tau is
available afterwards by integrating the proper-time rate along the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import (
    FRAME_KPRIME,
    Boost,
    Worldline,
    _require_frame,
    boost_field_tensor,
)

__all__ = [
    "FieldConfig",
    "ParticleState",
    "IntegratorConfig",
    "IntegrationError",
    "EnergyAudit",
    "lorentz_force",
    "four_force",
    "integrate",
    "energy_audit",
    "boost_field_config",
]


class IntegrationError(RuntimeError):
    """The integrator produced a non-finite or superluminal state."""


@dataclass(frozen=True)
class FieldConfig:
    """Homogeneous electric and magnetic fields declared in one frame."""

    E: np.ndarray
    B: np.ndarray
    frame_tag: str = FRAME_KPRIME

    def __post_init__(self):
        E = np.asarray(self.E, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if E.shape != (3,) or B.shape != (3,):
            raise ValueError("E and B must be 3-vectors")
        if not (np.all(np.isfinite(E)) and np.all(np.isfinite(B))):
            raise ValueError("field components must be finite")
        E.flags.writeable = False
        B.flags.writeable = False
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "B", B)

    def tensor(self) -> np.ndarray:
        """Contravariant field tensor F^{ik} packaging E and B.

        Layout (rows i = 0..3):
            [ 0   -Ex  -Ey  -Ez]
            [ Ex   0   -Bz   By]
            [ Ey   Bz   0   -Bx]
            [ Ez  -By   Bx   0 ]
        """
        Ex, Ey, Ez = self.E
        Bx, By, Bz = self.B
        return np.array(
            [
                [0.0, -Ex, -Ey, -Ez],
                [Ex, 0.0, -Bz, By],
                [Ey, Bz, 0.0, -Bx],
                [Ez, -By, Bx, 0.0],
            ]
        )

    @classmethod
    def from_tensor(cls, F, frame_tag: str) -> "FieldConfig":
        """Unpack a 4x4 antisymmetric tensor back into (E, B)."""
        F = np.asarray(F, dtype=float)
        if F.shape != (4, 4):
            raise ValueError("field tensor must be 4x4")
        E = np.array([F[1, 0], F[2, 0], F[3, 0]])
        B = np.array([F[3, 2], F[1, 3], F[2, 1]])
        return cls(E=E, B=B, frame_tag=frame_tag)


def boost_field_config(f: FieldConfig, b: Boost, direction: str = "forward") -> FieldConfig:
    """Express a homogeneous field configuration in the boost's other frame."""
    _, src, dst = b._oriented(direction)
    _require_frame(f.frame_tag, src, f"fields for the {direction} boost")
    return FieldConfig.from_tensor(boost_field_tensor(f.tensor(), b, direction), dst)


@dataclass(frozen=True)
class ParticleState:
    """Dynamical state (t, r, u) of a point charge with constants (m0, e)."""

    t: float
    r: np.ndarray
    u: np.ndarray
    m0: float = 1.0
    e: float = 1.0
    frame_tag: str = FRAME_KPRIME

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if r.shape != (3,) or u.shape != (3,):
            raise ValueError("r and u must be 3-vectors")
        speed = float(np.linalg.norm(u))
        if not speed < 1.0:
            raise ValueError(f"|u| must be < 1, got {speed}")
        if self.m0 <= 0.0:
            raise ValueError("rest mass must be positive")
        r.flags.writeable = False
        u.flags.writeable = False
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "u", u)

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - float(self.u @ self.u))

    @property
    def momentum(self) -> np.ndarray:
        return self.m0 * self.gamma * self.u

    @property
    def energy(self) -> float:
        return self.m0 * self.gamma


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration plan: RK4 (default) or Boris."""

    method: str = "rk4"
    dt: float = 1e-3
    n_steps: int = 1000

    def __post_init__(self):
        if self.method not in ("rk4", "boris"):
            raise ValueError(f"method must be 'rk4' or 'boris', got {self.method!r}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


def lorentz_force(s: ParticleState, f: FieldConfig) -> np.ndarray:
    """Momentum rate dp/dt = e*E + e*(u x B)."""
    _require_frame(f.frame_tag, s.frame_tag, "fields")
    return s.e * (f.E + np.cross(s.u, f.B))


def four_force(s: ParticleState, f: FieldConfig) -> np.ndarray:
    """Coordinate-time 4-force f^i = e*F^{ik} dx_k/dt.

    Time component is the delivered power e*E.u (the energy rate), the space
    components are the Lorentz force.
    """
    force = lorentz_force(s, f)
    return np.concatenate(([s.e * float(f.E @ s.u)], force))


def _u_of_p(p: np.ndarray, m0: float) -> np.ndarray:
    return p / np.sqrt(m0 * m0 + float(p @ p))


def _rk4_step(r, p, dt, e, m0, E, B):
    def deriv(rr, pp):
        u = _u_of_p(pp, m0)
        return u, e * (E + np.cross(u, B))

    k1r, k1p = deriv(r, p)
    k2r, k2p = deriv(r + 0.5 * dt * k1r, p + 0.5 * dt * k1p)
    k3r, k3p = deriv(r + 0.5 * dt * k2r, p + 0.5 * dt * k2p)
    k4r, k4p = deriv(r + dt * k3r, p + dt * k3p)
    r_new = r + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    p_new = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return r_new, p_new


def _boris_step(r, p, dt, e, m0, E, B):
    # half electric kick, magnetic rotation, half electric kick; the
    # rotation preserves |p| exactly, so pure-B energy drift is bounded
    half_kick = 0.5 * dt * e * E
    p_minus = p + half_kick
    gamma_m = math.sqrt(1.0 + float(p_minus @ p_minus) / (m0 * m0))
    tvec = (0.5 * dt * e / (m0 * gamma_m)) * B
    svec = 2.0 * tvec / (1.0 + float(tvec @ tvec))
    p_prime = p_minus + np.cross(p_minus, tvec)
    p_plus = p_minus + np.cross(p_prime, svec)
    p_new = p_plus + half_kick
    u_mid = _u_of_p(0.5 * (p + p_new), m0)
    return r + dt * u_mid, p_new


def integrate(s0: ParticleState, f: FieldConfig, cfg: IntegratorConfig) -> Worldline:
    """Advance the equations of motion dp/dt = e*(E + u x B) with fixed steps.

    Returns a worldline of n_steps + 1 samples starting at the initial
    state.  RK4 carries 4th-order global accuracy; Boris is 2nd order but
    conserves energy to roundoff in a pure magnetic field.  Every step is
    checked for finiteness (a blow-up names the offending quantity).
    """
    _require_frame(f.frame_tag, s0.frame_tag, "fields")
    step = _rk4_step if cfg.method == "rk4" else _boris_step
    n = cfg.n_steps
    t = s0.t + cfg.dt * np.arange(n + 1)
    r_out = np.empty((n + 1, 3))
    u_out = np.empty((n + 1, 3))
    r = s0.r.copy()
    p = s0.momentum
    r_out[0] = r
    u_out[0] = s0.u
    for i in range(1, n + 1):
        r, p = step(r, p, cfg.dt, s0.e, s0.m0, f.E, f.B)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(p))):
            raise IntegrationError(
                f"non-finite state at step {i} (t = {t[i]}): r = {r}, p = {p}"
            )
        u = _u_of_p(p, s0.m0)
        if not float(u @ u) < 1.0:
            raise IntegrationError(
                f"superluminal state at step {i} (t = {t[i]}): |u| = {np.linalg.norm(u)}"
            )
        r_out[i] = r
        u_out[i] = u
    return Worldline(frame_tag=s0.frame_tag, t=t, r=r_out, u=u_out)


@dataclass(frozen=True)
class EnergyAudit:
    """Series (t, energy, potential, total) plus the worst relative drift."""

    t: np.ndarray
    energy: np.ndarray
    potential: np.ndarray
    total: np.ndarray
    max_relative_drift: float


def energy_audit(w: Worldline, f: FieldConfig, m0: float, e: float) -> EnergyAudit:
    """Track E = m0/sqrt(1-u^2) and U = -e*E_field.r along a worldline.

    In any homogeneous field the sum E + U is a constant of the motion;
    the reported drift max|delta(E+U)|/|E+U|_0 measures how well a sampled
    worldline honors that.  Magnetic fields do no work, so with E_field = 0
    the potential vanishes and the energy itself must stay put.
    """
    _require_frame(f.frame_tag, w.frame_tag, "fields")
    if m0 <= 0.0:
        raise ValueError("rest mass must be positive")
    u2 = np.sum(w.u * w.u, axis=1)
    energy = m0 / np.sqrt(1.0 - u2)
    potential = -e * (w.r @ f.E)
    total = energy + potential
    scale = abs(total[0]) if total[0] != 0.0 else 1.0
    drift = float(np.max(np.abs(total - total[0])) / scale)
    return EnergyAudit(
        t=w.t, energy=energy, potential=potential, total=total, max_relative_drift=drift
    )
