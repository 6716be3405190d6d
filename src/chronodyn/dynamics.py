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


def _u_of_p(px, py, pz, m2):
    """Velocity u = p/sqrt(m0^2 + |p|^2) from momentum components, m2 = m0^2."""
    s = math.sqrt(m2 + (px * px + py * py + pz * pz))
    return px / s, py / s, pz / s


def _u_and_force(px, py, pz, m2, e, E, B):
    """(u, dp/dt) at momentum p, with dp/dt = e*(E + u x B)."""
    ux, uy, uz = _u_of_p(px, py, pz, m2)
    Ex, Ey, Ez = E
    Bx, By, Bz = B
    return (ux, uy, uz, e * (Ex + (uy * Bz - uz * By)),
            e * (Ey + (uz * Bx - ux * Bz)), e * (Ez + (ux * By - uy * Bx)))


def _rk4_step(s, h, e, m0, E, B):
    # the derivative of (r, p) depends on p alone, so only p gets midpoints
    px, py, pz = s[3:]
    m2, hh = m0 * m0, 0.5 * h
    k1 = _u_and_force(px, py, pz, m2, e, E, B)
    k2 = _u_and_force(px + hh * k1[3], py + hh * k1[4], pz + hh * k1[5], m2, e, E, B)
    k3 = _u_and_force(px + hh * k2[3], py + hh * k2[4], pz + hh * k2[5], m2, e, E, B)
    k4 = _u_and_force(px + h * k3[3], py + h * k3[4], pz + h * k3[5], m2, e, E, B)
    w = h / 6.0
    return tuple(q + w * (a + 2.0 * b + 2.0 * c + d) for q, a, b, c, d in zip(s, k1, k2, k3, k4))


def _boris_step(s, h, e, m0, E, B):
    # half electric kick, magnetic rotation, half electric kick; the
    # rotation preserves |p| exactly, so pure-B energy drift is bounded
    x, y, z, px, py, pz = s
    k = 0.5 * h * e
    kx, ky, kz = k * E[0], k * E[1], k * E[2]
    mx, my, mz = px + kx, py + ky, pz + kz
    m2 = m0 * m0
    c = k / (m0 * math.sqrt(1.0 + (mx * mx + my * my + mz * mz) / m2))
    tx, ty, tz = c * B[0], c * B[1], c * B[2]
    d = 1.0 + (tx * tx + ty * ty + tz * tz)
    sx, sy, sz = 2.0 * tx / d, 2.0 * ty / d, 2.0 * tz / d
    qx, qy, qz = mx + (my * tz - mz * ty), my + (mz * tx - mx * tz), mz + (mx * ty - my * tx)
    nx = mx + (qy * sz - qz * sy) + kx
    ny = my + (qz * sx - qx * sz) + ky
    nz = mz + (qx * sy - qy * sx) + kz
    ux, uy, uz = _u_of_p(0.5 * (px + nx), 0.5 * (py + ny), 0.5 * (pz + nz), m2)
    return x + h * ux, y + h * uy, z + h * uz, nx, ny, nz


def integrate(s0: ParticleState, f: FieldConfig, cfg: IntegratorConfig) -> Worldline:
    """Advance the equations of motion dp/dt = e*(E + u x B) with fixed steps.

    Returns a worldline of n_steps + 1 samples starting at the initial
    state.  RK4 carries 4th-order global accuracy; Boris is 2nd order but
    conserves energy to roundoff in a pure magnetic field.  Every step is
    checked for a finite, subluminal state (a failure names the step).
    """
    _require_frame(f.frame_tag, s0.frame_tag, "fields")
    step = _rk4_step if cfg.method == "rk4" else _boris_step
    n, dt, e, m0 = cfg.n_steps, cfg.dt, s0.e, s0.m0
    E, B = f.E.tolist(), f.B.tolist()
    t = s0.t + dt * np.arange(n + 1)
    out = np.empty((n + 1, 6))
    out[0] = *s0.r.tolist(), *s0.u.tolist()
    s = (*s0.r.tolist(), *s0.momentum.tolist())
    try:
        for i in range(1, n + 1):
            s = step(s, dt, e, m0, E, B)
            if not all(map(math.isfinite, s)):
                raise IntegrationError(
                    f"non-finite state at step {i} (t = {t[i]}): r = {s[:3]}, p = {s[3:]}"
                )
            ux, uy, uz = _u_of_p(*s[3:], m0 * m0)
            u2 = ux * ux + uy * uy + uz * uz
            if not u2 < 1.0:
                raise IntegrationError(
                    f"superluminal state at step {i} (t = {t[i]}): |u| = {math.sqrt(u2)}"
                )
            out[i] = s[0], s[1], s[2], ux, uy, uz
    except ZeroDivisionError:  # reachable only when m0*m0 underflows to 0
        raise IntegrationError(f"non-finite state at step {i} (t = {t[i]})") from None
    return Worldline(frame_tag=s0.frame_tag, t=t, r=out[:, :3], u=out[:, 3:])


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
