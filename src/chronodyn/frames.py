"""Events, boosts and velocity maps between standard-configuration inertial frames.

Everything works in natural units (c = 1): velocities are dimensionless
fractions of the light speed, times and lengths share one unit.  The two
frames K and K' are always in standard configuration: parallel axes,
relative velocity ``v0`` along the shared x-axis, origins coincident at
t = t' = 0.  The "forward" direction of every map takes K' coordinates
to K coordinates,

    t = gamma * (t' + v0 * x'),   x = gamma * (x' + v0 * t'),
    y = y',  z = z',              gamma = (1 - v0**2) ** -0.5,

and "inverse" applies the sign-flipped boost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Event",
    "Boost",
    "Worldline",
    "FrameMismatchError",
    "lorentz_gamma",
    "boost_event",
    "velocity_addition_x",
    "velocity_boost",
    "kinematic_g",
    "inverse_kinematic_g",
    "crossover_velocity",
    "proper_time_rate",
    "spatial_scale_ratio",
    "boost_field_tensor",
    "boost_worldline",
    "interval_squared",
    "save_worldline_csv",
    "load_worldline_csv",
]

#: Default frame tags for the two standard-configuration frames.
FRAME_K = "K"
FRAME_KPRIME = "Kprime"


class FrameMismatchError(ValueError):
    """An operation received coordinates tagged with the wrong frame."""


def _require_frame(got: str, want: str, what: str) -> None:
    """Raise :class:`FrameMismatchError` unless ``what``, tagged ``got``, is in ``want``."""
    if got != want:
        raise FrameMismatchError(f"{what} tagged {got!r}, expected {want!r}")


def _as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


def _boost_coords(t, r: np.ndarray, v0: float, g: float):
    """Coordinate boost of times ``t`` (...) and positions ``r`` (..., 3)."""
    t_new = g * (t + v0 * r[..., 0])
    r_new = r.copy()
    r_new[..., 0] = g * (r[..., 0] + v0 * t)
    return t_new, r_new


def _boost_velocities(u: np.ndarray, v0: float, g: float) -> np.ndarray:
    """Velocity boost of ``u`` (..., 3) with Lorentz factor ``g`` of ``v0``.

    The x-component follows velocity addition; the transverse components
    pick up the 1/(g*(1 + v0*ux)) time-dilation factor.
    """
    denom = 1.0 + v0 * u[..., 0]
    out = u / (g * denom)[..., None]
    out[..., 0] = (u[..., 0] + v0) / denom
    return out


def lorentz_gamma(v0: float) -> float:
    """Lorentz factor (1 - v0**2)**-0.5 for a subluminal speed."""
    if not abs(v0) < 1.0:
        raise ValueError(f"|v0| must be < 1, got {v0}")
    # (1-v0)(1+v0) avoids cancellation for |v0| near 1
    return 1.0 / math.sqrt((1.0 - v0) * (1.0 + v0))


@dataclass(frozen=True)
class Event:
    """A point (t, r) in the Galilean coordinates of one named inertial frame."""

    t: float
    r: np.ndarray
    frame_tag: str = FRAME_KPRIME

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        r = _as_vec3(self.r)
        r.flags.writeable = False
        object.__setattr__(self, "r", r)
        if not math.isfinite(self.t):
            raise ValueError("event time must be finite")

    @property
    def x(self) -> float:
        return float(self.r[0])


def interval_squared(e1: Event, e2: Event) -> float:
    """Invariant interval s^2 = dt^2 - |dr|^2 between two events of one frame."""
    _require_frame(e2.frame_tag, e1.frame_tag, "second event")
    dt = e2.t - e1.t
    dr = e2.r - e1.r
    return dt * dt - float(dr @ dr)


@dataclass(frozen=True)
class Boost:
    """Standard-configuration map K' <-> K with relative velocity ``v0`` along x.

    ``frame_prime`` tags coordinates on the primed side, ``frame_lab`` on the
    unprimed side; operations that take tagged inputs reject mismatches.
    ``gamma`` is recomputed from ``v0`` on every read so the two can never
    fall out of sync.
    """

    v0: float
    frame_prime: str = FRAME_KPRIME
    frame_lab: str = FRAME_K

    def __post_init__(self):
        object.__setattr__(self, "v0", float(self.v0))
        lorentz_gamma(self.v0)  # validates |v0| < 1
        if self.frame_prime == self.frame_lab:
            raise ValueError(f"a boost needs two distinct frames, got {self.frame_prime!r} twice")

    @property
    def gamma(self) -> float:
        return lorentz_gamma(self.v0)

    def matrix(self, direction: str = "forward") -> np.ndarray:
        """4x4 coordinate matrix L with x^i = L[i,k] x'^k (forward: K' -> K)."""
        v0, _, _ = self._oriented(direction)
        g = self.gamma
        L = np.eye(4)
        L[0, 0] = L[1, 1] = g
        L[0, 1] = L[1, 0] = g * v0
        return L

    def _oriented(self, direction: str) -> tuple[float, str, str]:
        """Signed velocity plus (source, target) frame tags for a direction."""
        if direction == "forward":
            return self.v0, self.frame_prime, self.frame_lab
        if direction == "inverse":
            return -self.v0, self.frame_lab, self.frame_prime
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")

    def inverse(self) -> "Boost":
        return Boost(-self.v0, frame_prime=self.frame_lab, frame_lab=self.frame_prime)


def boost_event(e: Event, b: Boost, direction: str = "forward") -> Event:
    """Map an event's coordinates to the other frame of a boost.

    Forward maps ``b.frame_prime`` coordinates to ``b.frame_lab`` per the
    standard-configuration transformation; inverse goes the other way.
    The returned event carries the target frame's tag.
    """
    v0, src, dst = b._oriented(direction)
    _require_frame(e.frame_tag, src, f"event for the {direction} boost")
    t, r = _boost_coords(e.t, e.r, v0, b.gamma)
    return Event(t=t, r=r, frame_tag=dst)


def velocity_addition_x(ux_prime: float, v0: float) -> float:
    """x-velocity seen from K for a particle with x-velocity ``ux_prime`` in K'."""
    if not abs(ux_prime) <= 1.0:
        raise ValueError(f"|ux_prime| must be <= 1, got {ux_prime}")
    return float(_boost_velocities(np.array([ux_prime, 0.0, 0.0]), v0, lorentz_gamma(v0))[0])


def velocity_boost(u_prime, b: Boost, direction: str = "forward") -> np.ndarray:
    """Transform a 3-velocity between the frames of a boost.

    The x-component follows the velocity addition rule; the transverse
    components pick up the 1/(gamma*(1 + v0*ux')) time-dilation factor that
    falls out of differentiating the coordinate map.  Subluminal input maps
    to subluminal output.
    """
    u = _as_vec3(u_prime)
    speed = float(np.linalg.norm(u))
    if not speed < 1.0:
        raise ValueError(f"|u| must be < 1 for a massive particle, got {speed}")
    v0, _, _ = b._oriented(direction)
    return _boost_velocities(u, v0, b.gamma)


def kinematic_g(ux_prime: float, b: Boost) -> float:
    """Local time-course ratio dt/dt' = gamma*(1 + v0*ux') along a worldline."""
    if not abs(ux_prime) <= 1.0:
        raise ValueError(f"|ux_prime| must be <= 1, got {ux_prime}")
    return b.gamma * (1.0 + b.v0 * ux_prime)


def inverse_kinematic_g(ux: float, b: Boost) -> float:
    """Reverse ratio dt'/dt = gamma*(1 - v0*ux) along a worldline."""
    if not abs(ux) <= 1.0:
        raise ValueError(f"|ux| must be <= 1, got {ux}")
    return b.gamma * (1.0 - b.v0 * ux)


def crossover_velocity(v0: float) -> float:
    """The K' x-velocity at which both frames' clocks run at the same rate.

    Solves gamma*(1 + v0*u) = 1: u = (sqrt(1 - v0**2) - 1)/v0.  Always has
    the opposite sign of ``v0`` and smaller magnitude.  At v0 = 0 every
    velocity trivially satisfies dt = dt', so the formula's 0/0 limit
    (which tends to 0) is not exposed; the call raises instead.
    """
    lorentz_gamma(v0)
    if v0 == 0.0:
        raise ValueError("crossover velocity is undefined at v0 = 0 (limit value 0)")
    # algebraically (sqrt(1-v0^2)-1)/v0, written without cancellation
    return -v0 / (math.sqrt((1.0 - v0) * (1.0 + v0)) + 1.0)


def proper_time_rate(u) -> float:
    """Proper-time rate dtau/dt = sqrt(1 - |u|^2) for a particle velocity."""
    v = _as_vec3(u)
    s2 = float(v @ v)
    if not s2 < 1.0:
        raise ValueError(f"|u| must be < 1, got {math.sqrt(s2)}")
    return math.sqrt(1.0 - s2)


def spatial_scale_ratio(ux_prime: float, b: Boost) -> float:
    """Spatial differential ratio dx/dx' = gamma*(1 + v0/ux') along a worldline.

    Singular for a particle with no x-motion in K' (dx' = 0).  In the
    gamma -> 1 limit this reduces to the Galilean form 1 + v0/ux'.
    """
    if ux_prime == 0.0:
        raise ValueError("dx/dx' is singular at ux_prime = 0")
    return b.gamma * (1.0 + b.v0 / ux_prime)


def boost_field_tensor(F, b: Boost, direction: str = "forward") -> np.ndarray:
    """Boost an antisymmetric rank-2 field tensor: F -> L @ F @ L.T.

    Forward takes the tensor's components from ``b.frame_prime`` to
    ``b.frame_lab``.  Antisymmetry and the two field invariants
    (B^2 - E^2 and E.B) are preserved exactly by the congruence.
    """
    F = np.asarray(F, dtype=float)
    if F.shape != (4, 4):
        raise ValueError(f"field tensor must be 4x4, got shape {F.shape}")
    if not np.allclose(F, -F.T, atol=1e-12 * max(1.0, float(np.abs(F).max()))):
        raise ValueError("field tensor must be antisymmetric")
    L = b.matrix(direction)
    out = L @ F @ L.T
    # restore exact antisymmetry lost to roundoff
    return 0.5 * (out - out.T)


@dataclass(frozen=True)
class Worldline:
    """A strictly time-ordered sampled trajectory with velocities, in one frame.

    ``t`` has shape (n,), ``r`` and ``u`` shape (n, 3).  Construction checks
    monotone time and subluminal speed at every sample.
    """

    frame_tag: str
    t: np.ndarray
    r: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        r = np.asarray(self.r, dtype=float)
        u = np.asarray(self.u, dtype=float)
        n = t.shape[0]
        if t.ndim != 1 or r.shape != (n, 3) or u.shape != (n, 3):
            raise ValueError(
                f"inconsistent sample shapes: t{t.shape}, r{r.shape}, u{u.shape}"
            )
        if n < 2:
            raise ValueError("a worldline needs at least two samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(r)) and np.all(np.isfinite(u))):
            raise ValueError("worldline samples must be finite")
        if not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        speeds = np.linalg.norm(u, axis=1)
        if not np.all(speeds < 1.0):
            raise ValueError(f"superluminal sample: max |u| = {speeds.max()}")
        for a in (t, r, u):
            a.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "u", u)

    def __len__(self) -> int:
        return self.t.shape[0]

    def event(self, i: int) -> Event:
        return Event(t=self.t[i], r=self.r[i].copy(), frame_tag=self.frame_tag)


def boost_worldline(w: Worldline, b: Boost, direction: str = "forward") -> Worldline:
    """Boost every sample of a worldline into the other frame.

    Events map through the coordinate transformation and velocities through
    the velocity map.  The target-frame times come out already monotone
    (dt/dt' = gamma*(1 + v0*ux') > 0 for subluminal motion).
    """
    v0, src, dst = b._oriented(direction)
    _require_frame(w.frame_tag, src, f"worldline for the {direction} boost")
    t_new, r_new = _boost_coords(w.t, w.r, v0, b.gamma)
    u_new = _boost_velocities(w.u, v0, b.gamma)
    return Worldline(frame_tag=dst, t=t_new, r=r_new, u=u_new)


# ---------------------------------------------------------------------------
# CSV serialization: header line, then one row per sample in shortest
# round-trip decimals.  Frame tag and boost parameters of a worldline travel
# in a JSON sidecar (see scenarios).
# ---------------------------------------------------------------------------

WORLDLINE_CSV_HEADER = ["t", "x", "y", "z", "ux", "uy", "uz"]

#: Rows formatted per write; bounds the Python float lists held at once.
_CSV_CHUNK_ROWS = 4096


def _write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns, each (n,) or (n, k), as a lossless CSV table."""
    n = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, n, _CSV_CHUNK_ROWS):
            rows = np.column_stack([c[i : i + _CSV_CHUNK_ROWS] for c in columns]).tolist()
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def save_worldline_csv(w: Worldline, path) -> None:
    """Write a worldline as CSV with full round-trip decimal precision."""
    _write_csv(path, WORLDLINE_CSV_HEADER, [w.t, w.r, w.u])


def load_worldline_csv(path, frame_tag: str = FRAME_KPRIME) -> Worldline:
    """Read a worldline written by :func:`save_worldline_csv`."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != WORLDLINE_CSV_HEADER:
            raise ValueError(f"unexpected worldline CSV header: {header}")
        body = fh.tell()
        if not fh.readline().strip():
            raise ValueError("empty worldline CSV")
        fh.seek(body)
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return Worldline(frame_tag=frame_tag, t=rows[:, 0], r=rows[:, 1:4], u=rows[:, 4:7])
