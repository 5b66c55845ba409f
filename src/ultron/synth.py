"""Synthetic mesh sequences with analytic ground-truth motion.

Shapes: icosphere, open cylinder, flat slab. Motions: linear translation
(positions follow the closed form p0 + i*step exactly), constant
acceleration (positions accumulate through the velocity recurrence, so
p[t+1] == p[t] + v[t] holds bit-exactly), sinusoidal bend, and twist.
remesh_every regenerates an independent tessellation every k frames
(seeded), emulating capture pipelines whose topology drifts across frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

SHAPES = ("sphere", "cylinder", "slab")
# the least resolution each shape builds: an icosahedron, a three-point
# ring, a two-by-two grid
_MIN_RESOLUTION = {"sphere": 0, "cylinder": 3, "slab": 2}
MOTIONS = ("translate", "accelerate", "bend", "twist")


def make_icosphere(subdivisions: int = 3, radius: float = 1.0,
                   base_rotation: np.ndarray | None = None) -> Mesh:
    t = (1.0 + 5.0 ** 0.5) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    if base_rotation is not None:
        verts = verts @ base_rotation.T
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    for _ in range(subdivisions):
        midpoint = {}
        vlist = list(verts)
        new_faces = []

        def mid(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                m = vlist[a] + vlist[b]
                m = m / np.linalg.norm(m)
                midpoint[key] = len(vlist)
                vlist.append(m)
            return midpoint[key]

        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.asarray(vlist)
        faces = np.asarray(new_faces)
    return Mesh(vertices=verts * radius, triangles=faces)


def make_cylinder(n_theta: int = 32, n_z: int | None = None,
                  radius: float = 0.25, height: float = 1.0) -> Mesh:
    if n_z is None:
        n_z = max(3, (3 * n_theta) // 4)
    thetas = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    zs = np.linspace(0.0, height, n_z)
    verts = np.empty((n_z * n_theta, 3))
    for i, z in enumerate(zs):
        base = i * n_theta
        verts[base:base + n_theta, 0] = radius * np.cos(thetas)
        verts[base:base + n_theta, 1] = radius * np.sin(thetas)
        verts[base:base + n_theta, 2] = z
    tris = []
    for i in range(n_z - 1):
        for j in range(n_theta):
            a = i * n_theta + j
            b = i * n_theta + (j + 1) % n_theta
            c = (i + 1) * n_theta + j
            d = (i + 1) * n_theta + (j + 1) % n_theta
            tris.append([a, b, d])
            tris.append([a, d, c])
    return Mesh(vertices=verts, triangles=np.asarray(tris))


def make_slab(nx: int = 20, ny: int | None = None,
              width: float = 1.0, depth: float = 0.6) -> Mesh:
    if ny is None:
        ny = max(2, (3 * nx) // 5)
    xs = np.linspace(0.0, width, nx)
    ys = np.linspace(0.0, depth, ny)
    verts = np.array([[x, y, 0.0] for y in ys for x in xs])
    tris = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = j * nx + i
            b = j * nx + i + 1
            c = (j + 1) * nx + i
            d = (j + 1) * nx + i + 1
            tris.append([a, b, d])
            tris.append([a, d, c])
    return Mesh(vertices=verts, triangles=np.asarray(tris))


@dataclass(frozen=True)
class SynthConfig:
    shape: str = "sphere"
    frames: int = 20
    motion: str = "translate"
    amplitude: float = 0.1
    resolution: int = 3  # sphere subdivisions / cylinder n_theta / slab nx
    remesh_every: int | None = None
    seed: int = 0
    colors: bool = False

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.motion not in MOTIONS:
            raise ValueError(f"unknown motion {self.motion!r}")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        least = _MIN_RESOLUTION[self.shape]
        if self.resolution < least:
            raise ValueError(f"resolution must be >= {least} for a {self.shape}, "
                             f"got {self.resolution}")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        if self.remesh_every is not None and self.remesh_every < 1:
            raise ValueError("remesh_every must be >= 1")


def _base_mesh(cfg: SynthConfig, epoch: int, rng: np.random.Generator) -> Mesh:
    """Tessellation for a remesh epoch; epoch 0 is the canonical one."""
    if cfg.shape == "sphere":
        rot = None
        if epoch > 0:
            # independent tessellation: rotate the base icosahedron
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0.2, 1.2)
            K = np.array([[0, -axis[2], axis[1]],
                          [axis[2], 0, -axis[0]],
                          [-axis[1], axis[0], 0]])
            rot = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)
        return make_icosphere(cfg.resolution, base_rotation=rot)
    jitter = 0 if epoch == 0 else int(rng.integers(1, 3))
    if cfg.shape == "cylinder":
        return make_cylinder(cfg.resolution + jitter)
    return make_slab(cfg.resolution + jitter)


def _axis_fraction(points: np.ndarray, axis: int) -> np.ndarray:
    lo = points[:, axis].min()
    hi = points[:, axis].max()
    span = hi - lo
    if span <= 0:
        return np.zeros(len(points))
    return (points[:, axis] - lo) / span


def _displace(cfg: SynthConfig, base: np.ndarray, scale: float) -> np.ndarray:
    """Analytic displacement field at motion scale in [0, 1]."""
    if cfg.motion == "bend":
        along = 2 if cfg.shape in ("sphere", "cylinder") else 0
        out_axis = 0 if cfg.shape in ("sphere", "cylinder") else 2
        f = _axis_fraction(base, along)
        disp = np.zeros_like(base)
        disp[:, out_axis] = cfg.amplitude * scale * np.sin(np.pi * f)
        return base + disp
    if cfg.motion == "twist":
        if cfg.shape == "slab":
            f = _axis_fraction(base, 0)
            theta = cfg.amplitude * scale * f
            out = base.copy()
            c, s = np.cos(theta), np.sin(theta)
            out[:, 1] = c * base[:, 1] - s * base[:, 2]
            out[:, 2] = s * base[:, 1] + c * base[:, 2]
            return out
        f = _axis_fraction(base, 2)
        theta = cfg.amplitude * scale * f
        out = base.copy()
        c, s = np.cos(theta), np.sin(theta)
        out[:, 0] = c * base[:, 0] - s * base[:, 1]
        out[:, 1] = s * base[:, 0] + c * base[:, 1]
        return out
    raise AssertionError(cfg.motion)


def _procedural_colors(points: np.ndarray) -> np.ndarray:
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    span[span <= 0] = 1.0
    return (points - lo) / span


def generate_sequence(cfg: SynthConfig):
    """Yield (mesh, velocities, accelerations) per frame.

    Velocities and accelerations are per-vertex rows aligned with the
    frame's vertices; they restart whenever the tessellation regenerates.
    """
    rng = np.random.default_rng(cfg.seed)
    frames = cfg.frames
    epoch = -1
    base = None
    positions = velocity = accel = None

    for i in range(frames):
        new_epoch = 0 if cfg.remesh_every is None else i // cfg.remesh_every
        if new_epoch != epoch:
            epoch = new_epoch
            base = _base_mesh(cfg, epoch, rng)
            positions = velocity = accel = None

        n = base.vertex_count
        step_count = max(frames - 1, 1)
        if cfg.motion == "translate":
            step = np.array([cfg.amplitude / step_count, 0.0, 0.0])
            pos = base.vertices + step * i
            vel = np.broadcast_to(step, (n, 3)).copy()
            acc = np.zeros((n, 3))
        elif cfg.motion == "accelerate":
            if frames < 3:
                a_vec = np.zeros(3)
            else:
                a_vec = np.array([
                    2.0 * cfg.amplitude / ((frames - 1) * (frames - 2)), 0.0, 0.0
                ])
            if positions is None or len(positions) != n:
                positions = base.vertices.copy()
                velocity = np.zeros((n, 3))
            else:
                # recurrence: p[t+1] = p[t] + v[t]; v[t+1] = v[t] + a
                positions = positions + velocity
                velocity = velocity + a_vec
            pos = positions
            vel = velocity.copy()
            acc = np.broadcast_to(a_vec, (n, 3)).copy()
        else:
            scale = i / step_count
            nxt = min(i + 1, frames - 1) / step_count
            nxt2 = min(i + 2, frames - 1) / step_count
            pos = _displace(cfg, base.vertices, scale)
            p1 = _displace(cfg, base.vertices, nxt)
            p2 = _displace(cfg, base.vertices, nxt2)
            vel = p1 - pos
            acc = (p2 - p1) - vel

        colors = _procedural_colors(base.vertices) if cfg.colors else None
        mesh = Mesh(vertices=pos, triangles=base.triangles, colors=colors)
        yield mesh, vel, acc


def synth_frames(cfg: SynthConfig) -> list[Mesh]:
    return [mesh for mesh, _v, _a in generate_sequence(cfg)]
