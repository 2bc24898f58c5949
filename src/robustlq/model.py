"""Game-instance data model: time grids, matrix-valued coefficient paths,
the full game specification, and validation of the standing assumptions.

All coefficients are deterministic functions of time, represented by their
values at the nodes of a uniform grid.  Between nodes a path reads the
cubic through the four nodes around the cell, one rule for every reader:
`MatrixPath.at` reads it at any time, and the backward RK4 marches read it
by integer half step with `MatrixPath.half`, the node or the cell's
midpoint, so no stage time is ever located.
The leader-observed disturbance f1 is restricted to a deterministic path,
which keeps every backward equation in the pipeline an ODE.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class SpecError(ValueError):
    """Malformed or inconsistent game specification."""


def as_count(value, what, least=1) -> int:
    """value as a Python int of at least `least`: a Python or numpy integer,
    or a float with an integral value (a JSON 200.0), never a bool; else a
    SpecError naming `what`.  Every count of the package, from the
    dimensions and N to the Monte Carlo paths, is read through here."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SpecError(f"{what} must be an integer, got {value!r}")
    if value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise SpecError(f"{what} must be {bound}, got {value}")
    return int(value)


class RegularityError(RuntimeError):
    """A regularity condition failed at some grid node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class BlowUpError(RuntimeError):
    """A backward integration produced a non-finite value."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = T."""

    horizon: float
    steps: int
    nodes: np.ndarray = field(repr=False, compare=False)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def __len__(self):
        return self.steps + 1

    def locate(self, t):
        """Return (k, w) with t = (1-w)*t_k + w*t_{k+1}, 0 <= w < 1: an int
        and a float for a scalar t, arrays of its shape for an array.

        Exact node values snap to w = 0 so stored samples are returned
        bit-exactly.
        """
        ts = np.asarray(t, dtype=float)
        bad = ~((ts >= 0.0) & (ts <= self.horizon * (1.0 + 1e-12)))
        if bad.any():
            raise SpecError(f"time {ts[bad].flat[0]} outside [0, {self.horizon}]")
        u = ts / self.dt
        k = np.clip(np.floor(u), 0, self.steps).astype(int)
        nxt = (k < self.steps) & (ts == self.nodes[np.minimum(k + 1, self.steps)])
        snap = nxt | (ts == self.nodes[k]) | (k == self.steps)
        k, w = k + nxt, np.where(snap, 0.0, u - k)
        return (int(k), float(w)) if ts.ndim == 0 else (k, w)


def make_grid(T: float, N: int) -> TimeGrid:
    T = float(_floats(T, "horizon 'T'", ()))
    if not np.isfinite(T) or T <= 0:
        raise SpecError("horizon must be positive")
    N = as_count(N, "step count 'N'")
    try:
        nodes = np.linspace(0.0, float(T), N + 1)
    except (ValueError, MemoryError) as exc:
        raise SpecError(f"step count {N} is too large to allocate the time grid") from exc
    return TimeGrid(horizon=float(T), steps=N, nodes=nodes)


class MatrixPath:
    """A matrix-valued function of time sampled at grid nodes.

    Samples are stored as an array of shape (N+1, rows, cols).  `at` reads
    any time and `half` a half step, both from one fourth-order rule,
    `_cubic`, between nodes, and both return node values bit-exactly.
    """

    __slots__ = ("grid", "samples")

    def __init__(self, grid: TimeGrid, samples: np.ndarray):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 3 or samples.shape[0] != len(grid):
            raise SpecError(
                f"path samples must have shape (N+1, rows, cols), got {samples.shape}"
            )
        self.grid = grid
        self.samples = samples

    @property
    def rows(self) -> int:
        return self.samples.shape[1]

    @property
    def shape(self):
        return self.samples.shape[1:]

    @classmethod
    def constant(cls, grid: TimeGrid, value) -> "MatrixPath":
        value = np.atleast_2d(np.asarray(value, dtype=float))
        return cls(grid, np.broadcast_to(value, (len(grid),) + value.shape).copy())

    @classmethod
    def zeros(cls, grid: TimeGrid, rows: int, cols: int) -> "MatrixPath":
        return cls(grid, np.zeros((len(grid), rows, cols)))

    @classmethod
    def from_function(cls, grid: TimeGrid, fn) -> "MatrixPath":
        samples = np.stack([np.atleast_2d(np.asarray(fn(t), dtype=float)) for t in grid.nodes])
        return cls(grid, samples)

    def at(self, t) -> np.ndarray:
        """Value at time t, or values stacked along the leading axes for an
        array of times, at the cell k and weight w the time locates at
        (`_read`)."""
        ts = np.asarray(t, dtype=float)
        return self._read(*self.grid.locate(ts.reshape(-1))).reshape(ts.shape + self.shape)

    def half(self, j) -> np.ndarray:
        """Value at half step j, the time j dt/2: node j/2, bit-exactly, for
        an even j, else the midpoint w = 1/2 of its cell (`_cubic`);
        stacked along the leading axis for an int array of half steps, bit
        for bit the scalar reads."""
        if isinstance(j, np.ndarray):
            return self._read(j >> 1, 0.5 * (j & 1))
        return self._cubic(np.array([j >> 1]), 0.5)[0] if j & 1 else self.samples[j >> 1]

    def _read(self, k: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Node k where w = 0, else the cubic at w in cell k (`_cubic`)."""
        mid = w != 0.0
        if mid.all():
            return self._cubic(k, w)
        out = self.samples[k]
        if mid.any():
            out[mid] = self._cubic(k[mid], w[mid])
        return out

    def _cubic(self, k: np.ndarray, w) -> np.ndarray:
        """Values at the times (k + w) dt, 0 < w < 1 (an array like k, or a
        number), of the cubic through the four nodes around each cell k:
        with a, b, c, d = m_k, m_{k+1}, m_{k-1}, m_{k+2}, s = a + b, t = c + d
        and u = w - 1/2, s/2 + ((1/4 - u^2)/4)(s - t) + u [((9/4 - u^2)/2)
        (b - a) + ((u^2 - 1/4)/6)(d - c)].  The first cell reads the cubic
        through a, b, c, d = m_0..m_3, s/2 + (3(b - a) + 4(b - c) + (d - c)
        + (2u/3)[(4u^2 - 18u + 23)(b - a) + 2(4u^2 - 12u - 1)(b - c) + (4u^2
        - 6u - 1)(d - c)])/16, the last its mirror, m_N..m_{N-3} at -u.  All
        corrections are sums of node differences, so a constant reads
        exactly; the u-terms are skipped at u = 0.  A grid of fewer than
        three steps reads the line s/2 + u (b - a)."""
        m, last = self.samples, len(self.samples) - 1
        u = np.broadcast_to(np.subtract(w, 0.5), k.shape)[:, None, None]
        skew = u.any()
        # in place, from one gathered copy per pair of nodes
        out, b = m[k], m[k + 1]
        rise = b - out if skew else None
        out += b
        if last < 3:
            out *= 0.5
            return out + u * rise if skew else out
        outer, d = m[np.maximum(k - 1, 0)], m[np.minimum(k + 2, last)]
        if skew:
            uu = u * u
            odd = u * ((0.5 * (2.25 - uu)) * rise + ((uu - 0.25) / 6.0) * (d - outer))
        outer += d
        np.subtract(out, outer, out=outer)
        outer *= 0.25 * (0.25 - uu) if skew else 0.0625
        out *= 0.5
        out += outer
        if skew:
            out += odd
        for end, sign, (a, b, c, d) in ((0, 1.0, m[:4]), (last - 1, -1.0, m[:-5:-1])):
            hit = k == end
            if hit.any():
                e = 3.0 * (b - a) + 4.0 * (b - c) + (d - c)
                if skew:
                    v = sign * u[hit]
                    vv = 4.0 * v * v
                    e = e + (v / 1.5) * ((vv - 18.0 * v + 23.0) * (b - a) + 2.0 * (
                        vv - 12.0 * v - 1.0) * (b - c) + (vv - 6.0 * v - 1.0) * (d - c))
                out[hit] = 0.5 * (a + b) + e * 0.0625
        return out


# Matrix-valued fields of a game spec, with expected (rows, cols) as functions
# of the dimensions (n, m1, m2).
_MATRIX_SHAPES = {
    "A": lambda n, m1, m2: (n, n),
    "C": lambda n, m1, m2: (n, n),
    "B1": lambda n, m1, m2: (n, m1),
    "D1": lambda n, m1, m2: (n, m1),
    "B2": lambda n, m1, m2: (n, m2),
    "D2": lambda n, m1, m2: (n, m2),
    "sigma": lambda n, m1, m2: (n, 1),
    "f1": lambda n, m1, m2: (n, 1),
    "Q": lambda n, m1, m2: (n, n),
    "R1": lambda n, m1, m2: (m1, m1),
    "R2": lambda n, m1, m2: (m2, m2),
    "R0": lambda n, m1, m2: (n, n),
    "R0hat": lambda n, m1, m2: (n, n),
}

_SYMMETRIC_FIELDS = ("Q", "R1", "R2", "R0", "R0hat")
_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class GameSpec:
    """One leader-follower game instance.

    State dimension n, follower control dimension m1, leader control
    dimension m2.  All coefficient paths live on the same grid; G is the
    constant terminal state weight; alpha and gamma are the attenuation
    parameters of the follower-side and leader-side disturbance penalties.
    """

    n: int
    m1: int
    m2: int
    grid: TimeGrid
    A: MatrixPath
    C: MatrixPath
    B1: MatrixPath
    D1: MatrixPath
    B2: MatrixPath
    D2: MatrixPath
    sigma: MatrixPath
    f1: MatrixPath
    Q: MatrixPath
    R1: MatrixPath
    R2: MatrixPath
    R0: MatrixPath
    R0hat: MatrixPath
    G: np.ndarray
    alpha: float
    gamma: float
    xi: np.ndarray

    def __post_init__(self):
        for name in ("n", "m1", "m2"):
            object.__setattr__(self, name, as_count(getattr(self, name), f"dimension {name!r}"))
        object.__setattr__(self, "G", np.atleast_2d(np.asarray(self.G, dtype=float)))
        xi = np.asarray(self.xi, dtype=float)
        for name in ("alpha", "gamma"):
            if not np.isfinite(getattr(self, name)):
                raise SpecError(f"attenuation {name!r} must be finite, got {getattr(self, name)}")
        if xi.size != self.n:
            raise SpecError(f"xi has {xi.size} entries, expected {self.n}")
        object.__setattr__(self, "xi", xi.reshape(self.n, 1))
        for name in _MATRIX_SHAPES:
            path = getattr(self, name)
            want = _MATRIX_SHAPES[name](self.n, self.m1, self.m2)
            if path.shape != want:
                raise SpecError(f"{name} has shape {path.shape}, expected {want}")
            if path.grid != self.grid:
                raise SpecError(f"{name} does not live on the spec grid")
        if self.G.shape != (self.n, self.n):
            raise SpecError(f"G has shape {self.G.shape}, expected {(self.n, self.n)}")


def build_spec(n, m1, m2, T, N, alpha, gamma, xi, G, **paths) -> GameSpec:
    """Assemble a GameSpec from constants, callables or MatrixPath values.

    Each coefficient may be given as a scalar/array constant, a callable
    t -> matrix, or an existing MatrixPath.  Every coefficient that is
    omitted or None becomes a zero path (a JSON spec, by contrast, may
    omit only sigma and f1).  A value that is not numeric, a callable's
    value of the wrong size, or a dimension or N that is no count
    (`as_count`), is a SpecError naming its field.
    """
    n, m1, m2 = (as_count(v, f"dimension {k!r}") for k, v in (("n", n), ("m1", m1), ("m2", m2)))
    grid = make_grid(T, N)

    def as_path(name, value):
        want, what = _MATRIX_SHAPES[name](n, m1, m2), f"matrix {name!r}"
        if value is None:
            return MatrixPath.zeros(grid, *want)
        if isinstance(value, MatrixPath):
            return value
        if callable(value):
            return MatrixPath.from_function(grid, lambda t: _floats(value(t), what, want))
        arr = _floats(value, what)
        if arr.size != want[0] * want[1]:
            raise SpecError(f"{name} has {arr.size} entries, expected shape {want}")
        return MatrixPath.constant(grid, arr.reshape(want))

    kwargs = {name: as_path(name, paths.get(name)) for name in _MATRIX_SHAPES}
    unknown = set(paths) - set(_MATRIX_SHAPES)
    if unknown:
        raise SpecError(f"unknown coefficient names: {sorted(unknown)}")
    return GameSpec(
        n=n, m1=m1, m2=m2, grid=grid, G=_floats(G, "matrix 'G'", (n, n)),
        alpha=float(_floats(alpha, "spec field 'alpha'", ())),
        gamma=float(_floats(gamma, "spec field 'gamma'", ())),
        xi=_floats(xi, "spec field 'xi'"), **kwargs,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    node: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def lines(self):
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            loc = "" if c.node is None else f" @node {c.node}"
            detail = f" ({c.detail})" if c.detail else ""
            out.append(f"{status:4s}  {c.name}{loc}{detail}")
        return out


def frobenius(stack) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, bit for bit the
    np.linalg.norm of each (the same dot product per matrix)."""
    flat = np.reshape(stack, (len(stack), 1, -1))
    return np.sqrt(flat @ flat.mT)[:, 0, 0]


def _first_asymmetric_node(path: MatrixPath):
    m = path.samples
    denom, gap = frobenius(m), frobenius(m - m.mT)
    bad = np.flatnonzero((gap > _SYMMETRY_RTOL * np.maximum(denom, 1e-300)) & (gap > 0.0))
    if bad.size == 0:
        return None
    k = int(bad[0])
    return k, gap[k], denom[k]


def _min_eig_over_nodes(path: MatrixPath):
    """Smallest eigenvalue over the nodes and the first node attaining it
    (a node whose eigenvalues are nan never counts)."""
    m = path.samples
    lam = np.linalg.eigvalsh(0.5 * (m + m.mT)).min(axis=1)
    lam = np.where(np.isnan(lam), np.inf, lam)
    k = int(np.argmin(lam))
    return lam[k], k


def validate_spec(spec: GameSpec, delta: float = 1e-8) -> ValidationReport:
    """Run the decidable standing-assumption checks on a spec.

    Covers finiteness, dimension consistency (already enforced on
    construction), symmetry of the weight matrices, strong positivity of
    R0 and R0hat (minimum eigenvalue >= delta at every node) and
    positivity of the attenuation parameters.  The functional-positivity
    assumptions that quantify over all disturbance processes are not
    decidable here; the montecarlo module probes them by sampling.  A
    delta that is not a positive finite number is a SpecError.
    """
    delta = float(_floats(delta, "delta", ()))
    if not (np.isfinite(delta) and delta > 0.0):
        raise SpecError(f"delta must be a positive finite number, got {delta}")
    checks = []

    def add(name, passed, detail="", node=None):
        checks.append(CheckResult(name, bool(passed), detail, node))

    add("horizon_positive", spec.grid.horizon > 0, f"T={spec.grid.horizon}")
    add("alpha_positive", spec.alpha > 0, f"alpha={spec.alpha}")
    add("gamma_positive", spec.gamma > 0, f"gamma={spec.gamma}")

    for name in _MATRIX_SHAPES:
        path = getattr(spec, name)
        finite = np.isfinite(path.samples).all()
        add(f"{name}_finite", finite)

    add("G_finite", np.isfinite(spec.G).all())
    add("xi_finite", np.isfinite(spec.xi).all())

    # a non-finite matrix already fails its _finite check; the nan its
    # symmetry gap then holds is judged quietly
    with np.errstate(invalid="ignore"):
        for name in _SYMMETRIC_FIELDS:
            bad = _first_asymmetric_node(getattr(spec, name))
            if bad is None:
                add(f"{name}_symmetric", True)
            else:
                k, gap, denom = bad
                add(f"{name}_symmetric", False, f"|M-M^T|={gap:.3e} vs |M|={denom:.3e}", k)
        g_gap = np.linalg.norm(spec.G - spec.G.T)
    add("G_symmetric", g_gap <= _SYMMETRY_RTOL * max(np.linalg.norm(spec.G), 1e-300) or g_gap == 0.0)

    for name in ("R0", "R0hat"):
        lam, node = _min_eig_over_nodes(getattr(spec, name))
        add(
            f"{name}_strongly_positive",
            lam >= delta,
            f"min eigenvalue {lam:.6e} vs delta {delta:.1e}",
            None if lam >= delta else node,
        )

    return ValidationReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# JSON spec files


def _path_to_json(path: MatrixPath):
    first = path.samples[0]
    if np.array_equal(path.samples, np.broadcast_to(first, path.samples.shape)):
        return {"constant": first.tolist()}
    return {
        "nodes": [
            {"t": float(t), "value": path.samples[k].tolist()}
            for k, t in enumerate(path.grid.nodes)
        ]
    }


def _floats(value, what, shape=None) -> np.ndarray:
    """value as a float array, reshaped when a shape is given; a SpecError
    naming `what` when it is not numeric or does not fit the shape.  Shape
    () takes a number only, not a one-entry array."""
    try:
        arr = np.asarray(value, dtype=float)
        if shape == () and arr.ndim:
            raise ValueError("reshape(()) would take any one-entry array")
        return arr if shape is None else arr.reshape(shape)
    except (TypeError, ValueError) as exc:
        fit = "" if shape is None else f" of shape {shape}"
        raise SpecError(f"{what} must be numeric{fit}, got {value!r}") from exc


def _object(value, what) -> dict:
    """value when it is a JSON object, else a SpecError naming `what`."""
    if not isinstance(value, dict):
        raise SpecError(f"{what} must be a JSON object, got {value!r:.40}")
    return value


def _path_from_json(grid: TimeGrid, obj, shape, name):
    obj = _object(obj, f"matrix {name!r}")
    if "constant" in obj:
        return MatrixPath.constant(grid, _floats(obj["constant"], f"matrix {name!r}", shape))
    if "nodes" not in obj:
        raise SpecError(f"matrix {name!r} must have a 'constant' or 'nodes' entry")
    nodes = obj["nodes"]
    if not nodes:
        raise SpecError(f"matrix {name!r} has an empty node list")
    try:
        times, values = [e["t"] for e in nodes], [e["value"] for e in nodes]
    except (KeyError, TypeError) as exc:
        raise SpecError(f"matrix {name!r} nodes must be entries with 't' and 'value'") from exc
    ts = _floats(times, f"node times of matrix {name!r}", (len(nodes),))
    if not np.isfinite(ts).all():
        raise SpecError(f"matrix {name!r} has a non-finite node time "
                        f"{ts[~np.isfinite(ts)][0]}")
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    vals = np.stack([_floats(values[i], f"matrix {name!r}", shape) for i in order])
    if np.any(np.diff(ts) == 0.0):
        raise SpecError(f"matrix {name!r} repeats a node time")
    if ts[0] > 0.0 or ts[-1] < grid.horizon:
        raise SpecError(f"matrix {name!r} nodes span [{ts[0]}, {ts[-1]}], "
                        f"which does not cover [0, {grid.horizon}]")

    t = grid.nodes
    j = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    w = ((t - ts[j]) / (ts[j + 1] - ts[j]))[:, None, None]
    return MatrixPath(grid, (1.0 - w) * vals[j] + w * vals[j + 1])


def load_spec(path, steps=None) -> GameSpec:
    """Parse a game specification from the JSON file at `path`, on `steps`
    steps in place of its N when given (`spec_from_dict`); a file that
    cannot be read as UTF-8 JSON is a SpecError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path}: malformed JSON at line {exc.lineno}, "
                        f"column {exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    return spec_from_dict(doc, steps)


def spec_from_dict(doc: dict, steps=None) -> GameSpec:
    """Assemble the document's game with `build_spec`, reading its
    constants and node lists onto a grid of N steps, or of `steps` in place
    of a valid N (an N that is no count still fails)."""
    doc = _object(doc, "spec document")
    try:
        n, m1, m2 = (as_count(doc[k], f"dimension {k!r}") for k in ("n", "m1", "m2"))
        T, N = doc["T"], as_count(doc["N"], "spec field 'N'")
        alpha, gamma, xi = doc["alpha"], doc["gamma"], doc["xi"]
        matrices = _object(doc["matrices"], "spec field 'matrices'")
    except KeyError as exc:
        raise SpecError(f"spec file missing required field {exc}") from exc
    if steps is not None:
        N = as_count(steps, "steps")
    grid = make_grid(T, N)
    if "G" not in matrices:
        raise SpecError("spec file missing matrix 'G'")
    gobj = _object(matrices["G"], "matrix 'G'")
    if "constant" not in gobj:
        raise SpecError("terminal weight G must be given as a constant matrix")

    paths = {}
    for name, shape in _MATRIX_SHAPES.items():
        if name in matrices:
            paths[name] = _path_from_json(grid, matrices[name], shape(n, m1, m2), name)
        elif name not in ("sigma", "f1"):
            raise SpecError(f"spec file missing matrix {name!r}")
    unknown = set(matrices) - set(_MATRIX_SHAPES) - {"G"}
    if unknown:
        raise SpecError(f"spec file has unknown matrices: {sorted(unknown)}")
    return build_spec(n, m1, m2, T, N, alpha, gamma, xi, gobj["constant"], **paths)


def spec_to_dict(spec: GameSpec) -> dict:
    matrices = {name: _path_to_json(getattr(spec, name)) for name in _MATRIX_SHAPES}
    matrices["G"] = {"constant": spec.G.tolist()}
    return {
        "n": spec.n,
        "m1": spec.m1,
        "m2": spec.m2,
        "T": spec.grid.horizon,
        "N": spec.grid.steps,
        "alpha": spec.alpha,
        "gamma": spec.gamma,
        "xi": spec.xi[:, 0].tolist(),
        "matrices": matrices,
    }


def dump_spec(spec: GameSpec, path):
    """Write a spec as JSON to the file at `path`; a spec written here
    re-parses identically."""
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
