"""1D meshes: sorted nodes, interior faces, face sizes, boundary tags, refinement."""

from dataclasses import dataclass

import numpy as np

__all__ = ["Mesh1D", "uniform_mesh", "refine"]

_TAGS = ("both", "left", "right", "none")


@dataclass(frozen=True)
class Mesh1D:
    """A partition x_0 < ... < x_n of an interval into n elements.

    Interior faces are the points x_1..x_{n-1}.  The face-size function assigns
    each interior face the average of its two neighbor element lengths and each
    boundary face the adjacent element length (a point has no diameter of its
    own, and this choice stays comparable to both neighbors).  Immutable;
    refinement returns a new mesh.
    """

    nodes: np.ndarray
    dirichlet: str = "both"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("need at least 2 elements")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if self.dirichlet not in _TAGS:
            raise ValueError(f"dirichlet tag {self.dirichlet!r} is not one of {_TAGS}")
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_elements(self):
        return self.nodes.size - 1

    @property
    def x_left(self):
        return float(self.nodes[0])

    @property
    def x_right(self):
        return float(self.nodes[-1])

    @property
    def element_sizes(self):
        return np.diff(self.nodes)

    @property
    def interior_faces(self):
        return self.nodes[1:-1]

    @property
    def interior_face_sizes(self):
        h = self.element_sizes
        return 0.5 * (h[:-1] + h[1:])

    @property
    def boundary_face_sizes(self):
        h = self.element_sizes
        return float(h[0]), float(h[-1])

    @property
    def dirichlet_left(self):
        return self.dirichlet in ("both", "left")

    @property
    def dirichlet_right(self):
        return self.dirichlet in ("both", "right")

    @property
    def max_h(self):
        return float(np.max(self.element_sizes))

    def element_of(self, x, side="left"):
        """Index of the element containing x; ties at a node resolved by side.

        An array x gives an int array of the same shape, a scalar an int.
        """
        x = np.asarray(x, dtype=float)
        if np.any((x < self.x_left - 1e-12) | (x > self.x_right + 1e-12)):
            raise ValueError("point outside mesh")
        i = np.clip(np.searchsorted(self.nodes, x, side=side) - 1, 0, self.n_elements - 1)
        return int(i) if i.ndim == 0 else i


def uniform_mesh(x_left, x_right, n, dirichlet="both"):
    """Uniform partition of (x_left, x_right) into n >= 2 equal elements."""
    if n < 2:
        raise ValueError("need n >= 2 elements")
    if not x_left < x_right:
        raise ValueError("need x_left < x_right")
    return Mesh1D(np.linspace(x_left, x_right, n + 1), dirichlet)


def refine(mesh):
    """Bisect every element; boundary tags are preserved."""
    nodes = mesh.nodes
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    out = np.empty(2 * mesh.n_elements + 1)
    out[0::2] = nodes
    out[1::2] = mids
    return Mesh1D(out, mesh.dirichlet)

