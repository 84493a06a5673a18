"""Cantor-Bendixson process on tree-presented profinite spaces.

A SpaceTree is a finite tower of point sets with surjective bonds; the
profinite space it presents is the inverse limit.  Each *thread* (point of
the top level, standing for the cylinder of limit points above it) carries a
certificate supplied by whoever built the tree:

  * scattered(m): the cylinder contains exactly one point of height m and
    only points of smaller height below it, so the thread's limit point is
    removed at derivative stage m.
  * perfect: the cylinder lies in the perfect hull.
  * unknown: no family lemma applies; treated pessimistically.

Rank convention (matching the worked examples here): the empty space has
rank 0, a non-empty discrete space rank 1; generally the rank of a
scattered space is (max height) + 1, the minimal stage whose derivative
chain has stabilised at the empty set.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

from ._kernels import orbit_labels

CONVENTION = "rank(empty)=0, rank(non-empty discrete)=1"


class DepthExhausted(Exception):
    """The derivative process needed more stages than the tree can certify."""


@dataclass(frozen=True)
class ThreadCert:
    kind: str  # "scattered" | "perfect" | "unknown"
    m: int | None = None  # residual height, for scattered threads
    reason: str = ""

    def __post_init__(self):
        if self.kind not in ("scattered", "perfect", "unknown"):
            raise ValueError(f"bad certificate kind {self.kind!r}")
        if (self.kind == "scattered") != (self.m is not None):
            raise ValueError("scattered certificates and only they carry m")


@dataclass
class SpaceTree:
    """levels[k] are point labels; bonds[k] maps level-(k+1) indices down."""

    levels: list[list[str]]
    bonds: list[list[int]]
    certs: list[ThreadCert]
    actions: list[list[tuple[int, ...]]] | None = None
    chain: str = ""

    def __post_init__(self):
        if len(self.bonds) != len(self.levels) - 1:
            raise ValueError("need one bond per consecutive level pair")
        for k, bond in enumerate(self.bonds):
            if len(bond) != len(self.levels[k + 1]):
                raise ValueError(f"bond {k} has wrong domain size")
            if set(bond) != set(range(len(self.levels[k]))):
                raise ValueError(f"bond {k} is not surjective")
        if len(self.certs) != self.top_size:
            raise ValueError("need one certificate per thread")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def top_size(self) -> int:
        return len(self.levels[-1])

    def thread_point(self, t: int, k: int) -> int:
        """The level-k point under thread t."""
        x = t
        for j in range(self.depth - 1, k - 1, -1):
            x = self.bonds[j][x]
        return x

    def fiber(self, k: int, x: int) -> list[int]:
        """Preimage in level k+1 of point x in level k."""
        return [y for y, img in enumerate(self.bonds[k]) if img == x]


# ---------------------------------------------------------------------------
# the derivative process


@dataclass
class RankCertificate:
    verdict: str  # "Exact" | "Interval" | "PerfectHullDetected"
    rank: int | None = None  # Exact value, or the stage for PerfectHull
    lo: int | None = None  # Interval lower bound
    hi: int | None = None  # Interval upper bound (None = unbounded)
    trace: list[dict] = field(default_factory=list)
    chain: str = ""
    convention: str = CONVENTION

    def as_dict(self) -> dict:
        """The certificate's JSON: its fields and "schema": 1."""
        return {"schema": 1, **asdict(self)}


def cb_rank(X: SpaceTree) -> RankCertificate:
    """Iterate the derivative, reading removal stages off the certificates."""
    trace: list[dict] = []
    remaining = list(range(X.top_size))
    labels = X.levels[-1]
    unknowns = [t for t in remaining if X.certs[t].kind == "unknown"]
    # every stage returns, raises, or removes at least one thread
    for stage in itertools.count():
        if not remaining:
            return RankCertificate("Exact", rank=stage, trace=trace, chain=X.chain)
        kinds = {X.certs[t].kind for t in remaining}
        if kinds == {"perfect"}:
            trace.append({"stage": stage, "removed": [], "note": "stage equals its derivative"})
            return RankCertificate(
                "PerfectHullDetected", rank=stage, trace=trace, chain=X.chain
            )
        removed = [
            t
            for t in remaining
            if X.certs[t].kind == "scattered" and X.certs[t].m == stage
        ]
        if unknowns:
            scattered_m = [c.m for c in X.certs if c.kind == "scattered"]
            lo = max([m + 1 for m in scattered_m], default=0)
            lo = max(lo, 1)  # the space is non-empty
            trace.append(
                {"stage": stage, "removed": [labels[t] for t in removed],
                 "undecided": [labels[t] for t in unknowns]}
            )
            return RankCertificate("Interval", lo=lo, hi=None, trace=trace, chain=X.chain)
        if not removed and "scattered" in kinds:
            raise DepthExhausted(
                f"no thread removable at stage {stage}; certificates exhausted"
            )
        trace.append(
            {"stage": stage,
             "removed": [labels[t] for t in removed],
             "certs": [f"scattered(m={X.certs[t].m})" for t in removed]}
        )
        gone = set(removed)
        remaining = [t for t in remaining if t not in gone]


@dataclass
class HeightReport:
    heights: dict[str, int]  # certified thread -> height
    lower_bounds: dict[str, str]  # undecided thread -> ">= d" marker
    hull: list[str]  # perfect threads carry no height


def heights(X: SpaceTree) -> HeightReport:
    hts: dict[str, int] = {}
    lbs: dict[str, str] = {}
    hull: list[str] = []
    for t, c in enumerate(X.certs):
        label = X.levels[-1][t]
        if c.kind == "scattered":
            hts[label] = c.m
        elif c.kind == "perfect":
            hull.append(label)
        else:
            lbs[label] = ">= 0"
    return HeightReport(hts, lbs, hull)


# ---------------------------------------------------------------------------
# equivariance


def _orbit_labels(X: SpaceTree, k: int) -> list[int]:
    """Orbit label of each level-k point under that level's permutations."""
    return orbit_labels(X.actions[k] if X.actions else [], len(X.levels[k]))


def check_equivariant_heights(X: SpaceTree) -> bool:
    """Heights constant on orbits, actions compatible with bonds, and every
    certified point of positive height has ≥ 2 orbits in each bond fiber."""
    if X.actions is not None:
        if len(X.actions) != X.depth + 1:
            return False
        for k in range(X.depth):
            na, nb = len(X.levels[k + 1]), len(X.levels[k])
            for pa, pb in zip(X.actions[k + 1], X.actions[k]):
                if len(pa) != na or len(pb) != nb:
                    return False
                # bond o (g on level k+1) must equal (g on level k) o bond
                if any(X.bonds[k][pa[x]] != pb[X.bonds[k][x]] for x in range(na)):
                    return False
    certs: dict[int, set] = {}
    for t, lab in enumerate(_orbit_labels(X, X.depth)):
        certs.setdefault(lab, set()).add((X.certs[t].kind, X.certs[t].m))
    if any(len(c) > 1 for c in certs.values()):
        return False
    # second clause: positive-height points sit on fibers meeting >= 2 orbits
    labels = [_orbit_labels(X, k + 1) for k in range(X.depth)]
    for t, c in enumerate(X.certs):
        if c.kind != "scattered" or c.m == 0:
            continue
        for k in range(X.depth):
            fiber = X.fiber(k, X.thread_point(t, k))
            if len({labels[k][y] for y in fiber}) < 2:
                return False
    return True
