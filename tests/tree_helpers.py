"""Space trees that only the tests build: the empty and finite discrete
spaces and the full binary tree."""

from profmack.cbrank import SpaceTree, ThreadCert


def discrete_tree(labels: list[str], chain: str = "discrete") -> SpaceTree:
    """A constant tree of bijective bonds: a finite discrete space."""
    n = len(labels)
    return SpaceTree(
        levels=[list(labels), list(labels)],
        bonds=[list(range(n))],
        certs=[ThreadCert("scattered", 0, "constant finite tree")] * n,
        chain=chain,
    )


def empty_tree(chain: str = "empty") -> SpaceTree:
    return SpaceTree(levels=[[]], bonds=[], certs=[], chain=chain)


def binary_tree(depth: int, certified: bool = False) -> SpaceTree:
    """Full binary tree; the limit is a Cantor set (perfect).

    With certified=False every thread is unknown (no lemma supplied); with
    certified=True the threads carry perfect certificates.
    """
    levels = [[format(x, f"0{k}b") if k else "*" for x in range(2**k)] for k in range(depth + 1)]
    bonds = [[x >> 1 for x in range(2 ** (k + 1))] for k in range(depth)]
    cert = ThreadCert("perfect", reason="full binary tree") if certified else ThreadCert("unknown")
    return SpaceTree(levels, bonds, [cert] * 2**depth, chain="binary")
