"""Soft prototype estimation from a batch of features.

Given batch features V (|B| x D) and fixed category directions T (M x D),
the association map is the cosine matrix A(i, j) = cos(V_i, T_j) with a
per-row softmax A_norm. Each category's prototype is the A_norm-weighted
average of the batch features for that category's column, so prototypes
always live in the convex hull of the batch. Everything is computed from
the current batch alone; no state is carried between batches.

All outputs are graph nodes when V is a graph node, so the downstream
losses differentiate through both the map and the prototypes.
"""

from dataclasses import dataclass

from . import numerics as num


@dataclass
class AssociationMap:
    """raw: |B| x M cosine matrix in [-1, 1]; norm: its row softmax."""

    raw: object
    norm: object


@dataclass
class Prototypes:
    """p: M x D prototype matrix; mass: the M column sums of A_norm."""

    p: object
    mass: object


def association_map(v, t) -> AssociationMap:
    """Cosine association between batch features and category directions,
    with the row-stochastic normalization used by every loss."""
    raw = num.cosine_similarity_matrix(v, t)
    return AssociationMap(raw=raw, norm=num.row_softmax(raw))


def estimate_prototypes(assoc: AssociationMap, v) -> Prototypes:
    """P_j = sum_k A_norm(k, j) V_k / sum_k A_norm(k, j).

    The softmax keeps every column sum strictly positive, so the division
    is always defined and the weights A_norm(., j) / mass_j are a convex
    combination.
    """
    norm = assoc.norm
    mass = num.sum_axis(norm, axis=0)
    weighted = num.matmul(num.transpose(norm), v)
    m = num.value_of(norm).shape[1]
    p = num.div(weighted, num.reshape(mass, (m, 1)))
    return Prototypes(p=p, mass=mass)
