"""Soft prototype estimation from a batch of features.

Given batch features V (|B| x D) and fixed category directions T (M x D),
the association map A_norm is the per-row softmax of the cosine matrix
cos(V_i, T_j). Each category's prototype is the A_norm-weighted average
of the batch features for that category's column, so prototypes always
live in the convex hull of the batch. Everything is computed from the
current batch alone; no state is carried between batches.

A_norm and the prototype matrix P are plain tape values: graph nodes
when V is a graph node, so the downstream losses differentiate through
both, and ndarrays otherwise.
"""

from . import numerics as num


def association_map(v, t):
    """A_norm: the row softmax of the cosine association between batch
    features and category directions, used by every loss."""
    return num.row_softmax(num.cosine_similarity_matrix(v, t))


def estimate_prototypes(a, v):
    """P_j = sum_k A_norm(k, j) V_k / sum_k A_norm(k, j).

    The softmax keeps every column sum strictly positive, so the division
    is always defined and the weights A_norm(., j) / mass_j are a convex
    combination.
    """
    mass = num.sum_axis(a, axis=0)
    weighted = num.matmul(num.transpose(a), v)
    return num.div(weighted, num.reshape(mass, (-1, 1)))
