"""Training losses: reconstruction, contrastive alignment, entropy.

The combined objective drives adapter tuning:

    total = L_ent + alpha * L_pir + beta * L_ca

L_pir rebuilds each feature from the prototypes through its own
association row and penalizes the squared error against the original
feature, L_ca is a symmetric InfoNCE between prototypes and category
directions over cosine logits, and L_ent is the mean Shannon entropy of
the association rows. Gradients flow through V everywhere it appears:
map, prototypes, reconstruction, and the reconstruction target.

The losses take the plain tape values of ``association``: the map
A_norm and the prototype matrix P. ``total_objective`` returns the pair
``(total, LossBreakdown)``: the total's tape node, to differentiate, and
the components as floats, which hold no graph.
"""

from dataclasses import dataclass

from . import numerics as num
from .association import association_map, estimate_prototypes
from .errors import ConfigError, DimensionError


@dataclass
class LossBreakdown:
    """Loss components as plain floats. With the weights
    ``total_objective`` was called with, total = l_ent + alpha*l_pir +
    beta*l_ca."""

    l_ent: float
    l_pir: float
    l_ca: float
    total: float


def reconstruct(a, p):
    """V_hat_i = sum over categories k of A_norm(i, k) P_k."""
    return num.matmul(a, p)


def loss_pir(v_hat, v):
    """Mean over the batch of the squared reconstruction error."""
    hv, vv = num.value_of(v_hat), num.value_of(v)
    if hv.shape != vv.shape:
        raise DimensionError(f"shape mismatch {hv.shape} vs {vv.shape}")
    b = hv.shape[0]
    return num.mul(num.squared_norm(num.sub(v_hat, v)), 1.0 / b)


def loss_ca(p, t):
    """Symmetric InfoNCE aligning prototype row i of ``p`` with category
    direction i, over the cosine logits as they are."""
    pv, tv = num.value_of(p), num.value_of(t)
    if pv.shape[0] < 2:
        raise ConfigError(f"contrastive alignment needs M >= 2, got {pv.shape[0]}")
    if pv.shape[0] != tv.shape[0]:
        raise DimensionError(f"{pv.shape[0]} prototypes vs {tv.shape[0]} categories")
    s = num.cosine_similarity_matrix(p, t)
    m = pv.shape[0]
    p2c = num.mul(num.total_sum(num.log(num.diag_part(num.row_softmax(s)))), -1.0 / m)
    c2p = num.mul(
        num.total_sum(num.log(num.diag_part(num.row_softmax(num.transpose(s))))),
        -1.0 / m,
    )
    return num.mul(num.add(p2c, c2p), 0.5)


def loss_entropy(a):
    """Mean Shannon entropy of the association rows (0 log 0 = 0)."""
    b = num.value_of(a).shape[0]
    return num.mul(num.total_sum(num.xlogx(a)), -1.0 / b)


def total_objective(v, t, alpha: float = 1.0, beta: float = 1.0):
    """Compose map -> prototypes -> reconstruction -> weighted losses;
    returns the total's tape node and the LossBreakdown of floats.

    Zero-weighted terms are left out of the graph entirely, so alpha =
    beta = 0 gives a total node identical to the entropy node. Component
    values are always reported.
    """
    if alpha < 0 or beta < 0:
        raise ConfigError(f"loss weights must be >= 0, got alpha={alpha} beta={beta}")
    a = association_map(v, t)
    p = estimate_prototypes(a, v)
    v_hat = reconstruct(a, p)
    ent = loss_entropy(a)
    pir = loss_pir(v_hat, v)
    ca = loss_ca(p, t)
    total = ent
    if alpha != 0.0:
        total = num.add(total, num.mul(pir, alpha))
    if beta != 0.0:
        total = num.add(total, num.mul(ca, beta))
    return total, LossBreakdown(*(float(num.value_of(x)) for x in (ent, pir, ca, total)))
