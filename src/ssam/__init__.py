"""Adapter-only test-time adaptation with soft category associations.

Frozen toy encoders (attention and convolutional families) expose a
small additive adapter; an unlabeled stream is adapted by minimizing
association entropy plus prototype-reconstruction and contrastive
alignment terms, all differentiated by the built-in reverse-mode tape.
"""

from . import adaptation, association, bench, encoders, errors, numerics, objectives
