"""Toolkit for analyzing softmax confidence as an out-of-distribution
detection signal: uncertainty estimators and their gradients, GMM density
scoring, valid-OOD-region geometry, decision-boundary structure synthesis
and audits, AUROC attribution, and a desk-scale reference-network trainer.
"""

__version__ = "0.1.0"
