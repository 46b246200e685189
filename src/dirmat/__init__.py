"""Exact matroid, polynomial, and electrical invariants of networks with
boundary, built from groves, biased-graph lifts, and linear representations
that must always agree."""

from .errors import DomainError
from .network import EH, MultiGraph, Network
from .circular import CircularNetwork, dual_network, validate_embedding
from .dirichlet import dirichlet_matroid
from .families import FAMILIES, parse_generator
from .matroid import Matroid

__all__ = [
    "EH",
    "FAMILIES",
    "CircularNetwork",
    "DomainError",
    "Matroid",
    "MultiGraph",
    "Network",
    "dirichlet_matroid",
    "dual_network",
    "parse_generator",
    "validate_embedding",
]

__version__ = "0.1.0"
