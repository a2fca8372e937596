"""Kernelization, exact solving and moment verification for three problems
parameterized above tight lower bounds: maximum acyclic subdigraph weight
above W/2, weighted GF(2) equation satisfaction above W/2, and exact-width
CNF satisfaction above (1 - 2^-r)m.

Functions live in their modules (``linord``, ``maxlin``, ``rsat``,
``moments``, ...); the package root holds only the four instance types."""

from .linord import WeightedDigraph
from .maxlin import Lin2Equation, Lin2System
from .rsat import ExactCnfFormula
