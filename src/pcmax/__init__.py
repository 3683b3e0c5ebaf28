"""pcmax: exact arithmetic and automorphism-family verification for finite
p-groups of maximal class, built on weighted power-commutator presentations."""

__version__ = "0.1.0"
DEFAULT_SEED = 0x5EED_C0DE_2026  # fixed default seed, echoed in every report

from .pcgroup import Element, PcPresentation, SeriesChain, Subgroup  # noqa: F401
