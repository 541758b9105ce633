"""Burnside modules of finite groups, fusion systems on Sylow p-subgroups,
characteristic idempotents, and the algebraic p-completion map."""

from .burnside import (BisetClass, BurnsideElement, ConcreteBiset, augment,
                       basis, compose, decompose, ideal_power_membership,
                       identity_element, opposite, realize, restrict,
                       ring_product, semichar_embed)
from .completion import (CompletionReport, complete, complete_functor_check,
                         splitting_idempotent_approx, stable_rank_check,
                         transfer_counterexample_check, verify_splitting_sum)
from .errors import BurnfuseError
from .fusion import (FusionSystem, StableElement, a_fus,
                     characteristic_idempotent, fusion_system,
                     is_fusion_preserving, is_stable, invert_stable,
                     stable_basis, stabilize)
from .groups import (GroupHom, PermGroup, Subgroup, double_cosets,
                     homomorphisms, parse_group, subgroups_up_to_conjugacy,
                     sylow, trivial_group)
from .padic import PadicInt

__all__ = [
    "BisetClass", "BurnsideElement", "BurnfuseError", "CompletionReport",
    "ConcreteBiset", "FusionSystem", "GroupHom", "PadicInt", "PermGroup",
    "StableElement", "Subgroup",
    "a_fus", "augment", "basis", "characteristic_idempotent", "complete",
    "complete_functor_check", "compose", "decompose", "double_cosets",
    "fusion_system", "homomorphisms", "ideal_power_membership",
    "identity_element", "invert_stable", "is_fusion_preserving", "is_stable",
    "opposite", "parse_group", "realize", "restrict", "ring_product",
    "semichar_embed", "splitting_idempotent_approx", "stable_basis",
    "stable_rank_check", "stabilize", "subgroups_up_to_conjugacy", "sylow",
    "transfer_counterexample_check", "trivial_group", "verify_splitting_sum",
]

__version__ = "0.1.0"
