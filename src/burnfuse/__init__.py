"""Burnside modules of finite groups, fusion systems on Sylow p-subgroups,
characteristic idempotents, and the algebraic p-completion map.

Importing the package loads no submodule: each exported name is resolved
from its home module on first access (PEP 562), so a command imports only
the layers it runs.
"""

import importlib

_HOMES = {
    "burnside": ("BisetClass", "BurnsideElement", "ConcreteBiset", "augment",
                 "basis", "compose", "decompose", "ideal_power_membership",
                 "identity_element", "opposite", "realize", "restrict",
                 "ring_product", "semichar_embed"),
    "completion": ("CompletionReport", "complete", "complete_functor_check",
                   "splitting_idempotent_approx", "stable_rank_check",
                   "transfer_counterexample_check", "verify_splitting_sum"),
    "errors": ("BurnfuseError",),
    "fusion": ("FusionSystem", "StableElement", "a_fus",
               "characteristic_idempotent", "fusion_system",
               "is_fusion_preserving", "is_stable", "invert_stable",
               "stable_basis", "stabilize"),
    "groups": ("GroupHom", "PermGroup", "Subgroup", "homomorphisms",
               "parse_group", "subgroups_up_to_conjugacy", "sylow",
               "trivial_group"),
    "padic": ("PadicInt",),
}
# exported name -> the submodule that defines it
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
