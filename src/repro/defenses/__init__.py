"""Defense applications of ROLoad and their software baselines.

* :class:`VCallProtection` — per-class-keyed vtables + ``ld.ro`` vtable
  loads (§IV-A).
* :class:`TypeBasedCFI` — GFPT-based type-keyed forward-edge CFI
  (§IV-B, "ICall").
* :class:`VTintBaseline` — software range checks (the VTint port the
  paper compares VCall against).
* :class:`LabelCFIBaseline` — inline-ID CFI (the "CFI" the paper
  compares ICall against).
* :class:`KeyedAllowlist` — the generic §IV-C allowlist recipe.
* :class:`ReturnProtection` — backward-edge return-site allowlists
  (§IV-C), as a compiler pass.
"""

from repro.defenses.allowlist import KeyedAllowlist
from repro.defenses.base import Defense
from repro.defenses.compose import describe_keys, full_hardening
from repro.defenses.cfi_label import LabelCFIBaseline, id_word, type_id
from repro.defenses.icall import TypeBasedCFI, gfpt_symbol
from repro.defenses.retprotect import ReturnProtection, \
    retsite_table_symbol
from repro.defenses.vcall import VCallProtection
from repro.defenses.vtint import VTintBaseline

__all__ = [
    "KeyedAllowlist", "Defense", "describe_keys", "full_hardening",
    "LabelCFIBaseline", "id_word", "type_id",
    "TypeBasedCFI", "gfpt_symbol", "ReturnProtection",
    "retsite_table_symbol", "VCallProtection", "VTintBaseline",
]
