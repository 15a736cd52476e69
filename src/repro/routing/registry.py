"""Router registry.

Maps protocol names (as used by the experiment configs, benchmarks and
examples) to router factories.  The paper's own protocols (``eer``, ``cr``)
are resolved lazily from :mod:`repro.core` to keep the import graph acyclic.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict

from repro.routing.base import Router

#: explicit user registrations (name -> zero-state factory)
ROUTER_REGISTRY: Dict[str, Callable[..., Router]] = {}

#: built-in protocols, resolved lazily as "module:ClassName"
_BUILTIN: Dict[str, str] = {
    "epidemic": "repro.routing.epidemic:EpidemicRouter",
    "direct": "repro.routing.direct:DirectDeliveryRouter",
    "first-contact": "repro.routing.first_contact:FirstContactRouter",
    "prophet": "repro.routing.prophet:ProphetRouter",
    "maxprop": "repro.routing.maxprop:MaxPropRouter",
    "spray-and-wait": "repro.routing.spray_and_wait:SprayAndWaitRouter",
    "spray-and-focus": "repro.routing.spray_and_focus:SprayAndFocusRouter",
    "ebr": "repro.routing.ebr:EBRRouter",
    "eer": "repro.core.eer:EERRouter",
    "cr": "repro.core.cr:CommunityRouter",
    "cr-kclique": "repro.core.cr:CommunityRouter",
    "cr-newman": "repro.core.cr:CommunityRouter",
}

#: frozen default parameters for built-in aliases (user params override);
#: this is how one router class surfaces as several CLI-visible protocols —
#: CR's community source (oracle assignment vs online detection) is the
#: distinguishing parameter, see repro.community.provider.
#: kclique defaults detection_min_weight=3: k-clique percolation needs the
#: weak one-off inter-community edges filtered or the near-complete contact
#: graph makes maximal-clique enumeration combinatorial.
_BUILTIN_DEFAULTS: Dict[str, Dict[str, object]] = {
    "cr-kclique": {"community_mode": "kclique", "detection_min_weight": 3.0},
    "cr-newman": {"community_mode": "newman"},
}


#: one-line summaries for the CLI's ``list`` output and docs/protocols.md
_SUMMARIES: Dict[str, str] = {
    "epidemic": "flood every contact (Vahdat & Becker 2000)",
    "direct": "source holds until it meets the destination "
              "(Grossglauser & Tse 2002)",
    "first-contact": "single copy, forwarded to the first contact "
                     "(Jain et al. 2004)",
    "prophet": "delivery predictability with transitivity "
               "(Lindgren et al. 2003)",
    "maxprop": "priority schedule from delivery likelihood "
               "(Burgess et al. 2006)",
    "spray-and-wait": "binary replica quota, then direct delivery "
                      "(Spyropoulos et al. 2005)",
    "spray-and-focus": "spray, then utility-based single-copy focus "
                       "(Spyropoulos et al. 2007)",
    "ebr": "encounter-ratio-proportional replica splitting "
           "(Nelson et al. 2009)",
    "eer": "expected-encounter-based replication (the paper, Sec. IV-A)",
    "cr": "community-aware expected-encounter routing (the paper, Sec. IV-B)",
    "cr-kclique": "CR with communities detected online by k-clique "
                  "percolation (no oracle assignment)",
    "cr-newman": "CR with communities detected online by Newman greedy "
                 "modularity (no oracle assignment)",
}


def register_router(name: str, factory: Callable[..., Router],
                    summary: str = "") -> None:
    """Register a custom router factory under *name* (overrides built-ins).

    Parameters
    ----------
    name:
        Protocol name as used by scenario configs and the CLI.
    factory:
        Callable returning a fresh :class:`~repro.routing.base.Router`.
    summary:
        Optional one-liner shown by ``python -m repro list``.
    """
    if not callable(factory):
        raise TypeError("factory must be callable")
    ROUTER_REGISTRY[name] = factory
    if summary:
        _SUMMARIES[name] = summary


def router_summary(name: str) -> str:
    """One-line description of a protocol ("" when none was provided)."""
    return _SUMMARIES.get(name, "")


def available_routers() -> list:
    """Names of all known protocols (built-in and registered)."""
    return sorted(set(_BUILTIN) | set(ROUTER_REGISTRY))


#: built-in "module:ClassName" specs already imported -> their class
_RESOLVED: Dict[str, type] = {}


def _resolve(spec: str) -> type:
    """Import the class named by a built-in *spec* once, then reuse it."""
    cls = _RESOLVED.get(spec)
    if cls is None:
        module_name, _, class_name = spec.partition(":")
        cls = getattr(importlib.import_module(module_name), class_name)
        _RESOLVED[spec] = cls
    return cls


def create_router(name: str, **params) -> Router:
    """Instantiate the router registered under *name* with *params*.

    Raises
    ------
    KeyError
        If no router is registered under *name*.
    """
    if name in ROUTER_REGISTRY:
        return ROUTER_REGISTRY[name](**params)
    spec = _BUILTIN.get(name)
    if spec is None:
        raise KeyError(
            f"unknown router {name!r}; known: {', '.join(available_routers())}")
    cls = _resolve(spec)
    defaults = _BUILTIN_DEFAULTS.get(name)
    if defaults:
        params = {**defaults, **params}
    return cls(**params)
