"""Unit tests for the router registry."""

import pytest

from repro.core.cr import CommunityRouter
from repro.core.eer import EERRouter
from repro.routing.base import Router
from repro.routing import registry
from repro.routing.epidemic import EpidemicRouter
from repro.routing.registry import (
    ROUTER_REGISTRY,
    available_routers,
    create_router,
    register_router,
)


def test_all_builtin_protocols_instantiate():
    for name in available_routers():
        router = create_router(name)
        assert isinstance(router, Router)
        assert router.node is None


def test_papers_protocols_resolve_to_core_classes():
    assert isinstance(create_router("eer"), EERRouter)
    assert isinstance(create_router("cr"), CommunityRouter)


def test_parameters_forwarded_to_factory():
    router = create_router("eer", alpha=0.5, window_size=7)
    assert router.alpha == 0.5
    assert router.window_size == 7
    snw = create_router("spray-and-wait", binary=False)
    assert snw.binary is False


def test_unknown_router_raises_with_known_names():
    with pytest.raises(KeyError) as excinfo:
        create_router("does-not-exist")
    assert "epidemic" in str(excinfo.value)


def test_register_custom_router_overrides_and_lists():
    class MyRouter(Router):
        name = "custom-test"

    register_router("custom-test", MyRouter)
    assert "custom-test" in available_routers()
    assert isinstance(create_router("custom-test"), MyRouter)


def test_register_requires_callable():
    with pytest.raises(TypeError):
        register_router("bad", "not callable")


def test_builtin_classes_are_imported_once(monkeypatch):
    calls = []
    real_import = registry.importlib.import_module

    def counting_import(name):
        calls.append(name)
        return real_import(name)

    monkeypatch.setattr(registry, "_RESOLVED", {})
    monkeypatch.setattr(registry.importlib, "import_module", counting_import)
    routers = [create_router("epidemic") for _ in range(5)]
    assert calls == ["repro.routing.epidemic"]
    assert all(type(router) is EpidemicRouter for router in routers)
    # aliases of one class share the resolution
    create_router("cr")
    create_router("cr-newman", detection_staleness=5.0)
    assert calls == ["repro.routing.epidemic", "repro.core.cr"]


def test_registrations_win_over_resolved_builtins():
    class Shadow(Router):
        name = "epidemic"

    assert type(create_router("epidemic")) is EpidemicRouter  # memoised
    register_router("epidemic", Shadow)
    try:
        assert type(create_router("epidemic")) is Shadow
    finally:
        del ROUTER_REGISTRY["epidemic"]
    assert type(create_router("epidemic")) is EpidemicRouter
    with pytest.raises(KeyError):
        create_router("no-such-protocol")
