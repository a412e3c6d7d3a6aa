"""Guard the documented public API surface.

Every name a package advertises in ``__all__`` must actually resolve,
and the top-level conveniences the README shows must exist.  This test
fails when a refactor renames something without updating the exports.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.sim",
    "repro.gossip",
    "repro.astrolabe",
    "repro.multicast",
    "repro.pubsub",
    "repro.news",
    "repro.baselines",
    "repro.workloads",
    "repro.obs",
    "repro.experiments",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    assert exported, f"{package_name} should declare __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_readme_quickstart_surface():
    import repro

    assert callable(repro.build_newswire)
    assert callable(repro.Subscription)
    assert callable(repro.NewsWireConfig)
    assert repro.__version__ == "1.0.0"


def test_experiment_drivers_all_present():
    import repro.experiments as experiments

    for index in range(1, 12):
        assert callable(getattr(experiments, f"run_e{index}"))


def test_key_cross_package_types_are_shared():
    """The same class object must be reachable from every façade that
    re-exports it (no duplicate definitions)."""
    from repro import Subscription as top
    from repro.pubsub import Subscription as mid
    from repro.pubsub.subscription import Subscription as deep

    assert top is mid is deep

    from repro.core import ZonePath as a
    from repro.core.identifiers import ZonePath as b

    assert a is b
