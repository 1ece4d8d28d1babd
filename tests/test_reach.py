"""The reach check's bookkeeping (``tests/reach.py``), without its profiled run."""

import textwrap

import pytest

from tests import reach

MODULE = textwrap.dedent('''\
    import functools


    def used():
        return 1


    @functools.lru_cache
    @functools.wraps(used)
    def cached():
        def inner():
            return 2
        return inner()


    class Box:
        def bound(self):
            return 3
''')


@pytest.fixture
def module(tmp_path):
    (tmp_path / "mod.py").write_text(MODULE, encoding="utf-8")
    return str(tmp_path / "mod.py"), reach.definitions(tmp_path)


class TestDefinitions:
    def test_nested_definitions_are_keyed_under_their_parent(self, module):
        path, found = module
        assert sorted(found.values()) == [
            ("mod.Box.bound", 2), ("mod.cached", 6), ("mod.cached.inner", 2), ("mod.used", 2)]
        assert found[(path, 17)] == ("mod.Box.bound", 2)

    def test_a_decorated_def_starts_at_its_first_decorator(self, module):
        # a profile hook reports a decorated function's first decorator line
        path, found = module
        assert found[(path, 8)] == ("mod.cached", 6)
        assert (path, 10) not in found

    def test_every_allowed_name_is_defined(self):
        names = {name for name, _ in reach.definitions().values()}
        assert sorted(set(reach.ALLOWED) - names) == []

    def test_every_allowed_name_gives_its_reason(self):
        assert all(isinstance(why, str) and why.strip() for why in reach.ALLOWED.values())


class TestVerdict:
    def test_entered_definitions_pass(self, module, monkeypatch):
        path, found = module
        monkeypatch.setattr(reach, "ALLOWED", {})
        assert reach.verdict(found, set(found)) == ({}, [])

    def test_an_unreached_name_outside_the_allowlist_fails(self, module, monkeypatch):
        path, found = module
        monkeypatch.setattr(reach, "ALLOWED", {})
        unreached, problems = reach.verdict(found, set(found) - {(path, 4)})
        assert unreached == {"mod.used": 2}
        assert problems == ["mod.used: unreached and not in ALLOWED"]

    def test_an_allowlisted_unreached_name_passes(self, module, monkeypatch):
        path, found = module
        monkeypatch.setattr(reach, "ALLOWED", {"mod.Box.bound": "a reason"})
        assert reach.verdict(found, set(found) - {(path, 17)}) == ({"mod.Box.bound": 2}, [])

    def test_a_def_inside_an_unreached_def_is_not_listed_again(self, module, monkeypatch):
        path, found = module
        monkeypatch.setattr(reach, "ALLOWED", {"mod.cached": "a reason"})
        unreached, problems = reach.verdict(found, {(path, 4), (path, 17)})
        assert (unreached, problems) == ({"mod.cached": 6}, [])

    def test_a_reached_allowlisted_name_is_stale(self, module, monkeypatch):
        path, found = module
        monkeypatch.setattr(reach, "ALLOWED", {"mod.used": "a reason"})
        assert reach.verdict(found, set(found)) == ({}, ["mod.used: in ALLOWED but reached"])

    def test_an_undefined_allowlisted_name_is_stale(self, module, monkeypatch):
        path, found = module
        monkeypatch.setattr(reach, "ALLOWED", {"mod.gone": "a reason"})
        assert reach.verdict(found, set(found)) == ({}, ["mod.gone: in ALLOWED but not defined"])
