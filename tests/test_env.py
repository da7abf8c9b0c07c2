"""Regression tests for environment-flag truthiness (repro.env.env_bool).

Boolean ``$REPRO_*`` switches were once read with a bare
``os.environ.get(...)`` truthiness test, so setting one to ``0`` (any
non-empty value) silently *enabled* it.  ``env_bool`` fixes the word
list; these tests pin its semantics and its one reader,
``$REPRO_NO_NUMPY``.
"""

import pytest

from repro.env import env_bool


class TestEnvBool:
    @pytest.mark.parametrize(
        "value", ["0", "false", "no", "off", "", "FALSE", "No", " off ", "OFF"]
    )
    def test_false_words_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TEST_FLAG", value)
        assert env_bool("REPRO_TEST_FLAG") is False
        assert env_bool("REPRO_TEST_FLAG", default=True) is False

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "banana", " 1 "])
    def test_other_values_enable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TEST_FLAG", value)
        assert env_bool("REPRO_TEST_FLAG") is True

    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_bool("REPRO_TEST_FLAG") is False
        assert env_bool("REPRO_TEST_FLAG", default=True) is True


class TestNumpyOptOut:
    def test_no_numpy_false_words_keep_numpy(self, monkeypatch):
        from repro.analysis import reusedist

        monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
        baseline = reusedist._numpy()
        monkeypatch.setenv("REPRO_NO_NUMPY", "0")
        assert reusedist._numpy() is baseline
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert reusedist._numpy() is None
