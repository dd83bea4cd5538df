"""Child processes started by the tests import the same edgecolor as the tests do."""

import os

import pytest

import edgecolor

# helpers.py is not a test module; rewrite its asserts too, so its checks
# give pytest's messages and still run under python -O.
pytest.register_assert_rewrite("helpers")

_SRC = os.path.dirname(os.path.dirname(edgecolor.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
