"""Child processes started by the tests import the same edgecolor as the tests do."""

import os

import edgecolor

_SRC = os.path.dirname(os.path.dirname(edgecolor.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
