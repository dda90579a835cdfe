import importlib

import pytest


@pytest.mark.parametrize("name", ["slopelab", "slopelab.arith",
                                  "slopelab.monodromy"])
def test_exports_resolve(name):
    # a name left in __all__ after its definition is gone breaks
    # `from package import *`
    package = importlib.import_module(name)
    missing = [attr for attr in package.__all__ if not hasattr(package, attr)]
    assert missing == []
