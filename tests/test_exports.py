import pytest

import ultron
import ultron.codec
import ultron.mesh


@pytest.mark.parametrize("package", [ultron, ultron.codec, ultron.mesh],
                         ids=lambda p: p.__name__)
def test_every_export_resolves(package):
    # a deleted name must leave its package's __all__ too
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)
