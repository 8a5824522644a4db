"""The package's public surface: what `from paigeloops import ...` reaches."""

import inspect
import types

import paigeloops


def test_all_is_the_public_surface():
    public = {name for name, value in vars(paigeloops).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(paigeloops.__all__) == public | {"__version__"}
    assert len(paigeloops.__all__) == len(set(paigeloops.__all__)) == 59
    for name in ("Octonion", "norm_one_elements", "two_unit_decompose",
                 "loop_divide", "first_nonassociative_triple",
                 "coordinate_loop"):
        assert not hasattr(paigeloops, name)


def test_triality_is_based_at_the_identity_point():
    assert list(inspect.signature(paigeloops.build_triality).parameters) \
        == ["net"]
    assert "origin" not in paigeloops.TrialitySetup.__dataclass_fields__
