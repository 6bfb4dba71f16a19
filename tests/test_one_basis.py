"""One horizontal basis for every quotient geometry.

``quotient.horizontal_basis`` pulls the embedded orthonormal basis back
through L^-1, so no geometry class writes a basis of its own, and the
helper that joined the blocks of hand-written bases is gone.
"""

from georank import linalg, quotient


def _with_basis(geometries):
    """Names of the geometry classes that define or inherit ``basis``."""
    return [type(geo).__name__ for geo in geometries if hasattr(type(geo), "basis")]


def test_guard_sees_a_basis_method():
    class WithBasis(quotient.PsdQ2):
        def basis(self, z, wt):
            return ()

    assert _with_basis([WithBasis(), *quotient.REGISTRY.values()]) == ["WithBasis"]


def test_no_geometry_defines_a_basis():
    assert _with_basis(quotient.REGISTRY.values()) == []


def test_linalg_has_no_block_joiner():
    assert not hasattr(linalg, "stack_blocks")
