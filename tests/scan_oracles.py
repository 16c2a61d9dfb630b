"""The oracles that production fast paths are checked against: the
definitional smallness scans, plain and in a quotient, and lifting by
the criterion "amply supplemented, and every coclosed submodule is a
direct summand"."""

from modlab.lattice import is_small_over, submodules
from modlab.structure import is_amply_supplemented, is_coclosed, summand_keys


def small_scan(node):
    """A << M by the definition: no proper node B has A + B = M."""
    m = node.parent
    return is_small_over(m, node, m.zero_submodule(), frozenset(m.elements()))


def small_in_quotient_scan(a, n, module):
    """A/N << M/N by the definition: no proper node B >= N has A + B = M."""
    return is_small_over(module, a, n, frozenset(module.elements()))


def lifting_by_coclosed(module):
    """Lifting for amply supplemented modules: every coclosed submodule is
    a direct summand."""
    if not is_amply_supplemented(module):
        return False
    summands = summand_keys(module)
    return all(s.key in summands for s in submodules(module).nodes if is_coclosed(s, module))
