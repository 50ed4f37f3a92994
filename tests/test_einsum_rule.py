"""The algebraic layer and the torus fast path contract with matrix products or short einsums: an
``np.einsum`` there names fewer than five distinct indices in a literal subscript string. Without
``optimize``, einsum loops over every index tuple, so a five-index contraction costs n^5 steps (1e6 at
the schema cap n = 16) where a matmul or tensordot costs one BLAS call; on the torus, five component
indices cost 3^5 steps at every grid node."""

import ast
from pathlib import Path

import pytest

import grflow

MODULES = ("algebra", "connection", "curvature", "variation", "metric", "flow_ode", "exact_torus")
MAX_INDICES = 4


def einsum_violations(source: str) -> list[str]:
    """One line per use of ``einsum`` whose subscripts are not a literal string or name more than
    ``MAX_INDICES`` distinct indices; a use that is not a call (an alias, a bare reference) counts too."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr == "einsum"
                or isinstance(node, ast.Name) and node.id == "einsum"):
            continue
        call = calls.get(id(node))
        subs = call.args[0] if call is not None and call.args else None
        if not (isinstance(subs, ast.Constant) and isinstance(subs.value, str)):
            out.append(f"line {node.lineno}: einsum without literal subscripts")
        elif len({ch for ch in subs.value if ch.isalpha()}) > MAX_INDICES:
            out.append(f"line {node.lineno}: einsum over {subs.value!r}")
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_einsum_over_five_indices(module):
    path = Path(grflow.__file__).parent / f"{module}.py"
    assert einsum_violations(path.read_text()) == []


@pytest.mark.parametrize("source", [
    'np.einsum("da,eb,zg,dez->abg", p, p, p, t)',
    'np.einsum("abe,egd->abgd", c, c)',
    'np.einsum(f"a{i}z,{rest}->a{idx}", m, t)',
    'np.einsum(subscripts, m, t)',
    'contract = np.einsum',
    'einsum("abc,cde->abde", x, y)',
])
def test_rule_catches(source):
    assert einsum_violations(source)


def test_rule_passes_four_literal_indices():
    assert einsum_violations('np.einsum("mr,mnrs->ns", e, r)\nnp.einsum("ab,ab->", x, y)') == []
