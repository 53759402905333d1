"""Property test: the array form and the loops agree on random products.

Hypothesis draws the cases from a fixed seed (`derandomize`) and keeps no
example database, so the suite stays deterministic. (`conftest.py` moves
Hypothesis's cache out of the checkout.)
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sparsec.encoding import COMPRESSED, DENSE, make_encoding
from sparsec.engine import convert
from sparsec.errors import BitWidthOverflow, OrderConflict, UnsupportedKernel
from sparsec.expr import parse_kernel
from sparsec.storage import CooTensor, DenseTensor, SparseStorage
from test_array_path import run_both

VARS = ("i", "j", "k")
# Stored zeros of both signs, and values whose products round.
VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 3.0, 1e-3, 7e5])


@st.composite
def format_clause(draw, rank: int) -> str:
    if rank == 0 or draw(st.booleans()):
        return ""
    levels = draw(st.lists(st.sampled_from([DENSE, COMPRESSED]), min_size=rank, max_size=rank))
    ordering = draw(st.permutations(range(rank)))
    widths = st.sampled_from([0, 8, 16, 32])
    encoding = make_encoding(levels, ordering, draw(widths), draw(widths))
    return f" {encoding.describe()}"


@st.composite
def product_case(draw):
    """Kernel text, COO bindings, and the operands whose stored zeros are
    to be -0.0: a product of 1-3 operands of rank 1-3 over extents up to
    12, times an optional constant, into an output of any rank over the
    variables used."""
    extents = {v: draw(st.integers(1, 12)) for v in VARS}
    decls, factors, uses, bindings = [], [], [], {}
    for t in range(draw(st.integers(1, 3))):
        use = draw(st.permutations(VARS))[: draw(st.integers(1, 3))]
        shape = tuple(extents[v] for v in use)
        coords = st.tuples(*(st.integers(0, e - 1) for e in shape))
        entries = draw(st.dictionaries(coords, VALUES, max_size=24))
        name = f"T{t}"
        decls.append(f"tensor {name}({', '.join(map(str, shape))}){draw(format_clause(len(use)))}")
        factors.append(f"{name}({', '.join(use)})")
        uses.append(use)
        bindings[name] = CooTensor(shape, list(entries.items()))
    out = draw(st.permutations(sorted(set().union(*uses))))
    out = out[: draw(st.integers(0, len(out)))]
    shape = ", ".join(str(extents[v]) for v in out)
    decls.append(f"tensor out({shape}){draw(format_clause(len(out)))}")
    rhs = " * ".join(factors)
    if draw(st.booleans()):
        rhs = f"{rhs} * {draw(st.sampled_from(['2.0', '-1.0', '0.5']))}"
    negative = [name for name in bindings if draw(st.booleans())]
    return "\n".join(decls) + f"\nout({', '.join(out)}) = {rhs}\n", bindings, negative


def _negative_zeros(value):
    """`value` with every stored zero as -0.0. (Packing sums each entry
    into 0.0, so COO input never stores -0.0.)"""
    if isinstance(value, DenseTensor):
        return DenseTensor(value.shape, [-0.0 if v == 0 else v for v in value.data])
    values = tuple(-0.0 if v == 0 else v for v in value.values)
    return SparseStorage(value.ttype, value.pointers, value.indices, values)


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(product_case())
def test_arrays_and_loops_agree_on_random_products(case):
    text, coo, negative = case
    kernel = parse_kernel(text)
    bindings = dict(coo)
    for name in negative:
        try:
            bindings[name] = _negative_zeros(convert(coo[name], kernel.tensors[name]))
        except BitWidthOverflow:
            pass  # both forms raise it when they coerce the COO input
    try:
        chosen, loops, qualifying = run_both(kernel, bindings)
    except (OrderConflict, UnsupportedKernel):
        assume(False)
    assume(qualifying)  # a kernel that co-iterates runs on the loops alone
    assert chosen == loops, text
