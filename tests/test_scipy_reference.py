"""Property tests: the numpy products and the average-linkage clustering
against scipy, bit for bit.

The program runs on numpy alone; scipy is a test dependency only, the
reference for the CSR products (which add each cell's terms from 0.0 in
ascending column order) and for ``linkage(method="average")``.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage
from scipy.sparse import csr_matrix
from scipy.spatial.distance import squareform

from taxorel import contexts
from taxorel.contexts import ContextMatrix, TermSet, _gram
from taxorel.extractors import _SHARED, cluster_terms, docsub_sweep
from taxorel.relations import RelationSet
from taxorel.weighting import WeightedMatrix

TERMS = [f"t{i}" for i in range(7)]
CONTEXTS = [f"c{i}" for i in range(9)]

# A few values whose sums round differently in different orders, and any
# positive float.
weights = st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0, 2.5, 1e-3, 7.0]) | st.floats(
    1e-6, 1e6
)
weighted_rows = st.dictionaries(
    st.sampled_from(TERMS), st.dictionaries(st.sampled_from(CONTEXTS), weights, max_size=9)
)
count_rows = st.dictionaries(
    st.sampled_from(TERMS),
    st.dictionaries(st.sampled_from(CONTEXTS), st.integers(1, 4), max_size=9),
).filter(lambda rows: any(rows.values()))

DUPLICATE_ROWS = {
    "t0": {"c0": 0.1, "c1": 0.2},
    "t1": {"c0": 0.1, "c1": 0.2},
    "t2": {"c0": 0.1, "c1": 0.2},
    "t3": {"c2": 0.3},
    "t4": {"c2": 0.3},
}
ZERO_ROWS = {"t0": {}, "t1": {"c0": 1.0}, "t2": {}, "t3": {"c0": 0.5, "c1": 0.5}}


def reference(rows: dict, terms: list[str]) -> csr_matrix:
    """scipy's CSR of ``rows`` over ``terms`` and the sorted contexts."""
    contexts = sorted({c for row in rows.values() for c in row})
    dense = np.zeros((len(terms), len(contexts)))
    for i, term in enumerate(terms):
        for context, value in rows.get(term, {}).items():
            dense[i, contexts.index(context)] = value
    return csr_matrix(dense)


def min_gram(x: csr_matrix) -> np.ndarray:
    """Sum of min(x[i, c], x[j, c]) over shared columns c, added column by
    column in ascending order."""
    out = np.zeros((x.shape[0], x.shape[0]))
    columns = x.tocsc()
    columns.sort_indices()
    for c in range(columns.shape[1]):
        lo, hi = columns.indptr[c], columns.indptr[c + 1]
        rows, values = columns.indices[lo:hi], columns.data[lo:hi]
        out[np.ix_(rows, rows)] += np.minimum.outer(values, values)
    return out


@settings(max_examples=200, deadline=None)
@given(rows=weighted_rows)
@example(rows=DUPLICATE_ROWS)
@example(rows=ZERO_ROWS)
def test_weight_products_equal_scipys_bit_for_bit(rows):
    w = WeightedMatrix("ppmi", rows).rows_of(TERMS)
    x = reference(rows, TERMS)
    # Chunks of one pair and of a few pairs cut columns apart.
    for chunk in (1, 5, contexts._GRAM_CHUNK):
        with mock.patch.object(contexts, "_GRAM_CHUNK", chunk):
            clarkede = _gram(w, *_SHARED["clarkede"])
            weedsprec = _gram(w, *_SHARED["weedsprec"])
            assert np.array_equal(clarkede, min_gram(x))
            assert np.array_equal(weedsprec, (x @ x.sign().T).toarray())
            assert np.array_equal(_gram(w), (x @ x.T).toarray())
    # dsim's row totals are the diagonal of either measure's matrix.
    totals = x @ np.ones(x.shape[1])
    assert np.array_equal(np.diag(clarkede), totals)
    assert np.array_equal(np.diag(weedsprec), totals)


@settings(max_examples=200, deadline=None)
@given(rows=count_rows)
def test_shared_document_counts_equal_scipys(rows):
    docm = ContextMatrix(rows)
    docs = reference(rows, TERMS).sign()
    shared = (docs @ docs.T).toarray()
    # As docsub and the best-parent filter count shared documents.
    assert np.array_equal(_gram(docm.rows_of(TERMS), lambda u, v: 1.0), shared)
    sizes = np.diff(docs.indptr)
    given_ = shared / np.maximum(sizes, 1)  # P(x|y) at [x, y]
    lambdas = (0.1, 1 / 3, 0.5, 1.0)
    for lam, relset in zip(lambdas, docsub_sweep(docm, TermSet(TERMS), lambdas)):
        x, y = np.nonzero((given_ >= lam) & (sizes[:, None] > sizes))
        expected = RelationSet(
            "docsub", [(TERMS[j], TERMS[i]) for i, j in zip(x, y)], given_[x, y]
        )
        assert relset == expected and relset.scores == expected.scores


def scipy_clusters(rows: dict, terms: list[str], k: int) -> list[list[str]]:
    """The k clusters of scipy's average linkage over the cosine distances
    of ``rows``, cut after n - k merges."""
    x = reference(rows, terms)
    sims = (x @ x.T).toarray()
    norms = np.sqrt(np.diag(sims))
    denom = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0, sims / np.where(denom > 0, denom, 1.0), 0.0)
    dist = np.clip(1.0 - sims, 0.0, None)
    np.fill_diagonal(dist, 0.0)
    merges = linkage(squareform(dist, checks=False), method="average")
    n = len(terms)
    components = {i: [t] for i, t in enumerate(terms)}
    for i in range(n - k):
        a, b = int(merges[i, 0]), int(merges[i, 1])
        components[n + i] = sorted(components.pop(a) + components.pop(b))
    return sorted(components.values(), key=lambda g: g[0])


# Few distinct weights, so that equal rows, zero rows and tied merge
# heights come up often.
tied_rows = st.integers(2, 7).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            t: st.dictionaries(
                st.sampled_from(CONTEXTS[:4]), st.sampled_from([0.5, 1.0, 2.0]), max_size=3
            )
            for t in TERMS[:n]
        }
    )
)


@settings(max_examples=300, deadline=None)
@given(rows=tied_rows)
@example(rows=DUPLICATE_ROWS)
@example(rows=ZERO_ROWS)
@example(rows={"t0": {}, "t1": {}, "t2": {}, "t3": {}})
@example(rows={"t0": {"c0": 1.0}, "t1": {"c1": 1.0}})
def test_clusters_equal_scipys_average_linkage_for_every_k(rows):
    terms = sorted(rows)
    ppmi = WeightedMatrix("ppmi", rows)
    for k in range(1, len(terms) + 1):
        assert cluster_terms(ppmi, TermSet(terms), k) == scipy_clusters(rows, terms, k)
