"""Host-independent counter gates on the optimizer's cost estimation.

Wall time on a shared two-core host is too noisy to gate on; these counts
repeat exactly on any host:

* one statistics-provider read per :meth:`CostModel.estimate_query`, so an
  estimate prices against one snapshot;
* ``k + 1`` cost estimates for the k optional predicates of one
  :meth:`QueryFormulator.formulate` (the candidate query is priced once),
  plus two per class-elimination probe.
"""

import pytest

from repro.core import ProfitabilityAnalyzer, SemanticQueryOptimizer
from repro.engine import CostModel


class CountingCostModel(CostModel):
    """A cost model that counts whole-query estimates."""

    estimates = 0

    def estimate_query(self, *args, **kwargs):
        self.estimates += 1
        return super().estimate_query(*args, **kwargs)


@pytest.mark.parametrize("mode", ["rowwise", "vectorized", "parallel"])
def test_one_statistics_read_per_estimate(small_setup, mode):
    model = CostModel(small_setup.schema, small_setup.statistics)
    reads = []

    def provider():
        reads.append(1)
        return small_setup.statistics

    model.bind_statistics(provider)
    for query in small_setup.queries:
        reads.clear()
        model.estimate_query(query, mode, workers=2)
        assert len(reads) == 1, query


def test_formulate_prices_the_candidate_query_once(small_setup, monkeypatch):
    model = CountingCostModel(small_setup.schema, small_setup.statistics)
    optimizer = SemanticQueryOptimizer(
        small_setup.schema, repository=small_setup.repository, cost_model=model
    )
    probes = []
    probe = ProfitabilityAnalyzer.class_elimination_is_profitable

    def counting_probe(self, query, class_name):
        probes.append(class_name)
        return probe(self, query, class_name)

    monkeypatch.setattr(
        ProfitabilityAnalyzer, "class_elimination_is_profitable", counting_probe
    )
    widest = 0
    for query in small_setup.queries:
        model.estimates = 0
        probes.clear()
        result = optimizer.optimize(query)
        optional = len(result.retained_optional) + len(result.discarded_optional)
        widest = max(widest, optional)
        expected = 2 * len(probes) + (optional + 1 if optional else 0)
        assert model.estimates == expected, query
    # The gate only bites where k + 1 < 2k.
    assert widest >= 2
