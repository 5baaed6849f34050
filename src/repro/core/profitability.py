"""Profitability analysis for optional predicates and class elimination.

The paper delegates the decision to retain an *optional* predicate — and the
decision to eliminate a dangling class — to "a cost model and conventional
query optimization techniques".  :class:`ProfitabilityAnalyzer` provides
that decision procedure:

* with a :class:`~repro.engine.cost_model.CostModel` (i.e. with database
  statistics available), the analyzer compares the estimated execution cost
  of the working query with and without the candidate predicate/class and
  keeps whichever alternative is cheaper;
* without a cost model, it falls back to a structural heuristic: optional
  predicates on indexed attributes are retained (they enable index scans,
  the paper's primary motivation for index introduction), other optional
  predicates are retained only when they are the sole selective predicate on
  their class (they then cut intermediate results), and dangling classes are
  always eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..constraints.predicate import Predicate
from ..query.query import Query
from ..schema.schema import Schema

try:  # pragma: no cover - import guard exercised implicitly
    from ..engine.cost_model import CostModel
except Exception:  # pragma: no cover - engine is always available in-tree
    CostModel = None  # type: ignore[assignment]


@dataclass
class ProfitabilityDecision:
    """Outcome of a profitability question, with the numbers behind it."""

    profitable: bool
    cost_with: Optional[float] = None
    cost_without: Optional[float] = None
    reason: str = ""

    @property
    def saving(self) -> Optional[float]:
        """Estimated cost saving (positive when the change helps)."""
        if self.cost_with is None or self.cost_without is None:
            return None
        return self.cost_without - self.cost_with


class ProfitabilityAnalyzer:
    """Cost-benefit decisions used during query formulation."""

    def __init__(
        self,
        schema: Schema,
        cost_model: Optional["CostModel"] = None,
        epsilon: float = 1e-9,
        index_probe: Optional[Callable[[str, str], Optional[bool]]] = None,
    ) -> None:
        self.schema = schema
        self.cost_model = cost_model
        self.epsilon = epsilon
        # Live index availability (e.g. the store's IndexManager).  The
        # static schema only records the *declared* index set; runtime
        # create/drop (the auto-indexer, operators) must steer the
        # heuristic too, or a dropped index keeps attracting predicates
        # that no longer pay off.
        self.index_probe = index_probe

    def _is_indexed(self, class_name: str, attribute_name: str) -> bool:
        if self.index_probe is not None:
            try:
                known = self.index_probe(class_name, attribute_name)
            except Exception:
                known = None
            if known is not None:
                return bool(known)
        try:
            return self.schema.is_indexed(class_name, attribute_name)
        except Exception:
            return False

    # ------------------------------------------------------------------
    # Optional predicates
    # ------------------------------------------------------------------
    def query_cost(self, query: Query) -> Optional[float]:
        """The cost model's estimate for ``query`` (``None`` without one)."""
        if self.cost_model is None:
            return None
        return self.cost_model.estimate_query_cost(query)

    def predicate_is_profitable(
        self,
        query: Query,
        predicate: Predicate,
        query_cost: Optional[float] = None,
    ) -> ProfitabilityDecision:
        """Should ``predicate`` be retained in ``query``?

        ``query`` is the working query *including* the predicate when it is
        already part of it; the analyzer always compares the variant with the
        predicate against the variant without it.  ``query_cost`` is
        :meth:`query_cost` of ``query`` when the caller already has it, so
        deciding k predicates against one query prices that query once.
        """
        if self.cost_model is not None:
            if query.has_predicate(predicate):
                with_predicate = query
            else:
                with_predicate = query.add_selective_predicates([predicate])
                query_cost = None
            cost_with = (
                query_cost
                if query_cost is not None
                else self.cost_model.estimate_query_cost(with_predicate)
            )
            without_predicate = with_predicate.with_selective_predicates(
                [
                    p
                    for p in with_predicate.selective_predicates
                    if p.normalized() != predicate.normalized()
                ]
            )
            cost_without = self.cost_model.estimate_query_cost(without_predicate)
            return ProfitabilityDecision(
                profitable=cost_with + self.epsilon < cost_without,
                cost_with=cost_with,
                cost_without=cost_without,
                reason="cost-model comparison",
            )
        return self._heuristic_predicate_decision(query, predicate)

    def _heuristic_predicate_decision(
        self, query: Query, predicate: Predicate
    ) -> ProfitabilityDecision:
        if predicate.is_selection:
            class_name = predicate.left.class_name
            attribute_name = predicate.left.attribute_name
            if self._is_indexed(class_name, attribute_name):
                return ProfitabilityDecision(
                    profitable=True,
                    reason="selection on an indexed attribute enables an index scan",
                )
            other_selections = [
                p
                for p in query.selective_predicates
                if p.normalized() != predicate.normalized()
                and p.referenced_classes() == frozenset({class_name})
            ]
            if not other_selections:
                return ProfitabilityDecision(
                    profitable=True,
                    reason=(
                        "only selective predicate on its class; cuts the "
                        "instances flowing into later joins"
                    ),
                )
            return ProfitabilityDecision(
                profitable=False,
                reason="not indexed and the class is already restricted",
            )
        return ProfitabilityDecision(
            profitable=False,
            reason="cross-class comparison adds CPU work without cutting retrieval",
        )

    # ------------------------------------------------------------------
    # Class elimination
    # ------------------------------------------------------------------
    def class_elimination_is_profitable(
        self, query: Query, class_name: str
    ) -> ProfitabilityDecision:
        """Should the dangling class ``class_name`` be dropped from ``query``?"""
        if self.cost_model is not None:
            reduced = query.without_classes([class_name])
            remaining_relationships = [
                name
                for name in query.relationships
                if self.schema.relationship(name).source != class_name
                and self.schema.relationship(name).target != class_name
            ]
            reduced = reduced.keep_relationships(remaining_relationships)
            cost_with = self.cost_model.estimate_query_cost(query)
            cost_without = self.cost_model.estimate_query_cost(reduced)
            return ProfitabilityDecision(
                profitable=cost_without + self.epsilon < cost_with,
                cost_with=cost_with,
                cost_without=cost_without,
                reason="cost-model comparison",
            )
        return ProfitabilityDecision(
            profitable=True,
            reason="dangling class contributes no output and no restriction",
        )
