"""Batched consensus: many labelled instances over shared messages.

Running one :class:`~repro.consensus.rational_consensus.RationalConsensusBlock` per
bidder (or per bit) is faithful to the paper's description but wasteful on the wire:
with ``n`` bidders and ``m`` providers it sends ``O(n·m²)`` small messages.  A real
deployment (and the paper's prototype, which finishes 1000-user auctions in under a
second over a WAN) batches the instances: each provider sends *one* message per peer
per round carrying the values for every label.

:class:`BatchedConsensusBlock` implements exactly the same two-round
broadcast/echo/decide structure as the single-instance block, but over a labelled
dictionary of inputs.  Per-label decisions use the same majority rule, so the batched
and per-instance modes agree on the output whenever both terminate (a property checked
by the test suite).

Batches travel as :class:`~repro.net.serialization.FrozenDict` values, so the echo
views share them instead of copying them, and their wire size and canonical bytes
are computed once.  When every batch in a view equals the batch of the smallest
provider id and all of them hold hashable values, the per-label majority of every
label is that provider's value, so the whole batch is decided at once; otherwise
each label is voted on separately.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.common import ABORT
from repro.consensus.rational_consensus import majority_decision
from repro.net.protocol import BlockContext, ProtocolBlock
from repro.net.serialization import FrozenDict

__all__ = ["BatchedConsensusBlock"]


class BatchedConsensusBlock(ProtocolBlock):
    """Agree on one value per label, using two batched rounds.

    Args:
        name: block name.
        my_inputs: mapping label -> this provider's input for that label.
        labels: the full set of labels every provider must cover; a received batch
            with a different label set is an observable deviation (⊥).
        validator: optional per-value predicate applied to every received value.
        round_timeout: virtual-time budget per round (``None`` waits forever,
            the reliable-substrate default).  With a timeout, a round that does
            not fill its quorum in time closes with the batches/echoes received
            so far — the block *terminates* instead of hanging on a crashed or
            partitioned peer, and sets :attr:`degraded` so the caller can
            surface the partial view.  Degraded decisions merge the received
            echoes label by label; a genuine conflict between views still
            outputs ⊥.
    """

    VALUE = "value"
    ECHO = "echo"
    TIMER_VALUE = "round/value"
    TIMER_ECHO = "round/echo"

    def __init__(
        self,
        name: str,
        my_inputs: Dict[str, Any],
        labels: Optional[list] = None,
        validator: Optional[Callable[[Any], bool]] = None,
        round_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(name)
        self.my_inputs = FrozenDict(my_inputs)
        self.labels = sorted(my_inputs.keys()) if labels is None else sorted(labels)
        self.validator = validator
        self.round_timeout = round_timeout
        #: True when a round closed by timeout with a partial quorum.
        self.degraded = False
        self._batches: Dict[str, FrozenDict] = {}
        self._echoes: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self._echo_sent = False

    # -- helpers -----------------------------------------------------------------
    def _valid_batch(self, batch: Any) -> bool:
        if not isinstance(batch, dict):
            return False
        if sorted(batch.keys()) != self.labels:
            return False
        if self.validator is not None:
            return all(self.validator(value) for value in batch.values())
        return True

    # -- protocol -----------------------------------------------------------------
    def on_start(self, ctx: BlockContext) -> None:
        if not self._valid_batch(self.my_inputs):
            self.complete(ABORT)
            return
        self._batches[ctx.node_id] = self.my_inputs
        ctx.broadcast(self.my_inputs, subtag=self.VALUE)
        if self.round_timeout is not None:
            ctx.set_timer(self.round_timeout, self.TIMER_VALUE)
        self._maybe_echo(ctx)

    def on_message(self, ctx: BlockContext, sender: str, subtag: str, payload: Any) -> None:
        if self.done or sender not in ctx.participants:
            return
        if subtag == self.VALUE:
            self._on_value(ctx, sender, payload)
        elif subtag == self.ECHO:
            self._on_echo(ctx, sender, payload)

    def _on_value(self, ctx: BlockContext, sender: str, payload: Any) -> None:
        if sender in self._batches:
            if self._batches[sender] != payload:
                self.complete(ABORT)
            return
        if not self._valid_batch(payload):
            self.complete(ABORT)
            return
        self._batches[sender] = _frozen(payload)
        self._maybe_echo(ctx)

    def _maybe_echo(self, ctx: BlockContext, force: bool = False) -> None:
        if self._echo_sent or self.done:
            return
        if not force and set(self._batches) != set(ctx.participants):
            return
        self._echo_sent = True
        snapshot = FrozenDict(self._batches)
        ctx.broadcast(snapshot, subtag=self.ECHO)
        self._echoes[ctx.node_id] = snapshot
        if self.round_timeout is not None:
            ctx.set_timer(self.round_timeout, self.TIMER_ECHO)
        self._maybe_decide(ctx)

    def _on_echo(self, ctx: BlockContext, sender: str, payload: Any) -> None:
        if not isinstance(payload, dict):
            self.complete(ABORT)
            return
        if sender in self._echoes:
            if self._echoes[sender] != payload:
                self.complete(ABORT)
            return
        self._echoes[sender] = payload
        self._maybe_decide(ctx)

    # -- timeout quorum ----------------------------------------------------------
    def on_timer(self, ctx: BlockContext, subtag: str) -> None:
        if self.done:
            return
        if subtag == self.TIMER_VALUE and not self._echo_sent:
            # The value round ran out of budget: echo what we have.
            self.degraded = True
            self._maybe_echo(ctx, force=True)
        elif subtag == self.TIMER_ECHO and self._echo_sent:
            # The echo round ran out of budget: decide over the echoes we have.
            self.degraded = True
            self._maybe_decide(ctx, force=True)

    def _maybe_decide(self, ctx: BlockContext, force: bool = False) -> None:
        if self.done or not self._echo_sent:
            return
        if set(self._echoes) != set(ctx.participants):
            if not force:
                return
            self.degraded = True
        if self.round_timeout is not None:
            # Timeout-quorum mode merges the received echoes label by label:
            # identical full views decide exactly as the strict path below,
            # partial views still terminate, and a genuine conflict is ⊥.
            self._decide_merged(ctx)
            return
        reference = self._echoes[ctx.node_id]
        for echo in self._echoes.values():
            if echo != reference:
                # Two providers hold different views of the first round: someone
                # equivocated, so the correct output is ⊥.
                self.complete(ABORT)
                return
        self._decide(reference)

    def _decide_merged(self, ctx: BlockContext) -> None:
        """Decide from the union of the received echo views (timeout mode only)."""
        merged: Dict[str, FrozenDict] = {}
        for echo in self._echoes.values():
            for provider, batch in echo.items():
                if not isinstance(batch, dict) or sorted(batch.keys()) != self.labels:
                    self.complete(ABORT)  # malformed view: observable deviation
                    return
                known = merged.get(provider)
                if known is None:
                    merged[provider] = _frozen(batch)
                elif known != batch:
                    # Two views disagree about the same provider's first-round
                    # batch: someone equivocated, the correct output is ⊥.
                    self.complete(ABORT)
                    return
        if not merged:
            self.complete(ABORT)
            return
        if set(merged) != set(ctx.participants):
            self.degraded = True  # deciding without some provider's batch
        self._decide(merged)

    def _decide(self, view: Dict[str, FrozenDict]) -> None:
        """Complete with the per-label majority over ``view`` (provider -> batch).

        ``majority_decision`` counts hashable values by ``==`` and returns the
        value of the smallest provider id among the most frequent.  If every
        batch equals the smallest provider's batch and every value hashes, each
        label has a single group of equal values, so that provider's batch *is*
        the decision.  Unhashable values are counted by ``repr`` instead, where
        equal values can still fall into different groups, so they — like
        differing batches — take the per-label vote.
        """
        first = view[min(view)]
        if all(batch == first and batch.values_hashable for batch in view.values()):
            self.complete({label: first[label] for label in self.labels})
            return
        decisions: Dict[str, Any] = {}
        for label in self.labels:
            per_provider = {provider: batch[label] for provider, batch in view.items()}
            decisions[label] = majority_decision(per_provider)
        self.complete(decisions)


def _frozen(batch: Dict[str, Any]) -> FrozenDict:
    """Share a batch that is already frozen; freeze a copy of any other."""
    return batch if isinstance(batch, FrozenDict) else FrozenDict(batch)
