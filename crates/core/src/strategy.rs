//! The healing-strategy interface.

use crate::state::{DeletionContext, HealingNetwork};
use selfheal_graph::NodeId;

/// What a healing strategy did in one round.
#[derive(Clone, Debug, Default)]
pub struct HealOutcome {
    /// The nodes the strategy chose to reconnect (the reconstruction set).
    /// ID propagation is seeded from these.
    pub rt_members: Vec<NodeId>,
    /// Edges newly added to the healing graph `G'` this round.
    pub edges_added: Vec<(NodeId, NodeId)>,
    /// The surrogate node, when the strategy surrogated (SDASH only).
    pub surrogate: Option<NodeId>,
}

impl HealOutcome {
    /// Reset to the empty outcome, keeping the vectors' capacity — the
    /// engine reuses one outcome across rounds via
    /// [`Healer::heal_into`].
    pub fn clear(&mut self) {
        self.rt_members.clear();
        self.edges_added.clear();
        self.surrogate = None;
    }
}

/// A locality-aware healing strategy.
///
/// The engine calls [`Healer::heal`] immediately after each deletion with
/// the [`DeletionContext`]; the strategy may add edges **only among the
/// former neighbors of the deleted node** (the locality contract of the
/// paper's model — verified by the engine's audit mode).
///
/// `Send` is a supertrait so boxed healers (and the engines holding
/// them) can migrate across the serving layer's worker threads; every
/// strategy is plain owned data, so the bound costs nothing.
pub trait Healer: Send {
    /// Short stable name used in tables and benchmarks.
    fn name(&self) -> &'static str;

    /// React to a deletion by adding edges via
    /// [`HealingNetwork::add_heal_edge`].
    fn heal(&mut self, net: &mut HealingNetwork, ctx: &DeletionContext) -> HealOutcome;

    /// [`Healer::heal`] writing into a caller-owned outcome (cleared
    /// first), so steady-state heal loops reuse the outcome's buffers.
    /// The default delegates to [`Healer::heal`]; allocation-free
    /// strategies (DASH, SDASH) override it to work entirely on reused
    /// buffers.
    fn heal_into(
        &mut self,
        net: &mut HealingNetwork,
        ctx: &DeletionContext,
        out: &mut HealOutcome,
    ) {
        *out = self.heal(net, ctx);
    }

    /// Whether this strategy guarantees the healing graph `G'` remains a
    /// forest (Lemma 1 holds for DASH/SDASH and the component-aware
    /// naive strategies, but not for GraphHeal).
    fn preserves_forest(&self) -> bool {
        true
    }
}

impl<H: Healer + ?Sized> Healer for Box<H> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn heal(&mut self, net: &mut HealingNetwork, ctx: &DeletionContext) -> HealOutcome {
        (**self).heal(net, ctx)
    }

    fn heal_into(
        &mut self,
        net: &mut HealingNetwork,
        ctx: &DeletionContext,
        out: &mut HealOutcome,
    ) {
        (**self).heal_into(net, ctx, out)
    }

    fn preserves_forest(&self) -> bool {
        (**self).preserves_forest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Healer for Nop {
        fn name(&self) -> &'static str {
            "nop"
        }
        fn heal(&mut self, _: &mut HealingNetwork, _: &DeletionContext) -> HealOutcome {
            HealOutcome::default()
        }
    }

    #[test]
    fn default_outcome_is_empty() {
        let o = HealOutcome::default();
        assert!(o.rt_members.is_empty());
        assert!(o.edges_added.is_empty());
        assert!(o.surrogate.is_none());
        assert!(Nop.preserves_forest());
        assert_eq!(Nop.name(), "nop");
    }
}
