//! Business-rule filtering of recommendation lists.
//!
//! Section 4.2: "We additionally apply business rules to the recommendations
//! to remove unavailable products and to filter for adult products." Applied
//! after scoring, before the list is cut to the UI's 21 slots, so filtered
//! items do not cost recommendation slots.

use serenade_core::{FxHashSet, ItemId, ItemScore};

/// The filters the shop applies to every recommendation list.
#[derive(Debug, Clone, Default)]
pub struct BusinessRules {
    unavailable: FxHashSet<ItemId>,
    adult: FxHashSet<ItemId>,
}

impl BusinessRules {
    /// No-op rules.
    pub fn none() -> Self {
        Self::default()
    }

    /// Creates rules from explicit item sets.
    pub fn new(
        unavailable: impl IntoIterator<Item = ItemId>,
        adult: impl IntoIterator<Item = ItemId>,
    ) -> Self {
        Self {
            unavailable: unavailable.into_iter().collect(),
            adult: adult.into_iter().collect(),
        }
    }

    /// `true` if the rules remove no item from any list: both sets are empty.
    pub fn is_empty(&self) -> bool {
        self.unavailable.is_empty() && self.adult.is_empty()
    }

    /// Marks an item as out of stock.
    pub fn mark_unavailable(&mut self, item: ItemId) {
        self.unavailable.insert(item);
    }

    /// Restocks an item.
    pub fn mark_available(&mut self, item: ItemId) {
        self.unavailable.remove(&item);
    }

    /// Marks an item as adult content.
    pub fn mark_adult(&mut self, item: ItemId) {
        self.adult.insert(item);
    }

    /// `true` if the item survives the filters. `filter_adult` reflects the
    /// request context (e.g. age verification of the shopper).
    pub fn allows(&self, item: ItemId, filter_adult: bool) -> bool {
        if self.unavailable.contains(&item) {
            return false;
        }
        if filter_adult && self.adult.contains(&item) {
            return false;
        }
        true
    }

    /// Filters a scored list in place, preserving order.
    pub fn apply(&self, recs: &mut Vec<ItemScore>, filter_adult: bool) {
        recs.retain(|r| self.allows(r.item, filter_adult));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs() -> Vec<ItemScore> {
        vec![
            ItemScore::new(1, 0.9),
            ItemScore::new(2, 0.8),
            ItemScore::new(3, 0.7),
            ItemScore::new(4, 0.6),
        ]
    }

    #[test]
    fn unavailable_items_are_always_removed() {
        let rules = BusinessRules::new([2], []);
        let mut r = recs();
        rules.apply(&mut r, false);
        assert_eq!(r.iter().map(|x| x.item).collect::<Vec<_>>(), vec![1, 3, 4]);
    }

    #[test]
    fn adult_filter_is_contextual() {
        let rules = BusinessRules::new([], [3]);
        let mut with_filter = recs();
        rules.apply(&mut with_filter, true);
        assert!(with_filter.iter().all(|x| x.item != 3));
        let mut without_filter = recs();
        rules.apply(&mut without_filter, false);
        assert_eq!(without_filter.len(), 4);
    }

    #[test]
    fn availability_can_be_toggled() {
        let mut rules = BusinessRules::none();
        rules.mark_unavailable(1);
        assert!(!rules.allows(1, false));
        rules.mark_available(1);
        assert!(rules.allows(1, false));
        rules.mark_adult(9);
        assert!(!rules.allows(9, true));
        assert!(rules.allows(9, false));
    }

    #[test]
    fn order_is_preserved() {
        let rules = BusinessRules::new([1], [4]);
        let mut r = recs();
        rules.apply(&mut r, true);
        assert_eq!(r.iter().map(|x| x.item).collect::<Vec<_>>(), vec![2, 3]);
        assert!(r.windows(2).all(|w| w[0].score >= w[1].score));
    }
}
