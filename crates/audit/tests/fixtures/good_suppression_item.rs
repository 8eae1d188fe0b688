// Fixture: an item-bound suppression covers the whole body, whether it
// sits above the item's attributes or above its signature.
pub struct Q {
    items: Vec<u64>,
}

impl Q {
    // jade-audit: allow(hot-panic): fixture — indexes are dense ids.
    #[jade_hot]
    pub fn first(&self, i: usize) -> u64 {
        self.items[i]
    }

    #[jade_hot]
    // jade-audit: allow(hot-panic): fixture — indexes are dense ids.
    pub fn last(&self, i: usize) -> u64 {
        self.items[i] + self.items[i + 1]
    }
}
