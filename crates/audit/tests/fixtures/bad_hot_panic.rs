// Fixture: panicking operations inside hot functions must be flagged.
pub struct Q {
    items: Vec<u64>,
}

impl Q {
    #[jade_hot]
    pub fn first(&self, i: usize) -> u64 {
        self.items[i]
    }

    #[jade_hot]
    pub fn head(&self) -> u64 {
        *self.items.first().unwrap()
    }
}
