// Fixture: steady-state allocation inside hot functions must be flagged.
pub struct Q {
    items: Vec<u64>,
}

impl Q {
    #[jade_hot]
    pub fn drain_labels(&self) -> Vec<String> {
        let mut out = Vec::new();
        for x in &self.items {
            out.push(x.to_string());
        }
        out
    }

    #[jade_hot]
    pub fn snapshot(&self) -> Vec<u64> {
        self.items.to_vec()
    }
}
