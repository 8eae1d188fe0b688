//! Checked narrowing for id-like integers.
//!
//! The simulation packs ids aggressively — `SlabKey` and `RequestId`
//! carry `{generation, slot}` in one `u64`, tables and columns are dense
//! `u16` indices, servers and nodes dense `u32`s. The *packing modules*
//! ([`crate::slab`], the kernel's private `heap`, and jade-tiers'
//! `request`) are audited by hand and may use raw `as` truncation; every
//! other construction of an id from a wider integer must go through these
//! helpers, which panic loudly instead of silently wrapping when a
//! counter outgrows its id type (`jade-audit` rule `packing-cast`).
//!
//! The panic is deliberate: an id space overflowing is a capacity bug to
//! surface, not a value to wrap. The checks are two instructions and sit
//! on registration paths (new component, new table, new client), never in
//! per-event code.

/// Narrows an id-like integer to `u32`, panicking if it does not fit.
#[inline]
#[track_caller]
pub fn id_u32<T: TryInto<u32>>(n: T) -> u32 {
    n.try_into()
        .unwrap_or_else(|_| panic!("id out of u32 range"))
}

/// Narrows an id-like integer to `u16`, panicking if it does not fit.
#[inline]
#[track_caller]
pub fn id_u16<T: TryInto<u16>>(n: T) -> u16 {
    n.try_into()
        .unwrap_or_else(|_| panic!("id out of u16 range"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_pass_through() {
        assert_eq!(id_u32(7usize), 7);
        assert_eq!(id_u32(u32::MAX as usize), u32::MAX);
        assert_eq!(id_u16(9usize), 9);
        assert_eq!(id_u16(u16::MAX as u64), u16::MAX);
    }

    #[test]
    #[should_panic(expected = "id out of u32 range")]
    fn overflowing_u32_panics() {
        id_u32(u32::MAX as u64 + 1);
    }

    #[test]
    #[should_panic(expected = "id out of u16 range")]
    fn overflowing_u16_panics() {
        id_u16(1usize << 20);
    }
}
