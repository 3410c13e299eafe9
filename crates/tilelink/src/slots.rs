//! Live-slot masks for the small request files (MSHRs, FSHRs).
//!
//! Every request file in the hierarchy is a fixed array of at most a few
//! dozen slots of which only a handful hold a transaction at any cycle. A
//! [`SlotMask`] kept in step with the array lets the per-cycle walks
//! (stepping, event bounds, address lookups, free-slot picks) visit only the
//! live entries, in ascending slot order — the same order as a full sweep,
//! so results do not depend on which of the two is used.

/// Occupancy of a request file of at most [`SlotMask::MAX_SLOTS`] slots:
/// bit `i` is set while slot `i` holds a transaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotMask(u64);

impl SlotMask {
    /// Largest request file a mask can describe.
    pub const MAX_SLOTS: usize = 64;

    /// Marks slot `i` live.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < Self::MAX_SLOTS, "slot {i} out of mask range");
        self.0 |= 1 << i;
    }

    /// Marks slot `i` free.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < Self::MAX_SLOTS, "slot {i} out of mask range");
        self.0 &= !(1 << i);
    }

    /// Whether no slot is live.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of live slots.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether every slot of an `n`-slot file is live.
    #[inline]
    pub fn is_full(self, n: usize) -> bool {
        self.0 == low_bits(n)
    }

    /// Live slots in ascending order.
    #[inline]
    pub fn iter(self) -> SlotIter {
        SlotIter(self.0)
    }

    /// The first free slot of an `n`-slot file met by the wrapping scan
    /// `start, start + 1, …, n - 1, 0, …, start - 1` (`None` when full).
    #[inline]
    pub fn first_free_from(self, n: usize, start: usize) -> Option<usize> {
        debug_assert!(n <= Self::MAX_SLOTS && start < n.max(1));
        let free = !self.0 & low_bits(n);
        let from_start = free & (u64::MAX << start);
        let pick = if from_start != 0 { from_start } else { free };
        (pick != 0).then(|| pick.trailing_zeros() as usize)
    }

    /// The mask of the slots for which `live` holds (a re-derivation, used
    /// after decoding a snapshot and by consistency assertions).
    pub fn from_fn(n: usize, mut live: impl FnMut(usize) -> bool) -> Self {
        debug_assert!(n <= Self::MAX_SLOTS);
        let mut m = SlotMask::default();
        for i in (0..n).filter(|&i| live(i)) {
            m.insert(i);
        }
        m
    }
}

/// Bits `0..n` set.
#[inline]
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Ascending iterator over a [`SlotMask`]'s live slots.
#[derive(Clone, Debug)]
pub struct SlotIter(u64);

impl Iterator for SlotIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_is_ascending_and_tracks_insert_remove() {
        let mut m = SlotMask::default();
        for i in [63, 0, 7, 31] {
            m.insert(i);
        }
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 7, 31, 63]);
        m.remove(7);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 31, 63]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_full(64));
        assert!(SlotMask::from_fn(3, |_| true).is_full(3));
        assert!(SlotMask::from_fn(64, |_| true).is_full(64));
    }
}
