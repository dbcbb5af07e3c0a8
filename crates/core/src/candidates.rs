//! The bounded candidate table of the VMIS-kNN session path.
//!
//! The item-intersection loop keeps at most `m` candidate sessions, each
//! with its id (which is its recency key), its running similarity and the
//! window position of the item that admitted it. Candidates live densely in one flat `Vec`
//! (what the top-k and scoring steps iterate) and are found by session id
//! through a small open-addressing directory of at least `2·m` slots:
//! Fibonacci hashing of the dense session id, linear probing, and an epoch
//! stamp per slot so that clearing between requests is one counter bump.
//! An eviction reuses the evicted candidate's dense cell and closes the gap
//! in the directory by backward-shift deletion — no tombstones, so probe
//! sequences never grow with the number of evictions.

use crate::types::SessionId;

/// One candidate session of the current request, 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Dense session id: the lookup key and, ids ascending with recency,
    /// the recency key.
    pub session: SessionId,
    /// Decayed similarity `r_j` accumulated so far.
    pub similarity: f32,
    /// 1-based window position of the item whose posting admitted it.
    pub match_pos: u32,
}

/// A directory slot: the dense index of a candidate, live only while
/// `epoch` equals the table's current epoch.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    epoch: u32,
    cand: u32,
}

/// Dense candidate storage plus its session-id directory.
#[derive(Debug)]
pub struct CandidateTable {
    cands: Vec<Candidate>,
    /// Power-of-two directory, at least twice the reserved capacity, so the
    /// load factor never exceeds ½ and a probe always meets a vacant slot.
    slots: Box<[Slot]>,
    /// `32 − log2(slots.len())`: the Fibonacci hash keeps the top bits.
    shift: u32,
    /// Current epoch, never 0 (0 marks a slot that was never or is no
    /// longer used).
    epoch: u32,
}

impl CandidateTable {
    /// Creates an empty table able to hold `capacity` candidates.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut table = Self { cands: Vec::new(), slots: Box::default(), shift: 0, epoch: 1 };
        table.reset(capacity);
        table
    }

    /// Empties the table, leaving room for `capacity` candidates. Once the
    /// directory has grown to a config's `m` this is one epoch bump: stale
    /// slots simply stop matching.
    pub fn reset(&mut self, capacity: usize) {
        self.cands.clear();
        let slots = (2 * capacity).next_power_of_two().max(2);
        if self.slots.len() < slots {
            self.cands.reserve(capacity);
            self.slots = vec![Slot::default(); slots].into_boxed_slice();
            self.shift = 32 - slots.trailing_zeros();
            return;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.fill(Slot::default());
            self.epoch = 1;
        }
    }

    /// Test hook: restarts the epoch counter at `epoch` (non-zero), so a
    /// test can reach the wrap-around in a few resets.
    #[doc(hidden)]
    pub fn set_epoch(&mut self, epoch: u32) {
        self.slots.fill(Slot::default());
        self.epoch = epoch;
    }

    /// Number of candidates held.
    #[inline]
    pub fn len(&self) -> usize {
        self.cands.len()
    }

    /// `true` if no candidate is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cands.is_empty()
    }

    /// The candidates, densely, in admission order (an eviction puts the
    /// newcomer into the evicted candidate's cell).
    #[inline]
    pub fn as_slice(&self) -> &[Candidate] {
        &self.cands
    }

    /// The candidate at dense index `idx`.
    #[inline]
    pub fn get_mut(&mut self, idx: usize) -> &mut Candidate {
        &mut self.cands[idx]
    }

    #[inline]
    fn home(&self, session: SessionId) -> usize {
        (session.wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    /// Walks `session`'s probe run: the slot that holds it (`true`) or the
    /// vacant slot that ends the run (`false`).
    #[inline]
    fn probe(&self, session: SessionId) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(session);
        loop {
            let slot = self.slots[i];
            if slot.epoch != self.epoch {
                return (i, false);
            }
            if self.cands[slot.cand as usize].session == session {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    /// Looks `session` up: `Ok(dense index)` if it is a candidate,
    /// `Err(vacant slot)` — the argument [`CandidateTable::insert_at`]
    /// expects — if not.
    #[inline]
    pub fn find(&self, session: SessionId) -> Result<usize, usize> {
        match self.probe(session) {
            (slot, true) => Ok(self.slots[slot].cand as usize),
            (slot, false) => Err(slot),
        }
    }

    /// Admits `cand` into the slot a failed [`CandidateTable::find`] for
    /// its session just returned. The table must not have been modified in
    /// between and must hold fewer candidates than were reserved.
    #[inline]
    pub fn insert_at(&mut self, vacant: usize, cand: Candidate) {
        debug_assert!(2 * (self.cands.len() + 1) <= self.slots.len(), "table over capacity");
        self.slots[vacant] = Slot { epoch: self.epoch, cand: self.cands.len() as u32 };
        self.cands.push(cand);
    }

    /// Evicts the candidate `evict` (which must be present) and admits
    /// `cand` (which must not be) into its dense cell.
    pub fn replace(&mut self, evict: SessionId, cand: Candidate) {
        let mask = self.slots.len() - 1;
        let (mut hole, found) = self.probe(evict);
        assert!(found, "the evicted session must be a candidate");
        let cell = self.slots[hole].cand;
        // Backward-shift deletion: pull every later entry of the probe run
        // into the hole unless that would move it before its home slot.
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let slot = self.slots[next];
            if slot.epoch != self.epoch {
                break;
            }
            let home = self.home(self.cands[slot.cand as usize].session);
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.slots[hole] = slot;
                hole = next;
            }
        }
        self.slots[hole].epoch = 0;
        self.cands[cell as usize] = cand;
        let (vacant, found) = self.probe(cand.session);
        assert!(!found, "the replacement must not be a candidate yet");
        self.slots[vacant] = Slot { epoch: self.epoch, cand: cell };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(session: SessionId) -> Candidate {
        Candidate { session, similarity: 1.0, match_pos: 1 }
    }

    #[test]
    fn a_candidate_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Candidate>(), 12);
    }

    #[test]
    fn find_insert_replace_roundtrip() {
        let mut t = CandidateTable::with_capacity(2);
        assert!(t.is_empty());
        for s in [7, 9] {
            let vacant = t.find(s).unwrap_err();
            t.insert_at(vacant, cand(s));
        }
        assert_eq!(t.find(7), Ok(0));
        t.get_mut(0).similarity += 0.5;
        t.replace(7, cand(11));
        assert!(t.find(7).is_err());
        assert_eq!(t.as_slice()[t.find(11).unwrap()], cand(11));
        assert_eq!(t.find(9), Ok(1));
        t.reset(2);
        assert!(t.find(9).is_err() && t.find(11).is_err() && t.is_empty());
    }
}
