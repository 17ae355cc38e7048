//! Clause arena storage.
//!
//! All clauses live in one flat `Vec<u32>`. A clause is addressed by the
//! offset of its header ([`ClauseRef`]) and laid out as:
//!
//! ```text
//! [len] [flags: learnt|deleted] [activity f32 bits] [lit 0] [lit 1] ...
//! ```
//!
//! Deletion marks the header; [`ClauseDb::compact`] rebuilds the arena and
//! returns the old one as a [`Forwarding`] table (each survivor's new
//! offset written into its old header) so the solver can fix watch lists
//! and reasons in O(1) per reference.

use crate::types::Lit;

const FLAG_LEARNT: u32 = 1;
const FLAG_DELETED: u32 = 2;
const HEADER_WORDS: usize = 3;

/// Reference to a clause in the arena (offset of its header word).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ClauseRef(pub(crate) u32);

/// The clause arena.
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    data: Vec<u32>,
    /// Live (non-deleted) clause count by class.
    pub(crate) num_original: usize,
    pub(crate) num_learnt: usize,
    /// Words wasted by deleted clauses (compaction trigger).
    pub(crate) wasted: usize,
}

impl ClauseDb {
    pub(crate) fn new() -> Self {
        ClauseDb::default()
    }

    /// Allocates a clause; caller guarantees `lits.len() >= 2`.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "arena clauses have at least 2 literals");
        let cref = ClauseRef(self.data.len() as u32);
        self.data.push(lits.len() as u32);
        self.data.push(if learnt { FLAG_LEARNT } else { 0 });
        self.data.push(0f32.to_bits());
        self.data.extend(lits.iter().map(|l| l.0));
        if learnt {
            self.num_learnt += 1;
        } else {
            self.num_original += 1;
        }
        cref
    }

    pub(crate) fn len(&self, c: ClauseRef) -> usize {
        self.data[c.0 as usize] as usize
    }

    pub(crate) fn lit(&self, c: ClauseRef, i: usize) -> Lit {
        debug_assert!(i < self.len(c));
        Lit(self.data[c.0 as usize + HEADER_WORDS + i])
    }

    pub(crate) fn set_lit(&mut self, c: ClauseRef, i: usize, l: Lit) {
        debug_assert!(i < self.len(c));
        self.data[c.0 as usize + HEADER_WORDS + i] = l.0;
    }

    pub(crate) fn swap_lits(&mut self, c: ClauseRef, i: usize, j: usize) {
        let base = c.0 as usize + HEADER_WORDS;
        self.data.swap(base + i, base + j);
    }

    pub(crate) fn lits(&self, c: ClauseRef) -> &[u32] {
        let base = c.0 as usize;
        let len = self.data[base] as usize;
        &self.data[base + HEADER_WORDS..base + HEADER_WORDS + len]
    }

    pub(crate) fn is_learnt(&self, c: ClauseRef) -> bool {
        self.data[c.0 as usize + 1] & FLAG_LEARNT != 0
    }

    pub(crate) fn is_deleted(&self, c: ClauseRef) -> bool {
        self.data[c.0 as usize + 1] & FLAG_DELETED != 0
    }

    /// Marks a clause deleted (space reclaimed at the next [`compact`]).
    ///
    /// [`compact`]: ClauseDb::compact
    pub(crate) fn delete(&mut self, c: ClauseRef) {
        debug_assert!(!self.is_deleted(c));
        self.data[c.0 as usize + 1] |= FLAG_DELETED;
        self.wasted += HEADER_WORDS + self.len(c);
        if self.is_learnt(c) {
            self.num_learnt -= 1;
        } else {
            self.num_original -= 1;
        }
    }

    pub(crate) fn activity(&self, c: ClauseRef) -> f32 {
        f32::from_bits(self.data[c.0 as usize + 2])
    }

    pub(crate) fn set_activity(&mut self, c: ClauseRef, a: f32) {
        self.data[c.0 as usize + 2] = a.to_bits();
    }

    /// Total arena words (for memory accounting).
    pub(crate) fn arena_words(&self) -> usize {
        self.data.len()
    }

    /// Iterates over all live clause refs.
    pub(crate) fn iter_refs(&self) -> ClauseIter<'_> {
        ClauseIter { db: self, pos: 0 }
    }

    /// Rebuilds the arena dropping deleted clauses. Returns the old arena
    /// as the forwarding table: every survivor's new offset is written over
    /// its old activity word (already copied), so the solver remaps each
    /// watch, reason and learnt reference with one array read.
    pub(crate) fn compact(&mut self) -> Forwarding {
        let mut new_data = Vec::with_capacity(self.data.len() - self.wasted);
        let mut pos = 0usize;
        while pos < self.data.len() {
            let len = self.data[pos] as usize;
            let total = HEADER_WORDS + len;
            let deleted = self.data[pos + 1] & FLAG_DELETED != 0;
            if !deleted {
                let new_ref = new_data.len() as u32;
                new_data.extend_from_slice(&self.data[pos..pos + total]);
                self.data[pos + 2] = new_ref;
            }
            pos += total;
        }
        self.wasted = 0;
        Forwarding(std::mem::replace(&mut self.data, new_data))
    }
}

/// The pre-compaction arena with each surviving clause's new offset in its
/// header (see [`ClauseDb::compact`]).
pub(crate) struct Forwarding(Vec<u32>);

impl Forwarding {
    /// The post-compaction reference of `old`, which must have survived.
    ///
    /// # Panics
    ///
    /// Panics if `old` was deleted: a dangling reference is a solver bug,
    /// and its activity word would otherwise pass for an offset.
    pub(crate) fn get(&self, old: ClauseRef) -> ClauseRef {
        assert_eq!(
            self.0[old.0 as usize + 1] & FLAG_DELETED,
            0,
            "remapping a deleted clause"
        );
        ClauseRef(self.0[old.0 as usize + 2])
    }
}

pub(crate) struct ClauseIter<'a> {
    db: &'a ClauseDb,
    pos: usize,
}

impl Iterator for ClauseIter<'_> {
    type Item = ClauseRef;

    fn next(&mut self) -> Option<ClauseRef> {
        while self.pos < self.db.data.len() {
            let cref = ClauseRef(self.pos as u32);
            let len = self.db.data[self.pos] as usize;
            self.pos += HEADER_WORDS + len;
            if !self.db.is_deleted(cref) {
                return Some(cref);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn lits(codes: &[i64]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_dimacs(c)).collect()
    }

    #[test]
    fn alloc_and_read_back() {
        let mut db = ClauseDb::new();
        let c1 = db.alloc(&lits(&[1, -2, 3]), false);
        let c2 = db.alloc(&lits(&[-1, 2]), true);
        assert_eq!(db.len(c1), 3);
        assert_eq!(db.len(c2), 2);
        assert_eq!(db.lit(c1, 1), Lit::negative(Var(1)));
        assert!(!db.is_learnt(c1));
        assert!(db.is_learnt(c2));
        assert_eq!(db.num_original, 1);
        assert_eq!(db.num_learnt, 1);
    }

    #[test]
    fn swap_and_set() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(&[1, 2, 3]), false);
        db.swap_lits(c, 0, 2);
        assert_eq!(db.lit(c, 0).to_dimacs(), 3);
        assert_eq!(db.lit(c, 2).to_dimacs(), 1);
        db.set_lit(c, 1, Lit::from_dimacs(-5));
        assert_eq!(db.lit(c, 1).to_dimacs(), -5);
    }

    #[test]
    fn activity_storage() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(&[1, 2]), true);
        db.set_activity(c, 3.5);
        assert_eq!(db.activity(c), 3.5);
    }

    #[test]
    fn delete_and_compact_remaps() {
        // Deleted clauses at the first, last and two adjacent slots, with
        // survivors of different lengths and activities in between.
        let codes: [&[i64]; 7] = [
            &[1, 2],
            &[3, 4, 5],
            &[-1, -2],
            &[6, 7],
            &[-3, 4, -5, 6],
            &[8, 9, -10],
            &[2, -9],
        ];
        let mut db = ClauseDb::new();
        let refs: Vec<ClauseRef> = codes
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let cref = db.alloc(&lits(c), i % 2 == 1);
                db.set_activity(cref, i as f32 + 0.5);
                cref
            })
            .collect();
        let dead = [0, 3, 4, 6];
        for &i in &dead {
            db.delete(refs[i]);
        }
        assert!(db.wasted > 0);
        let fwd = db.compact();
        assert_eq!(db.wasted, 0);
        let mut expect_offset = 0u32;
        for (i, c) in codes.iter().enumerate() {
            if dead.contains(&i) {
                continue;
            }
            let new = fwd.get(refs[i]);
            // Survivors pack in arena order.
            assert_eq!(new.0, expect_offset, "clause {i}");
            expect_offset += (HEADER_WORDS + c.len()) as u32;
            let got: Vec<i64> = (0..db.len(new))
                .map(|k| db.lit(new, k).to_dimacs())
                .collect();
            assert_eq!(got, *c, "clause {i} literals");
            assert_eq!(db.is_learnt(new), i % 2 == 1, "clause {i} class");
            assert!(!db.is_deleted(new));
            assert_eq!(db.activity(new), i as f32 + 0.5, "clause {i} activity");
        }
        assert_eq!(db.arena_words(), expect_offset as usize);
        // Iteration sees exactly the survivors, in order.
        let survivors: Vec<ClauseRef> = [1, 2, 5].iter().map(|&i| fwd.get(refs[i])).collect();
        assert_eq!(db.iter_refs().collect::<Vec<_>>(), survivors);
        assert_eq!((db.num_original, db.num_learnt), (1, 2));
    }

    #[test]
    fn iter_skips_deleted() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false);
        let b = db.alloc(&lits(&[2, 3]), false);
        let c = db.alloc(&lits(&[3, 4]), false);
        db.delete(b);
        let seen: Vec<ClauseRef> = db.iter_refs().collect();
        assert_eq!(seen, vec![a, c]);
    }
}
