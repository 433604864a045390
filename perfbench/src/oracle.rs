//! The reference every served answer is checked against: a
//! `Vec<Option<row>>` keyed by stable slot, answered by a linear
//! `(distance, class)` scan.
//!
//! Slots are the oracle's stable identities: a retired row leaves a
//! `None` behind, while the served memory shifts every later row down by
//! one. The class id the server reports for a slot is therefore the
//! slot's rank among the live slots. Distances from every pool query to
//! every slot are cached (one column per slot, recomputed on each
//! write), so a lookup is a linear scan over `u16`s rather than over
//! packed rows.

use hdc::prelude::*;

/// The exact answer for one query: the winning class, its distance, and
/// the runner-up distance (when at least two classes are live).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nearest {
    pub class: usize,
    pub distance: usize,
    pub runner_up: Option<usize>,
}

impl Nearest {
    /// Winner-to-runner-up margin, as `SearchResult::margin` defines it.
    pub fn margin(&self) -> usize {
        self.runner_up
            .map_or(0, |r| r.saturating_sub(self.distance))
    }
}

#[derive(Debug)]
pub struct Oracle {
    queries: Vec<Hypervector>,
    slots: Vec<Option<Hypervector>>,
    /// Live slots in class order (ascending, since rows only ever append).
    live: Vec<usize>,
    /// Slot capacity of each query's distance row.
    cap: usize,
    /// `dist[q * cap + slot]`: Hamming distance from pool query `q` to `slot`.
    dist: Vec<u16>,
}

impl Oracle {
    /// An oracle over `rows` (slot `i` = class `i`) for the query pool,
    /// with room for `extra` rows added later.
    pub fn new(rows: Vec<Hypervector>, queries: Vec<Hypervector>, extra: usize) -> Self {
        let cap = rows.len() + extra;
        assert!(
            rows.first()
                .is_none_or(|r| r.dim().get() <= usize::from(u16::MAX)),
            "distances must fit the u16 cache"
        );
        let mut oracle = Oracle {
            dist: vec![0; queries.len() * cap],
            queries,
            live: (0..rows.len()).collect(),
            slots: Vec::with_capacity(cap),
            cap,
        };
        for row in rows {
            oracle.slots.push(Some(row));
            oracle.fill_column(oracle.slots.len() - 1);
        }
        oracle
    }

    fn fill_column(&mut self, slot: usize) {
        let row = self.slots[slot].as_ref().expect("filled slots are live");
        for (q, query) in self.queries.iter().enumerate() {
            self.dist[q * self.cap + slot] = query.hamming(row).as_usize() as u16;
        }
    }

    /// Live classes.
    pub fn classes(&self) -> usize {
        self.live.len()
    }

    /// The pool query `q`.
    pub fn query(&self, q: usize) -> &Hypervector {
        &self.queries[q]
    }

    /// The slot currently served as `class`.
    pub fn slot_of(&self, class: usize) -> Option<usize> {
        self.live.get(class).copied()
    }

    /// The class a live `slot` is served as.
    pub fn class_of(&self, slot: usize) -> Option<usize> {
        self.live.binary_search(&slot).ok()
    }

    /// The current row of a live slot.
    pub fn row(&self, slot: usize) -> Option<&Hypervector> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// Live rows in class order — the memory the server should hold.
    pub fn live_rows(&self) -> impl Iterator<Item = &Hypervector> {
        self.live
            .iter()
            .map(|&slot| self.slots[slot].as_ref().expect("live slots hold rows"))
    }

    /// Distance from pool query `q` to `slot`.
    pub fn distance(&self, q: usize, slot: usize) -> usize {
        usize::from(self.dist[q * self.cap + slot])
    }

    /// The linear `(distance, class)` scan: lowest distance wins, ties go
    /// to the lowest class.
    pub fn nearest(&self, q: usize) -> Nearest {
        let row = &self.dist[q * self.cap..(q + 1) * self.cap];
        let mut best = (u16::MAX, usize::MAX);
        let mut runner_up: Option<u16> = None;
        for (class, &slot) in self.live.iter().enumerate() {
            let d = row[slot];
            if d < best.0 || best.1 == usize::MAX {
                if best.1 != usize::MAX {
                    runner_up = Some(best.0);
                }
                best = (d, class);
            } else if runner_up.is_none_or(|r| d < r) {
                runner_up = Some(d);
            }
        }
        Nearest {
            class: best.1,
            distance: usize::from(best.0),
            runner_up: runner_up.map(usize::from),
        }
    }

    /// An acknowledged re-threshold of `slot`.
    pub fn replace(&mut self, slot: usize, row: Hypervector) {
        assert!(self.row(slot).is_some(), "replaced slots are live");
        self.slots[slot] = Some(row);
        self.fill_column(slot);
    }

    /// An acknowledged add; returns the new slot.
    pub fn add(&mut self, row: Hypervector) -> usize {
        assert!(
            self.slots.len() < self.cap,
            "oracle sized for every planned add"
        );
        self.slots.push(Some(row));
        let slot = self.slots.len() - 1;
        self.live.push(slot);
        self.fill_column(slot);
        slot
    }

    /// An acknowledged retire.
    pub fn retire(&mut self, slot: usize) {
        let class = self.class_of(slot).expect("retired slots are live");
        self.live.remove(class);
        self.slots[slot] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_matches_the_exact_search_through_writes() {
        let dim = Dimension::new(256).unwrap();
        let rows: Vec<Hypervector> = (0..6).map(|i| Hypervector::random(dim, i)).collect();
        let queries: Vec<Hypervector> = (10..14).map(|i| Hypervector::random(dim, i)).collect();
        let mut memory = AssociativeMemory::new(dim);
        for (i, row) in rows.iter().enumerate() {
            memory.insert(format!("r{i}"), row.clone()).unwrap();
        }
        let mut oracle = Oracle::new(rows, queries.clone(), 1);
        let check = |oracle: &Oracle, memory: &AssociativeMemory| {
            for (q, query) in queries.iter().enumerate() {
                let hit = memory.search(query).unwrap();
                let n = oracle.nearest(q);
                assert_eq!(n.class, hit.class.0);
                assert_eq!(n.distance, hit.distance.as_usize());
                assert_eq!(n.margin(), hit.margin());
            }
        };
        check(&oracle, &memory);
        let fresh = Hypervector::random(dim, 99);
        oracle.replace(2, fresh.clone());
        memory.replace_row(ClassId(2), fresh).unwrap();
        check(&oracle, &memory);
        oracle.retire(1);
        let mut shifted = AssociativeMemory::new(dim);
        for (i, row) in oracle.live_rows().enumerate() {
            shifted.insert(format!("s{i}"), row.clone()).unwrap();
        }
        check(&oracle, &shifted);
        assert_eq!(oracle.class_of(2), Some(1));
        assert_eq!(oracle.slot_of(1), Some(2));
        let added = oracle.add(Hypervector::random(dim, 7));
        assert_eq!(oracle.class_of(added), Some(5));
    }
}
