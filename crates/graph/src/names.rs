//! Append-only node names and their first-bearer lookup, shared across
//! epochs.
//!
//! Nodes are never deleted or renamed, so the names of epoch *N + 1* are the
//! names of epoch *N* plus whatever the publish added.  [`NodeNames`] stores
//! them so that the next epoch shares everything it did not add:
//!
//! * the names live in fixed-size chunks behind [`Arc`]s — extending by *k*
//!   names clones the chunk *pointers*, copies the one partial tail chunk and
//!   appends; every full chunk is shared, no string is copied or freed when
//!   an epoch retires;
//! * the name → id lookup holds no strings at all: it is a list of *runs*,
//!   each the ids of one contiguous id range sorted by `(name, id)`.  A
//!   lookup binary-searches the runs oldest first, so the first hit is the
//!   lowest id bearing the name.  Extending pushes the new ids as one run and
//!   folds trailing runs while the older is at most twice the newer (the
//!   binary-counter discipline: at most log₂ *n* runs, each id re-merged at
//!   most log₂ *n* times over the life of the graph).

use crate::ids::NodeId;
use std::cmp::Ordering;
use std::sync::Arc;

/// Names per chunk (a power of two, so `node_name` is a shift and a mask).
pub(crate) const CHUNK: usize = 1024;

/// See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeNames {
    /// Every chunk but the last holds exactly [`CHUNK`] names.
    chunks: Vec<Arc<Vec<String>>>,
    len: usize,
    /// Ids sorted by `(name, id)`; run *i + 1* covers the id range right
    /// after run *i*'s.
    runs: Vec<Arc<[u32]>>,
}

impl NodeNames {
    /// Takes ownership of `names` (id order) and indexes them.
    pub(crate) fn new(names: Vec<String>) -> Self {
        let mut out = Self::default();
        out.append(names);
        out
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The name of node `index`.
    ///
    /// # Panics
    /// Panics when `index >= len()`.
    #[inline]
    pub(crate) fn get(&self, index: usize) -> &str {
        &self.chunks[index / CHUNK][index % CHUNK]
    }

    /// All names in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter().map(String::as_str))
    }

    /// The lowest id bearing `name`.
    pub(crate) fn lookup(&self, name: &str) -> Option<NodeId> {
        self.runs.iter().find_map(|run| {
            let at = run.partition_point(|&id| self.get(id as usize) < name);
            run.get(at)
                .filter(|&&id| self.get(id as usize) == name)
                .map(|&id| NodeId::new(id))
        })
    }

    /// These names followed by `added`, sharing every full chunk and every
    /// run the fold leaves alone.
    pub(crate) fn extended(&self, added: &[String]) -> Self {
        let mut out = self.clone();
        out.append(added.to_vec());
        out
    }

    fn append(&mut self, added: Vec<String>) {
        if added.is_empty() {
            return;
        }
        let first = self.len;
        self.len += added.len();
        let mut added = added.into_iter();
        if let Some(tail) = self.chunks.last_mut().filter(|tail| tail.len() < CHUNK) {
            let room = CHUNK - tail.len();
            Arc::make_mut(tail).extend(added.by_ref().take(room));
        }
        loop {
            let chunk: Vec<String> = added.by_ref().take(CHUNK).collect();
            if chunk.is_empty() {
                break;
            }
            self.chunks.push(Arc::new(chunk));
        }

        let mut run: Vec<u32> = (first as u32..self.len as u32).collect();
        run.sort_unstable_by(|&a, &b| self.order(a, b));
        self.runs.push(run.into());
        while let [.., older, newer] = self.runs.as_slice() {
            if older.len() > 2 * newer.len() {
                break;
            }
            let merged = self.merge(older, newer);
            self.runs.truncate(self.runs.len() - 2);
            self.runs.push(merged);
        }
    }

    #[inline]
    fn order(&self, a: u32, b: u32) -> Ordering {
        self.get(a as usize)
            .cmp(self.get(b as usize))
            .then(a.cmp(&b))
    }

    /// Merges two adjacent sorted runs (every id of `older` is below every
    /// id of `newer`, so ties on the name go to `older`).
    fn merge(&self, older: &[u32], newer: &[u32]) -> Arc<[u32]> {
        let mut merged = Vec::with_capacity(older.len() + newer.len());
        let (mut i, mut j) = (0, 0);
        while i < older.len() && j < newer.len() {
            if self.get(older[i] as usize) <= self.get(newer[j] as usize) {
                merged.push(older[i]);
                i += 1;
            } else {
                merged.push(newer[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&older[i..]);
        merged.extend_from_slice(&newer[j..]);
        merged.into()
    }

    /// How many leading chunks and leading runs `self` and `other` hold as
    /// the very same allocations (test seam: a publish may allocate only
    /// what it added).
    #[cfg(test)]
    pub(crate) fn shared_with(&self, other: &Self) -> (usize, usize) {
        let chunks = self.chunks.iter().zip(&other.chunks);
        let runs = self.runs.iter().zip(&other.runs);
        (
            chunks.take_while(|(a, b)| Arc::ptr_eq(a, b)).count(),
            runs.take_while(|(a, b)| Arc::ptr_eq(a, b)).count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(range: std::ops::Range<usize>) -> Vec<String> {
        range.map(|i| format!("v{i}")).collect()
    }

    /// Reference: first bearer by linear scan.
    fn first_bearer(all: &[String], name: &str) -> Option<NodeId> {
        all.iter().position(|n| n == name).map(NodeId::from)
    }

    #[test]
    fn lookup_resolves_every_name_to_its_first_bearer() {
        // Heavy collisions: 50 distinct names over 3,000 nodes, 3 chunks.
        let all: Vec<String> = (0..3_000).map(|i| format!("d{}", (i * 7) % 50)).collect();
        let stored = NodeNames::new(all.clone());
        assert_eq!(stored.len(), all.len());
        assert!(stored.iter().eq(all.iter().map(String::as_str)));
        for (i, name) in all.iter().enumerate() {
            assert_eq!(stored.get(i), name);
            assert_eq!(stored.lookup(name), first_bearer(&all, name), "{name}");
        }
        assert_eq!(stored.lookup("missing"), None);
        assert_eq!(NodeNames::default().lookup("v0"), None);
    }

    #[test]
    fn extending_keeps_first_bearers_across_runs_and_folds_by_doubling() {
        let mut all = names(0..CHUNK + 10);
        let mut stored = NodeNames::new(all.clone());
        // Each round re-adds an old name, a name from an earlier round and a
        // fresh one; the oldest id must keep winning.
        for round in 0..200usize {
            let added = vec![
                format!("v{}", round % 40),
                format!("r{}", round / 2),
                format!("fresh{round}"),
            ];
            all.extend(added.iter().cloned());
            stored = stored.extended(&added);
            assert_eq!(stored.len(), all.len());
            let runs: Vec<usize> = stored.runs.iter().map(|run| run.len()).collect();
            assert_eq!(runs.iter().sum::<usize>(), all.len());
            assert!(
                runs.windows(2).all(|w| w[0] > 2 * w[1]),
                "runs shrink geometrically: {runs:?}"
            );
            for name in added.iter().chain([&all[round], &all[CHUNK + 5]]) {
                assert_eq!(stored.lookup(name), first_bearer(&all, name), "{name}");
            }
        }
        for name in &all {
            assert_eq!(stored.lookup(name), first_bearer(&all, name), "{name}");
        }
    }

    #[test]
    fn extending_shares_every_full_chunk_and_untouched_run() {
        let base = NodeNames::new(names(0..2 * CHUNK + 300));
        assert_eq!((base.chunks.len(), base.runs.len()), (3, 1));
        let next = base.extended(&names(9_000..9_003));
        // Two full chunks and the big run are the base's allocations; the
        // partial tail chunk was copied, the new ids are a run of their own.
        assert_eq!(next.shared_with(&base), (2, 1));
        assert_eq!((next.chunks.len(), next.runs.len()), (3, 2));
        assert_eq!(next.get(2 * CHUNK + 302), "v9002");
        assert_eq!(base.len(), 2 * CHUNK + 300, "the base is untouched");
        assert_eq!(base.lookup("v9000"), None);

        // A base ending on a chunk boundary shares all of its chunks.
        let exact = NodeNames::new(names(0..CHUNK));
        let grown = exact.extended(&names(CHUNK..CHUNK + 1));
        assert_eq!(grown.shared_with(&exact), (1, 1));
    }
}
