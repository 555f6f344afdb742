//! A dense per-worker table.
//!
//! [`WorkerId`]s are recruitment indices (the platform keeps its workers
//! in a vector indexed the same way), so per-worker state fits a vector
//! of `Option<T>` indexed by id: a lookup is one bounds check, and
//! iteration visits workers in id order, the order the runner's
//! determinism contract requires.

use clamshell_crowd::WorkerId;

/// Per-worker values indexed by [`WorkerId`]. An absent entry and an
/// entry removed with [`WorkerTable::remove`] look the same, exactly as
/// with a map.
#[derive(Debug, Clone)]
pub(crate) struct WorkerTable<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for WorkerTable<T> {
    fn default() -> Self {
        WorkerTable { slots: Vec::new() }
    }
}

impl<T> WorkerTable<T> {
    /// The entry for `w`, if present.
    pub(crate) fn get(&self, w: WorkerId) -> Option<&T> {
        self.slots.get(w.0 as usize)?.as_ref()
    }

    /// The slot for `w`, growing the table to cover it.
    fn slot(&mut self, w: WorkerId) -> &mut Option<T> {
        let ix = w.0 as usize;
        if ix >= self.slots.len() {
            self.slots.resize_with(ix + 1, || None);
        }
        &mut self.slots[ix]
    }

    /// Set the entry for `w`.
    pub(crate) fn insert(&mut self, w: WorkerId, value: T) {
        *self.slot(w) = Some(value);
    }

    /// The entry for `w`, created from `make` if absent.
    pub(crate) fn get_or_insert_with(&mut self, w: WorkerId, make: impl FnOnce() -> T) -> &mut T {
        self.slot(w).get_or_insert_with(make)
    }

    /// Take the entry for `w` out of the table.
    pub(crate) fn remove(&mut self, w: WorkerId) -> Option<T> {
        self.slots.get_mut(w.0 as usize)?.take()
    }

    /// Remove every entry, keeping the table's capacity.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }

    /// Present entries in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (WorkerId, &T)> {
        self.slots.iter().enumerate().filter_map(|(ix, v)| Some((WorkerId(ix as u32), v.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_an_ordered_map() {
        let mut t = WorkerTable::default();
        assert_eq!(t.get(WorkerId(3)), None);
        assert_eq!(t.remove(WorkerId(7)), None, "removing past the end is a no-op");
        t.insert(WorkerId(5), 'a');
        t.insert(WorkerId(1), 'b');
        *t.get_or_insert_with(WorkerId(3), || 'c') = 'd';
        assert_eq!(*t.get_or_insert_with(WorkerId(1), || 'z'), 'b', "existing entry kept");
        let ids: Vec<_> = t.iter().map(|(w, &v)| (w.0, v)).collect();
        assert_eq!(ids, vec![(1, 'b'), (3, 'd'), (5, 'a')], "id order");
        assert_eq!(t.remove(WorkerId(3)), Some('d'));
        assert_eq!(t.get(WorkerId(3)), None, "removal resets the entry");
        assert_eq!(t.iter().count(), 2);
        t.clear();
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.get(WorkerId(5)), None, "clear removes every entry");
    }
}
