//! A small generational arena used for OID and Link storage.
//!
//! The paper's Configurations are "light weight configuration objects"
//! consisting of "a set of database addresses". A generational arena gives us
//! exactly that: copyable, stable addresses ([`ArenaIndex`]) that can be
//! stored in configurations, with staleness detectable after deletion (design
//! data deletion is one of the tracked activity classes in Section 3.1).

use std::fmt;
use std::marker::PhantomData;

use serde::{Deserialize, Serialize};

/// A generational index into an [`Arena`].
///
/// The `PhantomData` tag keeps indices of different element types from being
/// confused at compile time (an `ArenaIndex<OidEntry>` cannot index an
/// `Arena<Link>`).
#[derive(Serialize, Deserialize)]
pub struct ArenaIndex<T> {
    slot: u32,
    generation: u32,
    #[serde(skip)]
    _marker: PhantomData<fn() -> T>,
}

impl<T> ArenaIndex<T> {
    fn new(slot: u32, generation: u32) -> Self {
        ArenaIndex {
            slot,
            generation,
            _marker: PhantomData,
        }
    }

    /// The raw slot number. Only meaningful for diagnostics and ordering.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The generation of the slot at issue time.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

// Manual impls: derived ones would bound on `T`, which is only a tag here.
impl<T> Clone for ArenaIndex<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ArenaIndex<T> {}
impl<T> PartialEq for ArenaIndex<T> {
    fn eq(&self, other: &Self) -> bool {
        self.slot == other.slot && self.generation == other.generation
    }
}
impl<T> Eq for ArenaIndex<T> {}
impl<T> std::hash::Hash for ArenaIndex<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.slot.hash(state);
        self.generation.hash(state);
    }
}
impl<T> PartialOrd for ArenaIndex<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for ArenaIndex<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.slot, self.generation).cmp(&(other.slot, other.generation))
    }
}
impl<T> fmt::Debug for ArenaIndex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}g{}", self.slot, self.generation)
    }
}

#[derive(Debug, Clone)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A generational arena: stable addresses, O(1) insert/remove/lookup,
/// detectable staleness.
///
/// # Example
///
/// ```
/// use damocles_meta::Arena;
///
/// let mut arena: Arena<&str> = Arena::new();
/// let a = arena.insert("netlist");
/// assert_eq!(arena.get(a), Some(&"netlist"));
/// arena.remove(a);
/// assert_eq!(arena.get(a), None); // stale address detected
/// ```
#[derive(Debug, Clone)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty arena pre-sized for `capacity` live elements.
    pub fn with_capacity(capacity: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no live elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, returning its stable address.
    pub fn insert(&mut self, value: T) -> ArenaIndex<T> {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.value.is_none());
            s.value = Some(value);
            ArenaIndex::new(slot, s.generation)
        } else {
            let slot = u32::try_from(self.slots.len()).expect("arena overflow");
            self.slots.push(Slot {
                generation: 0,
                value: Some(value),
            });
            ArenaIndex::new(slot, 0)
        }
    }

    /// Removes the value at `index`, returning it if the address was live.
    ///
    /// The slot's generation is bumped so the old address becomes stale.
    pub fn remove(&mut self, index: ArenaIndex<T>) -> Option<T> {
        let slot = self.slots.get_mut(index.slot as usize)?;
        if slot.generation != index.generation || slot.value.is_none() {
            return None;
        }
        slot.generation = slot.generation.wrapping_add(1);
        self.len -= 1;
        self.free.push(index.slot);
        slot.value.take()
    }

    /// Returns a reference to the value at `index` if the address is live.
    pub fn get(&self, index: ArenaIndex<T>) -> Option<&T> {
        let slot = self.slots.get(index.slot as usize)?;
        if slot.generation != index.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Returns a mutable reference to the value at `index` if live.
    pub fn get_mut(&mut self, index: ArenaIndex<T>) -> Option<&mut T> {
        let slot = self.slots.get_mut(index.slot as usize)?;
        if slot.generation != index.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// Whether `index` refers to a live element.
    pub fn contains(&self, index: ArenaIndex<T>) -> bool {
        self.get(index).is_some()
    }

    /// Iterates over `(address, &value)` pairs of live elements in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (ArenaIndex<T>, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.value
                .as_ref()
                .map(|v| (ArenaIndex::new(i as u32, s.generation), v))
        })
    }

    /// Iterates over `(address, &mut value)` pairs of live elements.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ArenaIndex<T>, &mut T)> {
        self.slots.iter_mut().enumerate().filter_map(|(i, s)| {
            let generation = s.generation;
            s.value
                .as_mut()
                .map(move |v| (ArenaIndex::new(i as u32, generation), v))
        })
    }
}

impl<T> std::ops::Index<ArenaIndex<T>> for Arena<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics if `index` is stale; use [`Arena::get`] for fallible access.
    fn index(&self, index: ArenaIndex<T>) -> &T {
        self.get(index).expect("stale arena index")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut a = Arena::new();
        let i = a.insert(41);
        let j = a.insert(42);
        assert_eq!(a.get(i), Some(&41));
        assert_eq!(a.get(j), Some(&42));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn removal_makes_address_stale() {
        let mut a = Arena::new();
        let i = a.insert("x");
        assert_eq!(a.remove(i), Some("x"));
        assert_eq!(a.get(i), None);
        assert_eq!(a.remove(i), None);
        assert!(a.is_empty());
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut a = Arena::new();
        let i = a.insert(1u8);
        a.remove(i);
        let j = a.insert(2u8);
        assert_eq!(i.slot(), j.slot());
        assert_ne!(i.generation(), j.generation());
        assert_eq!(a.get(i), None);
        assert_eq!(a.get(j), Some(&2));
    }

    #[test]
    fn iter_skips_dead_slots() {
        let mut a = Arena::new();
        let i0 = a.insert(0);
        let _i1 = a.insert(1);
        let _i2 = a.insert(2);
        a.remove(i0);
        let values: Vec<i32> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec![1, 2]);
    }

    #[test]
    fn iter_mut_allows_updates() {
        let mut a = Arena::new();
        let i = a.insert(10);
        for (_, v) in a.iter_mut() {
            *v += 1;
        }
        assert_eq!(a[i], 11);
    }

    #[test]
    #[should_panic(expected = "stale arena index")]
    fn index_panics_on_stale() {
        let mut a = Arena::new();
        let i = a.insert(());
        a.remove(i);
        let _panic = &a[i];
    }

    #[test]
    fn indices_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut a = Arena::new();
        let i = a.insert(1);
        let j = a.insert(2);
        assert!(i < j);
        let set: HashSet<_> = [i, j].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
