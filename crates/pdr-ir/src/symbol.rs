//! The string interner: [`SymbolTable`] and the copyable [`Sym`] handle.
//!
//! Every stage of the flow names things — operators, media, operations,
//! modules — and until this crate existed those names travelled as owned
//! `String`s, cloned at every hand-off. The interner assigns each distinct
//! name one `u32` handle; downstream stages carry and compare handles and
//! resolve back to text only at render time (diagnostics, reports, golden
//! artifacts).
//!
//! Symbols are stable for the lifetime of the table: interning never
//! invalidates previously returned handles, and interning the same string
//! twice returns the same handle.

use serde::json::Value;
use serde::Serialize;
use std::fmt;
use std::hash::{BuildHasher, RandomState};

/// A handle to an interned string. Copyable, 4 bytes, order-preserving
/// only with respect to interning order (not lexicographic order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The raw index into the owning table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value (for packing into wider keys).
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym{}", self.0)
    }
}

impl Serialize for Sym {
    fn to_json(&self) -> Value {
        Value::UInt(u64::from(self.0))
    }
}

/// An append-only string interner. Equality and serialization consider
/// only the interned names (in interning order); the reverse index is
/// derived data.
///
/// Names live back to back in one text buffer, so interning a name costs
/// no allocation of its own, and the reverse index is an open-addressing
/// table of symbol numbers probed with the standard library's keyed
/// hasher — cloning or seeding a table copies three flat arrays.
#[derive(Clone, Default)]
pub struct SymbolTable {
    /// Every name's bytes, in interning order.
    text: String,
    /// End offset in `text` of each name; name `i` starts where name
    /// `i - 1` ends.
    ends: Vec<u32>,
    /// Reverse index, linear probing: `symbol + 1` per used slot, `0` for
    /// an empty one. The length is zero or a power of two at least twice
    /// the name count.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    fn name(&self, ix: usize) -> &str {
        let start = if ix == 0 {
            0
        } else {
            self.ends[ix - 1] as usize
        };
        &self.text[start..self.ends[ix] as usize]
    }

    /// The handle of `name`, or the empty slot where it would go.
    /// Requires a non-empty `slots`.
    fn probe(&self, name: &str) -> Result<Sym, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if self.name(s as usize - 1) == name => return Ok(Sym(s - 1)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Make room for `extra` more names at a load factor of at most 1/2.
    fn reserve(&mut self, extra: usize) {
        let wanted = ((self.ends.len() + extra) * 2).next_power_of_two().max(8);
        if wanted <= self.slots.len() {
            return;
        }
        self.ends.reserve(extra);
        self.slots = vec![0; wanted];
        for ix in 0..self.ends.len() {
            // Interned names are distinct: each probe ends on an empty slot.
            if let Err(slot) = self.probe(self.name(ix)) {
                self.slots[slot] = ix as u32 + 1;
            }
        }
    }

    /// Intern `name`, returning its (new or existing) handle.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.reserve(1);
        match self.probe(name) {
            Ok(sym) => sym,
            Err(slot) => {
                let ix = u32::try_from(self.ends.len())
                    .ok()
                    .filter(|&ix| ix < u32::MAX)
                    .expect("symbol table overflow");
                self.text.push_str(name);
                let end = u32::try_from(self.text.len()).expect("symbol table overflow");
                self.ends.push(end);
                self.slots[slot] = ix + 1;
                Sym(ix)
            }
        }
    }

    /// The handle of an already-interned name, if any.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(name).ok()
    }

    /// The text of a handle. Panics if `sym` came from another table and
    /// is out of range here — symbols are only meaningful with the table
    /// that produced them.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.name(sym.index())
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// All (handle, name) pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        (0..self.ends.len()).map(|i| (Sym(i as u32), self.name(i)))
    }

    /// Intern every name of `other` into `self` (handles are NOT shared
    /// between the tables; use this to seed one table from several
    /// sources). Returns the remap from `other`'s handles to `self`'s:
    /// `remap[s.index()]` is the handle `other`'s symbol `s` has here.
    pub fn absorb(&mut self, other: &SymbolTable) -> Vec<Sym> {
        self.reserve(other.len());
        self.text.reserve(other.text.len());
        other.iter().map(|(_, name)| self.intern(name)).collect()
    }
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|(_, n)| n)).finish()
    }
}

impl PartialEq for SymbolTable {
    fn eq(&self, other: &Self) -> bool {
        // The name sequence determines both arrays and vice versa.
        self.ends == other.ends && self.text == other.text
    }
}

impl Eq for SymbolTable {}

impl Serialize for SymbolTable {
    fn to_json(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(_, n)| Value::String(n.to_string()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("dsp");
        let b = t.intern("fpga_static");
        assert_ne!(a, b);
        assert_eq!(t.intern("dsp"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "dsp");
        assert_eq!(t.resolve(b), "fpga_static");
    }

    #[test]
    fn lookup_without_interning() {
        let mut t = SymbolTable::new();
        assert!(t.lookup("x").is_none());
        let s = t.intern("x");
        assert_eq!(t.lookup("x"), Some(s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn equality_ignores_reverse_index() {
        let mut a = SymbolTable::new();
        a.intern("p");
        a.intern("q");
        let mut b = SymbolTable::new();
        b.intern("p");
        b.intern("q");
        assert_eq!(a, b);
        b.intern("r");
        assert_ne!(a, b);
    }

    #[test]
    fn absorb_merges_names() {
        let mut a = SymbolTable::new();
        a.intern("x");
        let mut b = SymbolTable::new();
        b.intern("y");
        b.intern("x");
        let remap = a.absorb(&b);
        assert_eq!(a.len(), 2);
        assert!(a.lookup("y").is_some());
        // `b`'s handles translate into `a`'s: "y" is new, "x" is shared.
        for (sym, name) in b.iter() {
            assert_eq!(a.resolve(remap[sym.index()]), name);
        }
        assert_eq!(remap[1], a.lookup("x").unwrap());
    }

    #[test]
    fn many_names_survive_index_growth() {
        let mut t = SymbolTable::new();
        let names: Vec<String> = (0..5_000).map(|i| format!("n{}", i * 7 % 5_000)).collect();
        let syms: Vec<Sym> = names.iter().map(|n| t.intern(n)).collect();
        assert_eq!(t.len(), 5_000);
        for (n, &s) in names.iter().zip(&syms) {
            assert_eq!(t.lookup(n), Some(s));
            assert_eq!(t.resolve(s), n);
            assert_eq!(t.intern(n), s);
        }
        assert_eq!(t.lookup("n5000"), None);
        assert_eq!(SymbolTable::new().lookup(""), None);
        // The empty name is a name like any other.
        let empty = t.intern("");
        assert_eq!(t.resolve(empty), "");
        assert_eq!(t.resolve(syms[1]), names[1]);
        assert_eq!(format!("{:?}", t.clone()).len(), format!("{t:?}").len());
    }

    #[test]
    fn iter_in_interning_order() {
        let mut t = SymbolTable::new();
        t.intern("b");
        t.intern("a");
        let names: Vec<&str> = t.iter().map(|(_, n)| n).collect();
        assert_eq!(names, ["b", "a"]);
    }

    #[test]
    fn serializes_as_name_array() {
        let mut t = SymbolTable::new();
        t.intern("m");
        let json = serde::json::to_string(&t.to_json());
        assert_eq!(json, "[\"m\"]");
    }
}
