//! Typed wrappers over [`Sym`] so operation, operator, medium and module
//! names cannot be mixed up once interned.
//!
//! Each wrapper is a transparent `u32`-sized handle; the type only exists
//! at compile time. All four resolve back to text through the
//! [`SymbolTable`] that interned them.

use crate::symbol::{Sym, SymbolTable};
use serde::json::Value;
use serde::Serialize;

macro_rules! typed_sym {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(Sym);

        impl $name {
            /// Wrap an already-interned symbol.
            pub fn new(sym: Sym) -> Self {
                $name(sym)
            }

            /// Intern `name` and wrap the handle.
            pub fn intern(table: &mut SymbolTable, name: &str) -> Self {
                $name(table.intern(name))
            }

            /// The underlying symbol.
            pub fn sym(self) -> Sym {
                self.0
            }

            /// The interned text.
            pub fn resolve(self, table: &SymbolTable) -> &str {
                table.resolve(self.0)
            }
        }

        impl Serialize for $name {
            fn to_json(&self) -> Value {
                self.0.to_json()
            }
        }
    };
}

typed_sym!(
    /// An interned *operation* name (an algorithm-graph vertex, e.g.
    /// `modulation`). Distinct from `pdr-graph`'s positional
    /// `algorithm::OpId`: this is a name handle, not a graph index.
    OpId
);
typed_sym!(
    /// An interned *operator* name (an architecture vertex, e.g. `dsp`).
    OperatorId
);
typed_sym!(
    /// An interned *medium* name (e.g. `shb`, `il`).
    MediumId
);
typed_sym!(
    /// An interned *module* (function/bitstream) name (e.g. `mod_qpsk`).
    ModuleId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_ids_roundtrip() {
        let mut t = SymbolTable::new();
        let op = OpId::intern(&mut t, "modulation");
        let opr = OperatorId::intern(&mut t, "op_dyn");
        let med = MediumId::intern(&mut t, "il");
        let module = ModuleId::intern(&mut t, "mod_qpsk");
        assert_eq!(op.resolve(&t), "modulation");
        assert_eq!(opr.resolve(&t), "op_dyn");
        assert_eq!(med.resolve(&t), "il");
        assert_eq!(module.resolve(&t), "mod_qpsk");
    }

    #[test]
    fn same_text_same_sym_across_wrappers() {
        // The interner is shared: the same text yields the same symbol
        // whatever the wrapper; the types only prevent accidental mixing.
        let mut t = SymbolTable::new();
        let a = OpId::intern(&mut t, "x");
        let b = ModuleId::intern(&mut t, "x");
        assert_eq!(a.sym(), b.sym());
        assert_eq!(t.len(), 1);
    }
}
