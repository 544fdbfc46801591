//! The lowered executive: flat, index-based macro-code.
//!
//! [`IrExecutive`] is the interned twin of `pdr-adequation`'s string
//! `Executive`. Every instruction is a `Copy` value ([`IrInstr`]) holding
//! `u32` handles instead of owned strings; all instruction streams live
//! in one flat array sliced per operator by [`IrStream`] ranges. The
//! interpreter and the lint passes walk indices; text reappears only when
//! rendering through the [`SymbolTable`].
//!
//! Two index spaces are local to one executive:
//!
//! * [`PeerRef`] — an index into the executive's operator-name table
//!   (stream owners and rendezvous peers);
//! * [`MediumRef`] — an index into its medium-name table.
//!
//! Both resolve to interned symbols ([`OperatorId`] / [`MediumId`]) and
//! from there to text. Keeping per-executive dense refs (rather than raw
//! symbols) lets consumers size flat side tables without hashing.

use crate::ids::{MediumId, ModuleId, OpId, OperatorId};
use crate::symbol::{Sym, SymbolTable};
use pdr_fabric::TimePs;
use serde::json::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense index into an [`IrExecutive`]'s operator-name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerRef(pub u32);

/// Dense index into an [`IrExecutive`]'s medium table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MediumRef(pub u32);

impl Serialize for PeerRef {
    fn to_json(&self) -> Value {
        Value::UInt(u64::from(self.0))
    }
}

impl Deserialize for PeerRef {}

impl Serialize for MediumRef {
    fn to_json(&self) -> Value {
        Value::UInt(u64::from(self.0))
    }
}

impl Deserialize for MediumRef {}

/// One lowered macro-code instruction. `Copy`: 24 bytes, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IrInstr {
    /// Execute `function` for `duration`.
    Compute {
        /// Operation name (diagnostic).
        op: OpId,
        /// Function symbol.
        function: ModuleId,
        /// Characterized duration.
        duration: TimePs,
    },
    /// Send `bits` to peer `to` over `medium`; blocks until received.
    Send {
        /// Receiving operator.
        to: PeerRef,
        /// Medium crossed.
        medium: MediumRef,
        /// Payload bits.
        bits: u64,
        /// Rendezvous tag.
        tag: u32,
    },
    /// Receive `bits` from peer `from` over `medium`; blocks until sent.
    Receive {
        /// Sending operator.
        from: PeerRef,
        /// Medium crossed.
        medium: MediumRef,
        /// Payload bits.
        bits: u64,
        /// Rendezvous tag.
        tag: u32,
    },
    /// Ensure `module` is resident before proceeding.
    Configure {
        /// Module that must be resident.
        module: ModuleId,
        /// Characterized worst-case reconfiguration time.
        worst_case: TimePs,
    },
}

impl IrInstr {
    /// Is this a communication instruction?
    pub fn is_comm(&self) -> bool {
        matches!(self, IrInstr::Send { .. } | IrInstr::Receive { .. })
    }
}

/// One operator's slice of the flat instruction array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IrStream {
    /// The owning operator (index into the executive's name table).
    pub name: PeerRef,
    start: u32,
    end: u32,
}

/// The lowered executive: all instruction streams in one flat array.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IrExecutive {
    names: Vec<OperatorId>,
    media: Vec<MediumId>,
    streams: Vec<IrStream>,
    instrs: Vec<IrInstr>,
}

impl IrExecutive {
    /// Number of operator streams.
    pub fn operator_count(&self) -> usize {
        self.streams.len()
    }

    /// Name ref of stream `i`.
    pub fn operator_ref(&self, i: usize) -> PeerRef {
        self.streams[i].name
    }

    /// Interned name of stream `i`'s operator.
    pub fn operator_sym(&self, i: usize) -> OperatorId {
        self.names[self.streams[i].name.0 as usize]
    }

    /// Instruction slice of stream `i`.
    pub fn program(&self, i: usize) -> &[IrInstr] {
        let s = &self.streams[i];
        &self.instrs[s.start as usize..s.end as usize]
    }

    /// Global index (into [`IrExecutive::instrs`]) of stream `i`'s first
    /// instruction — flat node numbering for graph passes.
    pub fn stream_start(&self, i: usize) -> usize {
        self.streams[i].start as usize
    }

    /// The flat instruction array.
    pub fn instrs(&self) -> &[IrInstr] {
        &self.instrs
    }

    /// Total instruction count.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Is the executive empty?
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// All referenced operator names (stream owners first, in stream
    /// order, then peer-only names in first-reference order).
    pub fn names(&self) -> &[OperatorId] {
        &self.names
    }

    /// Interned symbol behind a peer ref.
    pub fn peer_sym(&self, peer: PeerRef) -> OperatorId {
        self.names[peer.0 as usize]
    }

    /// All referenced media, in first-reference order.
    pub fn media(&self) -> &[MediumId] {
        &self.media
    }

    /// Interned symbol behind a medium ref.
    pub fn medium_sym(&self, medium: MediumRef) -> MediumId {
        self.media[medium.0 as usize]
    }

    /// Stream index of the operator named by `sym`, if it owns a stream.
    pub fn operator_index(&self, sym: OperatorId) -> Option<usize> {
        self.streams
            .iter()
            .position(|s| self.names[s.name.0 as usize] == sym)
    }

    /// Pretty-print through `table` — byte-identical to the string
    /// `Executive::render` for a lowered executive (streams are lowered
    /// in the string form's alphabetical order).
    pub fn render(&self, table: &SymbolTable) -> String {
        let mut out = String::new();
        // Writing to a `String` cannot fail.
        let _ = self.render_to(table, &mut out);
        out
    }

    /// [`IrExecutive::render`] written piece by piece into `out` — e.g.
    /// straight into a hasher, without building the whole text.
    pub fn render_to(&self, table: &SymbolTable, out: &mut impl fmt::Write) -> fmt::Result {
        for (i, _) in self.streams.iter().enumerate() {
            let opr = self.operator_sym(i).resolve(table);
            writeln!(out, "operator {opr}:")?;
            for instr in self.program(i) {
                match instr {
                    IrInstr::Compute {
                        op,
                        function,
                        duration,
                    } => {
                        writeln!(
                            out,
                            "  compute {} [{}] ({duration})",
                            op.resolve(table),
                            function.resolve(table)
                        )?;
                    }
                    IrInstr::Send {
                        to,
                        medium,
                        bits,
                        tag,
                    } => {
                        writeln!(
                            out,
                            "  send -> {} via {} ({bits} bits, tag {tag})",
                            self.peer_sym(*to).resolve(table),
                            self.medium_sym(*medium).resolve(table)
                        )?;
                    }
                    IrInstr::Receive {
                        from,
                        medium,
                        bits,
                        tag,
                    } => {
                        writeln!(
                            out,
                            "  recv <- {} via {} ({bits} bits, tag {tag})",
                            self.peer_sym(*from).resolve(table),
                            self.medium_sym(*medium).resolve(table)
                        )?;
                    }
                    IrInstr::Configure { module, worst_case } => {
                        writeln!(
                            out,
                            "  configure {} (wcet {worst_case})",
                            module.resolve(table)
                        )?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Incremental [`IrExecutive`] construction; interns through a borrowed
/// [`SymbolTable`]. Call [`IrBuilder::begin_operator`] once per stream
/// (streams keep the call order), push instructions, then
/// [`IrBuilder::finish`].
///
/// Every push comes in two forms: one taking names, which interns them,
/// and one taking already-interned ids (`*_id`), which does no string
/// work at all. Peer and medium refs are dense in first-reference order
/// either way.
pub struct IrBuilder<'t> {
    table: &'t mut SymbolTable,
    ir: IrExecutive,
    /// [`PeerRef`] of each operator symbol, indexed by [`Sym::index`]
    /// ([`UNREFERENCED`] until first referenced).
    name_ix: Vec<u32>,
    /// [`MediumRef`] of each medium symbol, indexed likewise.
    media_ix: Vec<u32>,
}

/// Slot value of a symbol the executive does not reference yet.
const UNREFERENCED: u32 = u32::MAX;

/// The dense ref of `sym` in `list`, appending it on first reference.
fn dense_ref<T: Copy>(ix: &mut Vec<u32>, list: &mut Vec<T>, sym: Sym, item: T) -> u32 {
    let i = sym.index();
    if i >= ix.len() {
        ix.resize(i + 1, UNREFERENCED);
    }
    if ix[i] == UNREFERENCED {
        ix[i] = list.len() as u32;
        list.push(item);
    }
    ix[i]
}

impl<'t> IrBuilder<'t> {
    /// A builder interning into `table`.
    pub fn new(table: &'t mut SymbolTable) -> Self {
        IrBuilder {
            table,
            ir: IrExecutive::default(),
            name_ix: Vec::new(),
            media_ix: Vec::new(),
        }
    }

    fn name_ref(&mut self, name: OperatorId) -> PeerRef {
        PeerRef(dense_ref(
            &mut self.name_ix,
            &mut self.ir.names,
            name.sym(),
            name,
        ))
    }

    fn medium_ref(&mut self, medium: MediumId) -> MediumRef {
        MediumRef(dense_ref(
            &mut self.media_ix,
            &mut self.ir.media,
            medium.sym(),
            medium,
        ))
    }

    fn close_stream(&mut self) {
        if let Some(s) = self.ir.streams.last_mut() {
            s.end = self.ir.instrs.len() as u32;
        }
    }

    fn push(&mut self, instr: IrInstr) {
        assert!(
            !self.ir.streams.is_empty(),
            "IrBuilder: instruction pushed before begin_operator"
        );
        self.ir.instrs.push(instr);
    }

    /// Open the instruction stream of `name` (closing any open stream).
    pub fn begin_operator(&mut self, name: &str) {
        let name = OperatorId::intern(self.table, name);
        self.begin_operator_id(name);
    }

    /// [`IrBuilder::begin_operator`] for an interned operator.
    pub fn begin_operator_id(&mut self, name: OperatorId) {
        self.close_stream();
        let name = self.name_ref(name);
        let start = self.ir.instrs.len() as u32;
        self.ir.streams.push(IrStream {
            name,
            start,
            end: start,
        });
    }

    /// Append a `Compute`.
    pub fn compute(&mut self, op: &str, function: &str, duration: TimePs) {
        let op = OpId::intern(self.table, op);
        let function = ModuleId::intern(self.table, function);
        self.compute_id(op, function, duration);
    }

    /// [`IrBuilder::compute`] for interned names.
    pub fn compute_id(&mut self, op: OpId, function: ModuleId, duration: TimePs) {
        self.push(IrInstr::Compute {
            op,
            function,
            duration,
        });
    }

    /// Append a `Send`.
    pub fn send(&mut self, to: &str, medium: &str, bits: u64, tag: u32) {
        let to = OperatorId::intern(self.table, to);
        let medium = MediumId::intern(self.table, medium);
        self.send_id(to, medium, bits, tag);
    }

    /// [`IrBuilder::send`] for interned names.
    pub fn send_id(&mut self, to: OperatorId, medium: MediumId, bits: u64, tag: u32) {
        let to = self.name_ref(to);
        let medium = self.medium_ref(medium);
        self.push(IrInstr::Send {
            to,
            medium,
            bits,
            tag,
        });
    }

    /// Append a `Receive`.
    pub fn receive(&mut self, from: &str, medium: &str, bits: u64, tag: u32) {
        let from = OperatorId::intern(self.table, from);
        let medium = MediumId::intern(self.table, medium);
        self.receive_id(from, medium, bits, tag);
    }

    /// [`IrBuilder::receive`] for interned names.
    pub fn receive_id(&mut self, from: OperatorId, medium: MediumId, bits: u64, tag: u32) {
        let from = self.name_ref(from);
        let medium = self.medium_ref(medium);
        self.push(IrInstr::Receive {
            from,
            medium,
            bits,
            tag,
        });
    }

    /// Append a `Configure`.
    pub fn configure(&mut self, module: &str, worst_case: TimePs) {
        let module = ModuleId::intern(self.table, module);
        self.configure_id(module, worst_case);
    }

    /// [`IrBuilder::configure`] for an interned module.
    pub fn configure_id(&mut self, module: ModuleId, worst_case: TimePs) {
        self.push(IrInstr::Configure { module, worst_case });
    }

    /// Close the last stream and return the executive.
    pub fn finish(mut self) -> IrExecutive {
        self.close_stream();
        self.ir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> (SymbolTable, IrExecutive) {
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("a");
            b.compute("work", "fn_work", TimePs::from_ns(10));
            b.send("b", "bus", 64, 1);
            b.begin_operator("b");
            b.receive("a", "bus", 64, 1);
            b.configure("mod_x", TimePs::from_ns(500));
            b.finish()
        };
        (table, ir)
    }

    #[test]
    fn streams_slice_the_flat_array() {
        let (_, ir) = demo();
        assert_eq!(ir.operator_count(), 2);
        assert_eq!(ir.len(), 4);
        assert_eq!(ir.program(0).len(), 2);
        assert_eq!(ir.program(1).len(), 2);
        assert_eq!(ir.stream_start(1), 2);
        assert!(matches!(ir.program(0)[1], IrInstr::Send { .. }));
        assert!(matches!(ir.program(1)[0], IrInstr::Receive { .. }));
    }

    #[test]
    fn refs_dedup_names_and_media() {
        let (table, ir) = demo();
        // "a" and "b" each referenced twice (owner + peer) — 2 names.
        assert_eq!(ir.names().len(), 2);
        assert_eq!(ir.media().len(), 1);
        assert_eq!(ir.operator_sym(0).resolve(&table), "a");
        assert_eq!(ir.operator_sym(1).resolve(&table), "b");
        let (IrInstr::Send { to, medium, .. }, IrInstr::Receive { from, .. }) =
            (ir.program(0)[1], ir.program(1)[0])
        else {
            panic!("unexpected instruction shapes");
        };
        assert_eq!(ir.peer_sym(to).resolve(&table), "b");
        assert_eq!(ir.peer_sym(from).resolve(&table), "a");
        assert_eq!(ir.medium_sym(medium).resolve(&table), "bus");
    }

    #[test]
    fn operator_index_by_symbol() {
        let (mut table, ir) = demo();
        let b = table.lookup("b").map(OperatorId::new).unwrap();
        assert_eq!(ir.operator_index(b), Some(1));
        let ghost = OperatorId::intern(&mut table, "ghost");
        assert_eq!(ir.operator_index(ghost), None);
    }

    #[test]
    fn render_matches_string_format() {
        let (table, ir) = demo();
        let text = ir.render(&table);
        assert!(text.starts_with("operator a:\n"));
        assert!(
            text.contains("  compute work [fn_work] (10 ns)")
                || text.contains("  compute work [fn_work] (")
        );
        assert!(text.contains("  send -> b via bus (64 bits, tag 1)"));
        assert!(text.contains("  recv <- a via bus (64 bits, tag 1)"));
        assert!(text.contains("  configure mod_x (wcet "));
    }

    #[test]
    fn instrs_are_copy_and_compact() {
        let (_, ir) = demo();
        let i = ir.program(0)[0];
        let j = i; // Copy
        assert_eq!(i, j);
        assert!(std::mem::size_of::<IrInstr>() <= 24);
    }

    #[test]
    fn id_pushes_build_what_name_pushes_build() {
        let (table, by_name) = demo();
        let mut ids = table.clone();
        let sym = |name: &str| table.lookup(name).unwrap();
        let by_id = {
            let mut b = IrBuilder::new(&mut ids);
            b.begin_operator_id(OperatorId::new(sym("a")));
            b.compute_id(
                OpId::new(sym("work")),
                ModuleId::new(sym("fn_work")),
                TimePs::from_ns(10),
            );
            b.send_id(OperatorId::new(sym("b")), MediumId::new(sym("bus")), 64, 1);
            b.begin_operator_id(OperatorId::new(sym("b")));
            b.receive_id(OperatorId::new(sym("a")), MediumId::new(sym("bus")), 64, 1);
            b.configure_id(ModuleId::new(sym("mod_x")), TimePs::from_ns(500));
            b.finish()
        };
        assert_eq!(by_id, by_name);
        assert_eq!(ids, table);
    }

    #[test]
    #[should_panic(expected = "begin_operator")]
    fn instruction_before_begin_panics() {
        let mut table = SymbolTable::new();
        let mut b = IrBuilder::new(&mut table);
        b.compute("x", "f", TimePs::ZERO);
    }
}
