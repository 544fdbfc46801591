//! The interned-executive interpreter: [`IrSimSystem`].
//!
//! Semantically identical to [`crate::system::SimSystem`] — same event
//! ordering, same rendezvous/contention model, same reports, same error
//! messages — but it interprets the lowered
//! [`IrExecutive`] instead of the string
//! `Executive`, with **zero per-event allocation** on the hot path:
//!
//! * instructions are `Copy` values read by index from one flat array
//!   (the string interpreter clones a heap-string-carrying `MacroInstr`
//!   per executed instruction);
//! * media occupancy lives in dense `Vec`s indexed by the executive's
//!   [`MediumRef`], not `BTreeMap<String, _>`;
//! * at run start every rendezvous tag gets a dense rank (the tag itself
//!   when tags are dense, else its position among the sorted tags), and
//!   one side table indexed like [`IrExecutive::instrs`] gives each
//!   `Send`/`Receive` its rank and its transfer time, so a completed
//!   transfer neither hashes nor divides. Pending rendezvous sit in one
//!   `(stream, iteration)` slot per rank; only a second party waiting on
//!   the same tag at another iteration (hostile executives) spills into a
//!   small overflow map;
//! * every wake of the stream being stepped goes through
//!   [`EventQueue::schedule_pop`]: one heap sift instead of a push and a
//!   pop, and none when the wake is strictly earliest. The pops, and so
//!   every tie, are exactly those of a `schedule`/`pop` pair (the tie and
//!   in-place rules in [`crate::engine`]);
//! * blocked-state bookkeeping is a small `Copy` enum rather than a
//!   formatted `String` (the strings are produced only if the run ends
//!   in deadlock);
//! * `Configure` goes through the one runtime model, the allocation-free
//!   indexed [`RtrEngine`] attached with [`IrSimSystem::attach_engine`];
//!   the stream→region binding is a dense slot array resolved when the
//!   engine is attached, not a `BTreeMap<String, _>` probed per request.
//!   Reconfiguration/trace events are recorded compactly and materialized
//!   to the string-based [`SimReport`] once, after the run.
//!
//! A run therefore allocates per stream and per tag, never per event
//! (`bench_ir_sim --test` pins the count on a 10k-op flow). Wake times
//! that would pass `u64::MAX` ps fail with [`SimError::TimeOverflow`],
//! as in the string interpreter.
//!
//! # Steady-state fast-forward
//!
//! The paper's runtime repeats one synchronized executive every
//! iteration and changes the selected module only at frame boundaries,
//! so most iterations of a run replay the one before, shifted in time.
//! Runs without trace capture detect that and skip the repeats; the
//! report and every error stay byte-identical to interpreting each
//! iteration.
//!
//! * **Boundaries.** Boundary `k` is the moment the last non-empty stream
//!   finishes iteration `k − 1`. There the run snapshots, into two
//!   buffers reused for the whole run, the state that decides what
//!   happens next: each stream's pc, iteration and status, the stream in
//!   hand and the event queue in pop order (ties included), which blocked
//!   streams still hold their rendezvous slot, each medium's free time
//!   clamped at `now`, and the engine's residency, staging cache, policy
//!   state and in-flight fetch ([`RtrEngine::encode_state`]). Times are
//!   relative to `now` and iterations to `k`.
//! * **Repeats.** When the snapshot at `k` equals the one at `k − 1`, the
//!   period between them recorded no reconfiguration (so the engine saw
//!   only `already_loaded` requests), and neither rendezvous overflow
//!   map is in use, the next period replays it exactly, moved by
//!   `λ = t_k − t_{k−1}`, and so does every period after it while the
//!   inputs repeat too.
//! * **Skipping `n` periods.** `n` stops before any stream would reach
//!   the last iteration (where streams go `Done`), before any selection a
//!   `Configure` read in the period changes, and before a time the state
//!   holds would pass `u64::MAX` (that period runs exactly and reports
//!   the overflow). Queue times, medium free times and the clock move by
//!   `n·λ`; iterations and the iterations held by blocked streams and
//!   their rendezvous slots move by `n`. Busy times, engine request
//!   counts ([`RtrEngine::replay_resident_hits`]) and the period's
//!   `iteration_ends` updates are replayed `n` times.
//!   [`IrSimSystem::fast_forwarded`] counts the skipped iterations.
//!
//! The engine needs no shift. Its one time, an in-flight fetch's
//! completion, enters the snapshot as the time remaining, so two
//! boundaries match only once the fetch has completed; from then on its
//! absolute value no longer changes any answer. An LRU or LFU region changes nothing but its statistics on a resident
//! hit; a Belady region advances its trace cursor, which is part of the
//! snapshot, so it fast-forwards only over spans where the cursor does
//! not move. Trace capture always takes the full path, as do executives
//! whose state never repeats (hostile ones with overwritten waiting
//! parties, say).
//!
//! The equivalence suite (`tests/ir_equivalence.rs` at the workspace
//! root) asserts report- and trace-level equality against the string
//! interpreter — which keeps the reference `ConfigurationManager`s as its
//! runtime model — for every gallery flow, for random graphs, and for
//! hand-built executives full of `(time, seq)` ties, repeated tags and
//! unknown media. Its fast-forward section compares fast, full and
//! string runs, errors included.

use crate::engine::EventQueue;
use crate::error::SimError;
use crate::report::{ReconfigEvent, SimReport, TraceEvent, TraceKind};
use crate::system::SimConfig;
use pdr_fabric::TimePs;
use pdr_graph::{ArchGraph, Medium};
use pdr_ir::{IrExecutive, IrInstr, MediumRef, OperatorId, PeerRef, SymbolTable};
use pdr_rtr::{RtrEngine, NO_MODULE};
use std::collections::{BTreeMap, HashMap};

/// Sentinel for "no engine region bound to this stream".
const NO_SLOT: u32 = u32::MAX;

/// Operator progress state. `Copy`; blocked states carry the rendezvous
/// key and are rendered to the string interpreter's exact wording only
/// on deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IrStatus {
    Ready,
    BlockedSend { tag: u32, iter: u32 },
    BlockedRecv { tag: u32, iter: u32 },
    Done,
}

impl IrStatus {
    fn describe(self) -> String {
        match self {
            IrStatus::BlockedSend { tag, iter } => format!("send tag {tag} iter {iter}"),
            IrStatus::BlockedRecv { tag, iter } => format!("recv tag {tag} iter {iter}"),
            IrStatus::Ready => "Ready".to_string(),
            IrStatus::Done => "Done".to_string(),
        }
    }
}

struct IrOpRuntime<'p> {
    program: &'p [IrInstr],
    /// Per-run tag ranks and transfer times, indexed like `program`.
    comm: &'p [CommSlot],
    /// Per-iteration module selection for this operator, if configured.
    sel: Option<&'p [String]>,
    /// The selection pre-resolved to engine module ids (engine-backed
    /// operators only; unknown names carry [`NO_MODULE`] and fall back to
    /// the by-name path for the exact reference error).
    sel_ids: Option<Vec<u32>>,
    pc: u32,
    iteration: u32,
    status: IrStatus,
    busy: TimePs,
}

/// Compactly recorded reconfiguration; materialized after the run.
#[derive(Clone, Copy)]
struct RawReconfig {
    stream: u32,
    pc: u32,
    iteration: u32,
    requested_at: TimePs,
    ready_at: TimePs,
    fetch_hidden: bool,
}

/// Compactly recorded trace event; materialized after the run.
#[derive(Clone, Copy)]
enum RawTraceKind {
    Compute {
        stream: u32,
        pc: u32,
    },
    Transfer {
        from: PeerRef,
        to: PeerRef,
        medium: MediumRef,
        bits: u64,
    },
    Reconfigure {
        stream: u32,
        pc: u32,
        fetch_hidden: bool,
    },
}

#[derive(Clone, Copy)]
struct RawTrace {
    iteration: u32,
    start: TimePs,
    end: TimePs,
    kind: RawTraceKind,
}

/// Transfer-time sentinel in [`CommSlot`]: the medium does not resolve to
/// an architecture medium (or has zero bandwidth), so the transfer is
/// timed, and fails, only when it completes — as in the string
/// interpreter. A medium whose real transfer time is `TimePs::MAX` also
/// carries the sentinel and is re-timed on completion.
const XFER_UNRESOLVED: TimePs = TimePs::MAX;

/// Per-run view of one `Send`/`Receive`: the dense rank of its tag (see
/// [`IrSimSystem::run`]) and its transfer time.
#[derive(Clone, Copy)]
struct CommSlot {
    rank: u32,
    xfer: TimePs,
}

/// The parties waiting at rendezvous in one direction (senders or
/// receivers), keyed by `(tag rank, iteration)`.
///
/// Every tag rank owns one dense `(stream, iteration)` slot. A second
/// waiting party on the same tag at a *different* iteration — which only a
/// hostile executive produces — goes to the overflow map. A key lives in
/// at most one of the two places, and a put on a key already present
/// overwrites it, exactly like the string interpreter's `HashMap` insert.
struct Pending {
    slots: Vec<(u32, u32)>,
    overflow: HashMap<u64, u32>,
}

impl Pending {
    fn new(tags: usize) -> Self {
        Pending {
            slots: vec![(NO_SLOT, 0); tags],
            overflow: HashMap::new(),
        }
    }

    fn key(rank: u32, iter: u32) -> u64 {
        (u64::from(rank) << 32) | u64::from(iter)
    }

    /// Remove and return the stream waiting on `(rank, iter)`, if any.
    #[inline]
    fn take(&mut self, rank: u32, iter: u32) -> Option<usize> {
        let slot = &mut self.slots[rank as usize];
        if slot.0 != NO_SLOT && slot.1 == iter {
            let stream = slot.0;
            slot.0 = NO_SLOT;
            return Some(stream as usize);
        }
        if self.overflow.is_empty() {
            return None;
        }
        self.overflow
            .remove(&Self::key(rank, iter))
            .map(|s| s as usize)
    }

    /// Record `stream` as waiting on `(rank, iter)`, replacing any stream
    /// already waiting on that key.
    #[inline]
    fn put(&mut self, rank: u32, iter: u32, stream: usize) {
        let slot = &mut self.slots[rank as usize];
        if slot.0 != NO_SLOT && slot.1 != iter {
            self.overflow.insert(Self::key(rank, iter), stream as u32);
            return;
        }
        *slot = (stream as u32, iter);
        if !self.overflow.is_empty() {
            self.overflow.remove(&Self::key(rank, iter));
        }
    }
}

/// Time a transfer whose [`CommSlot`] carries [`XFER_UNRESOLVED`]: the
/// string interpreter's lazy medium lookup, with its exact error.
#[cold]
fn resolve_transfer(
    med: Option<&Medium>,
    ir: &IrExecutive,
    table: &SymbolTable,
    medium: MediumRef,
    bits: u64,
) -> Result<TimePs, SimError> {
    let med =
        med.ok_or_else(|| SimError::UnknownName(ir.medium_sym(medium).resolve(table).to_string()))?;
    Ok(med.transfer_time(bits))
}

/// Status words of a boundary snapshot, which records per stream its pc,
/// its iteration relative to the boundary and one of these.
const STATUS_READY: u64 = 0;
const STATUS_DONE: u64 = 1;
const STATUS_SEND: u64 = 2;
const STATUS_RECV: u64 = 3;
/// Set in a blocked stream's status word while its rendezvous slot still
/// holds it (a hostile executive can overwrite a waiting party).
const STATUS_WAITING: u64 = 4;

/// The interpreter state at an iteration boundary, borrowed from
/// [`IrSimSystem::run`]: what a snapshot reads and a skip moves.
struct Live<'r, 'p> {
    now: TimePs,
    /// The stream that completed the boundary. It is stepped next, ahead
    /// of every queued event.
    hand: usize,
    ops: &'r mut [IrOpRuntime<'p>],
    queue: &'r mut EventQueue<usize>,
    pending_send: &'r mut Pending,
    pending_recv: &'r mut Pending,
    medium_free: &'r mut [TimePs],
    medium_busy: &'r mut [TimePs],
    iteration_ends: &'r mut [TimePs],
    engine: Option<&'r mut RtrEngine>,
    reconfigs: usize,
}

/// One iteration boundary's snapshot. Boundary `k` is reached when every
/// non-empty stream has finished iterations `0..k`.
#[derive(Default)]
struct Boundary {
    at: TimePs,
    /// Highest iteration a stream that is not done is in.
    hi: u32,
    /// Reconfigurations recorded so far.
    reconfigs: usize,
    /// Both rendezvous overflow maps are empty.
    overflow_free: bool,
    /// `words[..split]`: the state that decides what happens next, with
    /// times relative to `at` and iterations relative to `k` (compared
    /// with `==`). `words[split..]`: the cumulative busy times per stream
    /// and per medium, then requests per engine region, which a skip
    /// replays.
    words: Vec<u64>,
    split: usize,
}

impl Boundary {
    fn with_capacity(words: usize) -> Self {
        Boundary {
            words: Vec::with_capacity(words),
            ..Boundary::default()
        }
    }

    fn state(&self) -> &[u64] {
        &self.words[..self.split]
    }

    fn counters(&self) -> &[u64] {
        &self.words[self.split..]
    }

    fn capture(&mut self, s: &Live<'_, '_>, k: u32, queued: &mut Vec<(u128, usize)>) {
        let now = s.now;
        self.at = now;
        self.hi = 0;
        self.reconfigs = s.reconfigs;
        self.overflow_free =
            s.pending_send.overflow.is_empty() && s.pending_recv.overflow.is_empty();
        let w = &mut self.words;
        w.clear();
        w.extend([
            s.hand as u64,
            s.pending_send.overflow.len() as u64,
            s.pending_recv.overflow.len() as u64,
        ]);
        for (i, o) in s.ops.iter().enumerate() {
            let status = match o.status {
                IrStatus::Ready => STATUS_READY,
                IrStatus::Done => STATUS_DONE,
                IrStatus::BlockedSend { iter, .. } | IrStatus::BlockedRecv { iter, .. } => {
                    let (code, pending) = match o.status {
                        IrStatus::BlockedSend { .. } => (STATUS_SEND, &*s.pending_send),
                        _ => (STATUS_RECV, &*s.pending_recv),
                    };
                    let rank = o.comm[o.pc as usize].rank as usize;
                    if pending.slots[rank] == (i as u32, iter) {
                        code | STATUS_WAITING
                    } else {
                        code
                    }
                }
            };
            if status != STATUS_DONE {
                self.hi = self.hi.max(o.iteration);
            }
            w.extend([
                u64::from(o.pc),
                u64::from(o.iteration.wrapping_sub(k)),
                status,
            ]);
        }
        s.queue.pending_in_order(queued);
        for &(key, stream) in queued.iter() {
            w.extend([stream as u64, (key >> 64) as u64 - now.as_ps()]);
        }
        w.extend(s.medium_free.iter().map(|&f| (f.max(now) - now).as_ps()));
        if let Some(e) = s.engine.as_deref() {
            e.encode_state(now, w);
        }
        self.split = w.len();
        w.extend(s.ops.iter().map(|o| o.busy.as_ps()));
        w.extend(s.medium_busy.iter().map(|b| b.as_ps()));
        if let Some(e) = s.engine.as_deref() {
            w.extend((0..e.region_count() as u32).map(|r| e.stats(r).requests));
        }
    }
}

/// Steady-state fast-forward (see the module docs): boundary detection,
/// the last two boundary snapshots and the log of the period between
/// them. Every buffer is sized at run start and reused.
struct FastForward {
    /// Lowest iteration a non-empty stream is in, and how many non-empty
    /// streams are in it.
    low: u32,
    behind: usize,
    prev: Boundary,
    cur: Boundary,
    /// `iteration_ends` updates since the last boundary: `(iteration,
    /// time)`.
    ends: Vec<(u32, TimePs)>,
    /// Lowest and highest iteration whose selection a `Configure` read
    /// since the last boundary.
    reads: Option<(u32, u32)>,
    /// Scratch: the event queue in pop order.
    queued: Vec<(u128, usize)>,
    /// Iterations advanced without interpretation.
    skipped: u32,
}

impl FastForward {
    fn new(ops: &[IrOpRuntime<'_>], media: usize, regions: usize) -> Self {
        let streams = ops.len();
        // Header, three words per stream, at most one queued event per
        // stream, media; then the counters. The engine reserves its own.
        let words = 3 + 5 * streams + media + streams + media + regions;
        FastForward {
            low: 0,
            behind: ops.iter().filter(|o| !o.program.is_empty()).count(),
            prev: Boundary::with_capacity(words),
            cur: Boundary::with_capacity(words),
            ends: Vec::with_capacity(streams),
            reads: None,
            queued: Vec::with_capacity(streams),
            skipped: 0,
        }
    }

    /// A `Configure` read the selection of iteration `iter`.
    #[inline]
    fn read(&mut self, iter: u32) {
        self.reads = Some(
            self.reads
                .map_or((iter, iter), |(lo, hi)| (lo.min(iter), hi.max(iter))),
        );
    }

    /// A non-empty stream finished iteration `done` at `now` (its
    /// `iteration` already advanced). True when that completes boundary
    /// `done + 1`.
    fn finished(&mut self, done: u32, now: TimePs, ops: &[IrOpRuntime<'_>]) -> bool {
        self.ends.push((done, now));
        if done != self.low {
            return false;
        }
        self.behind -= 1;
        if self.behind > 0 {
            return false;
        }
        self.low += 1;
        let low = self.low;
        self.behind = ops
            .iter()
            .filter(|o| !o.program.is_empty() && o.iteration == low)
            .count();
        true
    }

    /// Boundary `self.low`, reached at `s.now`: snapshot it and, when the
    /// last period repeats, skip as many periods as stay exact. Moves
    /// `s.now` by the skipped span.
    fn at_boundary(&mut self, s: &mut Live<'_, '_>, iterations: u32) {
        self.cur.capture(s, self.low, &mut self.queued);
        let periods = self.periods(s, iterations);
        if periods > 0 {
            self.skip(s, periods);
            self.cur.capture(s, self.low, &mut self.queued);
        }
        std::mem::swap(&mut self.prev, &mut self.cur);
        self.ends.clear();
        self.reads = None;
    }

    /// How many periods like the one that just ended can be skipped: zero
    /// unless the state repeats and the period reconfigured nothing.
    fn periods(&self, s: &Live<'_, '_>, iterations: u32) -> u32 {
        let (prev, cur) = (&self.prev, &self.cur);
        if prev.words.is_empty()
            || cur.reconfigs != prev.reconfigs
            || !cur.overflow_free
            || cur.state() != prev.state()
        {
            return 0;
        }
        // Stop before any stream would reach its last iteration...
        let mut n = iterations.saturating_sub(cur.hi + 1);
        // ...and before any selection a `Configure` reads changes. Each
        // skipped period reads the iterations the last one read, moved by
        // its index.
        if let Some((lo, hi)) = self.reads {
            for ids in s.ops.iter().filter_map(|o| o.sel_ids.as_deref()) {
                let base = ids[lo as usize];
                if ids[lo as usize..=hi as usize].iter().any(|&m| m != base) {
                    return 0;
                }
                let ahead = &ids[hi as usize + 1..=hi as usize + n as usize];
                if let Some(p) = ahead.iter().position(|&m| m != base) {
                    n = p as u32;
                }
            }
        }
        // The latest time the state holds bounds every time the skipped
        // periods compute. Skip only the periods that keep it within
        // `u64`: the one that would pass it runs on the exact path, which
        // reports the overflow.
        let latest = self
            .queued
            .last()
            .map_or(s.now, |&(key, _)| TimePs::from_ps((key >> 64) as u64))
            .max(s.medium_free.iter().copied().max().unwrap_or(TimePs::ZERO));
        let room = (u64::MAX - latest.as_ps()).checked_div((cur.at - prev.at).as_ps());
        if let Some(room) = room {
            n = n.min(u32::try_from(room).unwrap_or(u32::MAX));
        }
        n
    }

    /// Advance `s` by `n` periods of the one that just ended.
    fn skip(&mut self, s: &mut Live<'_, '_>, n: u32) {
        let period = self.cur.at - self.prev.at;
        let span = period * u64::from(n);
        let (prev, cur) = (self.prev.counters(), self.cur.counters());
        let delta = |c: usize| cur[c] - prev[c];
        let streams = s.ops.len();
        for (i, o) in s.ops.iter_mut().enumerate() {
            o.busy += TimePs::from_ps(delta(i)) * u64::from(n);
            let (pending, iter) = match &mut o.status {
                IrStatus::Done => continue,
                IrStatus::Ready => {
                    o.iteration += n;
                    continue;
                }
                IrStatus::BlockedSend { iter, .. } => (&mut *s.pending_send, iter),
                IrStatus::BlockedRecv { iter, .. } => (&mut *s.pending_recv, iter),
            };
            let slot = &mut pending.slots[o.comm[o.pc as usize].rank as usize];
            if *slot == (i as u32, *iter) {
                slot.1 += n;
            }
            *iter += n;
            o.iteration += n;
        }
        for (m, (free, busy)) in s
            .medium_free
            .iter_mut()
            .zip(s.medium_busy.iter_mut())
            .enumerate()
        {
            *free = (*free).max(s.now) + span;
            *busy += TimePs::from_ps(delta(streams + m)) * u64::from(n);
        }
        if let Some(e) = s.engine.as_deref_mut() {
            let base = streams + s.medium_busy.len();
            for r in 0..e.region_count() {
                e.replay_resident_hits(r as u32, delta(base + r) * u64::from(n));
            }
        }
        for j in 1..=n {
            let moved = period * u64::from(j);
            for &(it, t) in &self.ends {
                let end = &mut s.iteration_ends[(it + j) as usize];
                *end = (*end).max(t + moved);
            }
        }
        s.queue.shift(span);
        s.now += span;
        self.low += n;
        self.skipped += n;
    }
}

/// A runnable system over the lowered executive: architecture +
/// [`IrExecutive`] + the symbol table that interned it + the runtime
/// engine. Accepts the same [`SimConfig`] as the string interpreter and
/// produces the same [`SimReport`].
pub struct IrSimSystem<'a> {
    arch: &'a ArchGraph,
    ir: &'a IrExecutive,
    table: &'a SymbolTable,
    /// The indexed engine serving every dynamic stream, if attached.
    engine: Option<RtrEngine>,
    /// stream index → engine region id ([`NO_SLOT`] when unbound).
    engine_slot: Vec<u32>,
    /// symbol index → engine module id (for default `Configure` targets).
    sym_to_mod: Vec<u32>,
    /// Iterations the last run advanced without interpreting them.
    fast_forwarded: u32,
}

impl<'a> IrSimSystem<'a> {
    /// Build a system; attach the runtime engine with
    /// [`IrSimSystem::attach_engine`]. Without one, every `Configure`
    /// charges its characterized worst case.
    /// `table` must be the table the executive was lowered through (or a
    /// superset of it, e.g. the one carried by `pdr-core`'s artifacts).
    pub fn new(arch: &'a ArchGraph, ir: &'a IrExecutive, table: &'a SymbolTable) -> Self {
        IrSimSystem {
            arch,
            ir,
            table,
            engine: None,
            engine_slot: vec![NO_SLOT; ir.operator_count()],
            sym_to_mod: Vec::new(),
            fast_forwarded: 0,
        }
    }

    /// Attach the indexed [`RtrEngine`], replacing any engine attached
    /// before. Each engine region serves the stream of the same name (a
    /// dynamic region is the operator the executive configures), and its
    /// statistics appear in the report's `manager_stats` under that name.
    /// All name→id resolution (regions, selection entries, default
    /// `Configure` modules) happens here and at run start — never per
    /// request.
    pub fn attach_engine(&mut self, engine: RtrEngine) -> &mut Self {
        self.sym_to_mod = vec![NO_MODULE; self.table.len()];
        for (sym, name) in self.table.iter() {
            if let Some(mid) = engine.module_index(name) {
                self.sym_to_mod[sym.index()] = mid;
            }
        }
        self.engine_slot.iter_mut().for_each(|s| *s = NO_SLOT);
        for rid in 0..engine.region_count() as u32 {
            if let Some(sym) = self.table.lookup(engine.region_name(rid)) {
                if let Some(i) = self.ir.operator_index(OperatorId::new(sym)) {
                    self.engine_slot[i] = rid;
                }
            }
        }
        self.engine = Some(engine);
        self
    }

    /// The attached engine, if any (for post-run statistics probes).
    pub fn engine(&self) -> Option<&RtrEngine> {
        self.engine.as_ref()
    }

    /// How many iterations the last [`IrSimSystem::run`] advanced by
    /// steady-state fast-forward instead of interpreting them (see the
    /// module docs). Zero for runs with trace capture. It describes the
    /// interpreter's work, not the simulated system, so it is not part of
    /// the [`SimReport`].
    pub fn fast_forwarded(&self) -> u32 {
        self.fast_forwarded
    }

    /// Run the system and produce a report.
    pub fn run(&mut self, config: &SimConfig) -> Result<SimReport, SimError> {
        self.fast_forwarded = 0;
        let ir = self.ir;
        let table = self.table;
        let arch = self.arch;
        let engine = &mut self.engine;
        let engine_slot = &self.engine_slot;
        let sym_to_mod = &self.sym_to_mod;

        // Validate selections (same order and messages as the string
        // interpreter: unknown operator first, then length).
        for (opr, mods) in &config.selections {
            if arch.operator_by_name(opr).is_none() {
                return Err(SimError::BadSelection(format!("unknown operator `{opr}`")));
            }
            if mods.len() != config.iterations as usize {
                return Err(SimError::BadSelection(format!(
                    "selection for `{opr}` has {} entries, expected {}",
                    mods.len(),
                    config.iterations
                )));
            }
        }

        // Dense medium tables indexed by the executive's MediumRef. A ref
        // that does not resolve to an architecture medium only errors when
        // a transfer over it completes, matching the string interpreter's
        // lazy name resolution.
        let med_arch: Vec<Option<&Medium>> = ir
            .media()
            .iter()
            .map(|m| {
                arch.medium_by_name(m.resolve(table))
                    .map(|id| arch.medium(id))
            })
            .collect();
        let mut medium_free = vec![TimePs::ZERO; med_arch.len()];
        let mut medium_busy = vec![TimePs::ZERO; med_arch.len()];
        let mut medium_touched = vec![false; med_arch.len()];

        // Rank rendezvous tags once, and give every comm instruction its
        // rank and transfer time in one side table indexed like
        // `ir.instrs()`. Generated executives number their tags densely
        // from zero, so a tag is its own rank while the tag space is at
        // most twice the comm instruction count. Tags are arbitrary u32s
        // (executives are hostile input): sparser tags are ranked by
        // their position in the sorted, deduplicated tag list.
        let instrs = ir.instrs();
        let comm_tag = |ins: &IrInstr| match *ins {
            IrInstr::Send { tag, .. } | IrInstr::Receive { tag, .. } => Some(tag),
            _ => None,
        };
        let (comm_count, max_tag) = instrs
            .iter()
            .filter_map(comm_tag)
            .fold((0usize, 0u32), |(n, max), tag| (n + 1, max.max(tag)));
        let sorted_tags: Option<Vec<u32>> = (max_tag as usize >= 2 * comm_count).then(|| {
            let mut tags: Vec<u32> = instrs.iter().filter_map(comm_tag).collect();
            tags.sort_unstable();
            tags.dedup();
            tags
        });
        let rank = |tag: u32| match &sorted_tags {
            None => tag,
            Some(tags) => tags.partition_point(|&t| t < tag) as u32,
        };
        let comm: Vec<CommSlot> = instrs
            .iter()
            .map(|ins| match *ins {
                IrInstr::Send {
                    medium, bits, tag, ..
                }
                | IrInstr::Receive {
                    medium, bits, tag, ..
                } => CommSlot {
                    rank: rank(tag),
                    xfer: match med_arch[medium.0 as usize] {
                        Some(med) if med.bits_per_sec > 0 => med.transfer_time(bits),
                        _ => XFER_UNRESOLVED,
                    },
                },
                _ => CommSlot {
                    rank: 0,
                    xfer: TimePs::ZERO,
                },
            })
            .collect();
        let ranks = sorted_tags.map_or(max_tag as usize + 1, |tags| tags.len());
        let mut pending_send = Pending::new(ranks);
        let mut pending_recv = Pending::new(ranks);

        // Dense per-stream runtimes. Stream order is the executive's
        // lowering order (alphabetical for lowered string executives).
        let n = ir.operator_count();
        let mut op_names: Vec<&str> = Vec::with_capacity(n);
        let mut ops: Vec<IrOpRuntime<'_>> = Vec::with_capacity(n);
        for (i, slot) in engine_slot.iter().enumerate().take(n) {
            let name = ir.operator_sym(i).resolve(table);
            if arch.operator_by_name(name).is_none() {
                return Err(SimError::UnknownName(name.to_string()));
            }
            op_names.push(name);
            let sel = config.selections.get(name).map(Vec::as_slice);
            let sel_ids = match (sel, engine.as_ref()) {
                (Some(mods), Some(e)) if *slot != NO_SLOT => Some(
                    mods.iter()
                        .map(|m| e.module_index(m).unwrap_or(NO_MODULE))
                        .collect(),
                ),
                _ => None,
            };
            let program = ir.program(i);
            let start = ir.stream_start(i);
            ops.push(IrOpRuntime {
                program,
                comm: &comm[start..start + program.len()],
                sel,
                sel_ids,
                pc: 0,
                iteration: 0,
                status: if config.iterations == 0 {
                    IrStatus::Done
                } else {
                    IrStatus::Ready
                },
                busy: TimePs::ZERO,
            });
        }
        let overflow = |i: usize, at: TimePs| SimError::TimeOverflow {
            operator: op_names[i].to_string(),
            at_ps: at.as_ps(),
        };

        let mut queue: EventQueue<usize> = EventQueue::new();
        for i in 0..ops.len() {
            queue.schedule(TimePs::ZERO, i);
        }

        let mut reconfigs: Vec<RawReconfig> = Vec::new();
        let mut trace: Vec<RawTrace> = Vec::new();
        let mut makespan = TimePs::ZERO;
        let mut iteration_ends = vec![TimePs::ZERO; config.iterations as usize];
        let mut fast = (!config.capture_trace).then(|| {
            let regions = engine.as_ref().map_or(0, RtrEngine::region_count);
            FastForward::new(&ops, medium_free.len(), regions)
        });

        // Every wake of the stream being stepped goes through
        // `schedule_pop`, which hands the stream straight back when its
        // wake is strictly earliest (the in-place rule in `engine`).
        let mut next = queue.pop();
        while let Some((mut now, i)) = next {
            makespan = makespan.max(now);
            if ops[i].status == IrStatus::Done {
                next = queue.pop();
                continue;
            }
            ops[i].status = IrStatus::Ready;
            // Step instructions until the operator blocks, finishes or
            // waits; the loop yields the next event.
            next = 'step: loop {
                if ops[i].pc as usize >= ops[i].program.len() {
                    let done = ops[i].iteration;
                    ops[i].iteration += 1;
                    ops[i].pc = 0;
                    if !ops[i].program.is_empty() {
                        if (done as usize) < iteration_ends.len() {
                            let end = &mut iteration_ends[done as usize];
                            *end = (*end).max(now);
                        }
                        if let Some(ff) = fast.as_mut() {
                            if ff.finished(done, now, &ops) && ops[i].iteration < config.iterations
                            {
                                let mut live = Live {
                                    now,
                                    hand: i,
                                    ops: &mut ops,
                                    queue: &mut queue,
                                    pending_send: &mut pending_send,
                                    pending_recv: &mut pending_recv,
                                    medium_free: &mut medium_free,
                                    medium_busy: &mut medium_busy,
                                    iteration_ends: &mut iteration_ends,
                                    engine: engine.as_mut(),
                                    reconfigs: reconfigs.len(),
                                };
                                ff.at_boundary(&mut live, config.iterations);
                                now = live.now;
                                makespan = now;
                                self.fast_forwarded = ff.skipped;
                            }
                        }
                    }
                    if ops[i].iteration >= config.iterations {
                        ops[i].status = IrStatus::Done;
                        break 'step queue.pop();
                    }
                    if ops[i].program.is_empty() {
                        ops[i].iteration = config.iterations;
                        ops[i].status = IrStatus::Done;
                        break 'step queue.pop();
                    }
                    continue 'step;
                }
                let pc = ops[i].pc;
                let instr = ops[i].program[pc as usize];
                let iter = ops[i].iteration;
                match instr {
                    IrInstr::Compute { duration, .. } => {
                        let end = now.checked_add(duration).ok_or_else(|| overflow(i, now))?;
                        ops[i].pc += 1;
                        ops[i].busy += duration;
                        if config.capture_trace {
                            trace.push(RawTrace {
                                iteration: iter,
                                start: now,
                                end,
                                kind: RawTraceKind::Compute {
                                    stream: i as u32,
                                    pc,
                                },
                            });
                        }
                        if duration.is_zero() {
                            continue 'step;
                        }
                        break 'step Some(queue.schedule_pop(end, i));
                    }
                    IrInstr::Configure { module, worst_case } => {
                        let chosen: &str = match ops[i].sel {
                            Some(mods) => {
                                mods.get(iter as usize).map(String::as_str).ok_or_else(|| {
                                    SimError::BadSelection(format!(
                                        "selection for `{}` has no entry for iteration {iter}",
                                        op_names[i]
                                    ))
                                })?
                            }
                            None => module.resolve(table),
                        };
                        let (ready_at, hidden) = if engine_slot[i] != NO_SLOT {
                            let eng = engine.as_mut().expect("engine slot without engine");
                            let mid = match &ops[i].sel_ids {
                                Some(ids) => {
                                    if let Some(ff) = fast.as_mut() {
                                        ff.read(iter);
                                    }
                                    ids[iter as usize]
                                }
                                None => sym_to_mod
                                    .get(module.sym().index())
                                    .copied()
                                    .unwrap_or(NO_MODULE),
                            };
                            let t = if mid != NO_MODULE {
                                eng.request(engine_slot[i], mid, now)
                            } else {
                                // Unknown to the engine: resolve by name so
                                // the error (and request accounting) matches
                                // the reference manager exactly.
                                eng.request_in(engine_slot[i], chosen, now)
                            }
                            .map_err(|e| SimError::Manager(e.to_string()))?;
                            if t.already_loaded {
                                ops[i].pc += 1;
                                continue 'step;
                            }
                            (t.ready_at, t.fetch_hidden)
                        } else {
                            // No engine region: charge the characterized worst case
                            // (see the string interpreter for the rationale).
                            let ready_at = now
                                .checked_add(worst_case)
                                .ok_or_else(|| overflow(i, now))?;
                            (ready_at, false)
                        };
                        if ready_at < now {
                            // The engine's ready time wrapped past u64::MAX.
                            return Err(overflow(i, now));
                        }
                        ops[i].pc += 1;
                        ops[i].busy += ready_at - now;
                        reconfigs.push(RawReconfig {
                            stream: i as u32,
                            pc,
                            iteration: iter,
                            requested_at: now,
                            ready_at,
                            fetch_hidden: hidden,
                        });
                        if config.capture_trace {
                            trace.push(RawTrace {
                                iteration: iter,
                                start: now,
                                end: ready_at,
                                kind: RawTraceKind::Reconfigure {
                                    stream: i as u32,
                                    pc,
                                    fetch_hidden: hidden,
                                },
                            });
                        }
                        if ready_at == now {
                            continue 'step;
                        }
                        break 'step Some(queue.schedule_pop(ready_at, i));
                    }
                    IrInstr::Send {
                        to: peer,
                        medium,
                        bits,
                        tag,
                    }
                    | IrInstr::Receive {
                        from: peer,
                        medium,
                        bits,
                        tag,
                    } => {
                        let is_send = matches!(instr, IrInstr::Send { .. });
                        let CommSlot { rank, xfer } = ops[i].comm[pc as usize];
                        let (waiting, partners) = if is_send {
                            (&mut pending_send, &mut pending_recv)
                        } else {
                            (&mut pending_recv, &mut pending_send)
                        };
                        let Some(j) = partners.take(rank, iter) else {
                            waiting.put(rank, iter, i);
                            ops[i].status = if is_send {
                                IrStatus::BlockedSend { tag, iter }
                            } else {
                                IrStatus::BlockedRecv { tag, iter }
                            };
                            break 'step queue.pop();
                        };
                        // `i` arrived second: the transfer starts now or
                        // when the medium frees up, whichever is later.
                        let m = medium.0 as usize;
                        let xfer = if xfer == XFER_UNRESOLVED {
                            resolve_transfer(med_arch[m], ir, table, medium, bits)?
                        } else {
                            xfer
                        };
                        let start = now.max(medium_free[m]);
                        let end = start.checked_add(xfer).ok_or_else(|| overflow(i, now))?;
                        medium_free[m] = end;
                        medium_busy[m] += end - start;
                        medium_touched[m] = true;
                        if config.capture_trace {
                            let me = ir.operator_ref(i);
                            let (from, to) = if is_send { (me, peer) } else { (peer, me) };
                            trace.push(RawTrace {
                                iteration: iter,
                                start,
                                end,
                                kind: RawTraceKind::Transfer {
                                    from,
                                    to,
                                    medium,
                                    bits,
                                },
                            });
                        }
                        ops[i].pc += 1;
                        ops[j].pc += 1;
                        ops[j].status = IrStatus::Ready;
                        // Both wake at `end`, `i` first.
                        queue.schedule(end, i);
                        break 'step Some(queue.schedule_pop(end, j));
                    }
                }
            };
        }

        // Every operator must have finished.
        let blocked: Vec<(String, String)> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.status != IrStatus::Done)
            .map(|(i, o)| (op_names[i].to_string(), o.status.describe()))
            .collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock {
                at_ps: makespan.as_ps(),
                blocked,
            });
        }

        // Materialize the report's string-keyed views once, after the run.
        let chosen_module = |stream: u32, pc: u32, iteration: u32| -> String {
            let i = stream as usize;
            if let Some(mods) = ops[i].sel {
                return mods[iteration as usize].clone();
            }
            match ops[i].program[pc as usize] {
                IrInstr::Configure { module, .. } => module.resolve(table).to_string(),
                _ => unreachable!("reconfiguration recorded on a non-Configure instruction"),
            }
        };
        let mut operator_busy = BTreeMap::new();
        for (i, o) in ops.iter().enumerate() {
            operator_busy.insert(op_names[i].to_string(), o.busy);
        }
        let mut medium_busy_map: BTreeMap<String, TimePs> = BTreeMap::new();
        for (m, &touched) in medium_touched.iter().enumerate() {
            if touched {
                let name = ir.media()[m].resolve(table).to_string();
                medium_busy_map.insert(name, medium_busy[m]);
            }
        }
        let reconfigs: Vec<ReconfigEvent> = reconfigs
            .into_iter()
            .map(|r| ReconfigEvent {
                operator: op_names[r.stream as usize].to_string(),
                module: chosen_module(r.stream, r.pc, r.iteration),
                iteration: r.iteration,
                requested_at: r.requested_at,
                ready_at: r.ready_at,
                fetch_hidden: r.fetch_hidden,
            })
            .collect();
        let trace: Vec<TraceEvent> = trace
            .into_iter()
            .map(|t| {
                let (site, kind) = match t.kind {
                    RawTraceKind::Compute { stream, pc } => {
                        let (op, function) = match ops[stream as usize].program[pc as usize] {
                            IrInstr::Compute { op, function, .. } => (
                                op.resolve(table).to_string(),
                                function.resolve(table).to_string(),
                            ),
                            _ => unreachable!("compute trace on a non-Compute instruction"),
                        };
                        (
                            op_names[stream as usize].to_string(),
                            TraceKind::Compute { op, function },
                        )
                    }
                    RawTraceKind::Transfer {
                        from,
                        to,
                        medium,
                        bits,
                    } => {
                        let medium = ir.medium_sym(medium).resolve(table).to_string();
                        (
                            medium.clone(),
                            TraceKind::Transfer {
                                from: ir.peer_sym(from).resolve(table).to_string(),
                                to: ir.peer_sym(to).resolve(table).to_string(),
                                medium,
                                bits,
                            },
                        )
                    }
                    RawTraceKind::Reconfigure {
                        stream,
                        pc,
                        fetch_hidden,
                    } => (
                        op_names[stream as usize].to_string(),
                        TraceKind::Reconfigure {
                            module: chosen_module(stream, pc, t.iteration),
                            fetch_hidden,
                        },
                    ),
                };
                TraceEvent {
                    site,
                    iteration: t.iteration,
                    start: t.start,
                    end: t.end,
                    kind,
                }
            })
            .collect();
        let mut manager_stats = BTreeMap::new();
        if let Some(e) = engine.as_ref() {
            for rid in 0..e.region_count() as u32 {
                manager_stats.insert(e.region_name(rid).to_string(), e.stats(rid));
            }
        }
        Ok(SimReport {
            makespan,
            iterations: config.iterations,
            operator_busy,
            medium_busy: medium_busy_map,
            reconfigs,
            manager_stats,
            iteration_ends,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SimSystem;
    use pdr_adequation::executive::generate_executive;
    use pdr_adequation::{adequate, AdequationOptions, Executive};
    use pdr_fabric::{Bitstream, Device, PortProfile, ReconfigRegion};
    use pdr_graph::paper;
    use pdr_rtr::{
        BitstreamCache, BitstreamStore, ConfigurationManager, MemoryModel, ProtocolBuilder,
    };

    struct Setup {
        arch: ArchGraph,
        executive: Executive,
        table: SymbolTable,
        ir: IrExecutive,
    }

    fn paper_setup() -> Setup {
        let algo = paper::mccdma_algorithm();
        let arch = paper::sundance_architecture();
        let chars = paper::mccdma_characterization();
        let cons = paper::mccdma_constraints();
        let opts = AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("select", "dsp")
            .pin("interface_out", "fpga_static");
        let r = adequate(&algo, &arch, &chars, &cons, &opts).unwrap();
        let executive = generate_executive(&algo, &arch, &chars, &r.mapping, &r.schedule).unwrap();
        let mut table = arch.symbols().clone();
        let ir = executive.lower(&mut table);
        Setup {
            arch,
            executive,
            table,
            ir,
        }
    }

    fn paper_manager() -> ConfigurationManager {
        let d = Device::xc2v2000();
        let region = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let mut store = BitstreamStore::new();
        let qpsk = Bitstream::partial_for_region(&d, &region, 1);
        let bytes = qpsk.len_bytes();
        store.insert("mod_qpsk", qpsk);
        store.insert("mod_qam16", Bitstream::partial_for_region(&d, &region, 2));
        let builder = ProtocolBuilder::new(d, PortProfile::icap_virtex2());
        let mut mgr = ConfigurationManager::new(
            builder,
            store,
            BitstreamCache::sized_for(2, bytes),
            MemoryModel::paper_flash(),
            "op_dyn",
        );
        mgr.preload("mod_qpsk").unwrap();
        mgr
    }

    fn alternating(n: u32) -> Vec<String> {
        (0..n)
            .map(|i| {
                if (i / 4) % 2 == 0 {
                    "mod_qpsk".to_string()
                } else {
                    "mod_qam16".to_string()
                }
            })
            .collect()
    }

    /// The string interpreter over the reference manager, and the IR
    /// interpreter over the engine built from the same plumbing.
    fn both_reports(s: &Setup, cfg: &SimConfig, with_manager: bool) -> (SimReport, SimReport) {
        let mut sys = SimSystem::new(&s.arch, &s.executive);
        let mut ir_sys = IrSimSystem::new(&s.arch, &s.ir, &s.table);
        if with_manager {
            sys.add_manager("op_dyn", paper_manager());
            ir_sys.attach_engine(paper_engine());
        }
        (sys.run(cfg).unwrap(), ir_sys.run(cfg).unwrap())
    }

    #[test]
    fn reports_match_string_interpreter_with_selections() {
        let s = paper_setup();
        let cfg = SimConfig::iterations(16)
            .with_selection("op_dyn", alternating(16))
            .with_trace();
        let (a, b) = both_reports(&s, &cfg, true);
        assert_eq!(a, b);
    }

    #[test]
    fn reports_match_without_manager() {
        let s = paper_setup();
        let cfg = SimConfig::iterations(4).with_trace();
        let (a, b) = both_reports(&s, &cfg, false);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_iterations_match() {
        let s = paper_setup();
        let (a, b) = both_reports(&s, &SimConfig::iterations(0), false);
        assert_eq!(a, b);
    }

    #[test]
    fn selection_errors_match() {
        let s = paper_setup();
        let mut sys = SimSystem::new(&s.arch, &s.executive);
        let mut ir_sys = IrSimSystem::new(&s.arch, &s.ir, &s.table);
        for cfg in [
            SimConfig::iterations(4).with_selection("op_dyn", vec!["mod_qpsk".to_string(); 3]),
            SimConfig::iterations(1).with_selection("ghost", vec!["mod_qpsk".to_string()]),
        ] {
            let a = sys.run(&cfg).unwrap_err();
            let b = ir_sys.run(&cfg).unwrap_err();
            assert_eq!(a.to_string(), b.to_string());
        }
    }

    #[test]
    fn manager_errors_match() {
        let s = paper_setup();
        let cfg = SimConfig::iterations(1).with_selection("op_dyn", vec!["mod_ghost".to_string()]);
        let mut sys = SimSystem::new(&s.arch, &s.executive);
        sys.add_manager("op_dyn", paper_manager());
        let mut ir_sys = IrSimSystem::new(&s.arch, &s.ir, &s.table);
        ir_sys.attach_engine(paper_engine());
        let a = sys.run(&cfg).unwrap_err();
        let b = ir_sys.run(&cfg).unwrap_err();
        assert!(matches!(b, SimError::Manager(_)));
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn deadlock_errors_match() {
        let mut arch = ArchGraph::new("t");
        arch.add_operator("a", pdr_graph::OperatorKind::Processor)
            .unwrap();
        arch.add_operator("b", pdr_graph::OperatorKind::Processor)
            .unwrap();
        let a_id = arch.operator_by_name("a").unwrap();
        let b_id = arch.operator_by_name("b").unwrap();
        let m = arch
            .add_medium("m", pdr_graph::MediumKind::Bus, 1_000_000, TimePs::ZERO)
            .unwrap();
        arch.link(a_id, m).unwrap();
        arch.link(b_id, m).unwrap();
        let mut exec = Executive::default();
        exec.per_operator.insert(
            "a".into(),
            vec![pdr_adequation::MacroInstr::Send {
                to: "b".into(),
                medium: "m".into(),
                bits: 8,
                tag: 1,
            }],
        );
        exec.per_operator.insert("b".into(), vec![]);
        let mut table = arch.symbols().clone();
        let ir = exec.lower(&mut table);
        let mut sys = SimSystem::new(&arch, &exec);
        let mut ir_sys = IrSimSystem::new(&arch, &ir, &table);
        let ea = sys.run(&SimConfig::iterations(1)).unwrap_err();
        let eb = ir_sys.run(&SimConfig::iterations(1)).unwrap_err();
        assert_eq!(ea.to_string(), eb.to_string());
        assert!(eb.to_string().contains("send tag 1"));
    }

    fn paper_engine() -> RtrEngine {
        use pdr_rtr::{RegionSpec, RtrEngineBuilder};
        let d = Device::xc2v2000();
        let region = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let qpsk = Bitstream::partial_for_region(&d, &region, 1);
        let bytes = qpsk.len_bytes();
        let mut e = RtrEngineBuilder::new(
            d.clone(),
            PortProfile::icap_virtex2(),
            MemoryModel::paper_flash(),
        )
        .region(
            RegionSpec::new("op_dyn", 2 * bytes)
                .module("mod_qpsk", qpsk)
                .module("mod_qam16", Bitstream::partial_for_region(&d, &region, 2)),
        )
        .build()
        .unwrap();
        let qpsk_id = e.module_index("mod_qpsk").unwrap();
        e.preload(0, qpsk_id).unwrap();
        e
    }

    #[test]
    fn engine_backend_matches_reference_managers() {
        let s = paper_setup();
        for iters in [1u32, 4, 16] {
            let cfg = SimConfig::iterations(iters)
                .with_selection("op_dyn", alternating(iters))
                .with_trace();
            let mut mgr_sys = SimSystem::new(&s.arch, &s.executive);
            mgr_sys.add_manager("op_dyn", paper_manager());
            let mut eng_sys = IrSimSystem::new(&s.arch, &s.ir, &s.table);
            eng_sys.attach_engine(paper_engine());
            let a = mgr_sys.run(&cfg).unwrap();
            let b = eng_sys.run(&cfg).unwrap();
            assert_eq!(a, b, "engine-backed report diverged at {iters} iterations");
        }
    }

    #[test]
    fn determinism_across_runs() {
        let s = paper_setup();
        let run = || {
            let mut sys = IrSimSystem::new(&s.arch, &s.ir, &s.table);
            sys.attach_engine(paper_engine());
            let cfg = SimConfig::iterations(12).with_selection("op_dyn", alternating(12));
            sys.run(&cfg).unwrap()
        };
        assert_eq!(run(), run());
    }
}
