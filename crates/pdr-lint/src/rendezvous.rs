//! Rendezvous matching (PDR001–PDR003).
//!
//! The §3 synchronized executive pairs every `Send{tag}` with exactly one
//! `Receive{tag}`: same medium, same payload width, mirrored endpoints,
//! and on two *different* operators (an operator cannot rendezvous with
//! itself — both sides block forever). This pass checks all of that and
//! hands the matched pairs to the deadlock and exclusion analyses.
//!
//! The pass runs over the lowered [`IrExecutive`]: endpoints are compared
//! as interned refs (`PeerRef`/`MediumRef` equality, no string compares)
//! and names only reappear, through the [`SymbolTable`], inside the
//! rendered diagnostics — which stay byte-identical to the historical
//! string-executive output.
//!
//! Matching sorts instead of hashing. The pass walks the streams once,
//! collecting every `Send`/`Receive` with its walk position (stream-major
//! order), and sorts the `(tag, walk position)` keys once. Each tag's uses
//! then form one run in walk order, where one operator's uses of the tag
//! are adjacent. From a run the pass reads the tag's first send and first
//! receive, the in-operator PDR003 findings (each citing the operator's
//! immediately preceding use of the tag) and the cross-operator "second
//! send/receive" findings. PDR003 findings are reported in walk order, an
//! in-operator finding before a cross-operator one on the same
//! instruction. Pairing then runs over send tags ascending, then
//! receive-only tags ascending.

use crate::diag::{Code, Diagnostic, Location};
use pdr_ir::{IrExecutive, IrInstr, MediumRef, PeerRef, SymbolTable};

/// One endpoint of a rendezvous, as found in an operator stream.
#[derive(Debug, Clone, Copy)]
struct Endpoint {
    /// Stream index of the operator the instruction sits on.
    stream: usize,
    index: usize,
    peer: PeerRef,
    medium: MediumRef,
    bits: u64,
    /// `Send` (else `Receive`).
    send: bool,
}

/// A fully matched rendezvous pair: where the `Send` and the `Receive`
/// of one tag sit, as stream/instruction indices into the lowered
/// executive. Consumed by the deadlock and exclusion analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RendezvousPair {
    /// Rendezvous tag.
    pub tag: u32,
    /// Stream index of the sending operator.
    pub send_stream: usize,
    /// Index of the `Send` in the sender's stream.
    pub send_idx: usize,
    /// Stream index of the receiving operator.
    pub recv_stream: usize,
    /// Index of the `Receive` in the receiver's stream.
    pub recv_idx: usize,
}

/// Outcome of the rendezvous pass.
pub struct RendezvousAnalysis {
    /// Findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Tag-matched pairs on distinct operators (present even when their
    /// attributes mismatch, so downstream analyses still see the edge).
    pub pairs: Vec<RendezvousPair>,
}

/// Check rendezvous matching over the whole lowered executive.
pub fn check(ir: &IrExecutive, table: &SymbolTable) -> RendezvousAnalysis {
    let op_name = |stream: usize| ir.operator_sym(stream).resolve(table);

    // Every communication in walk order (streams in order, instructions
    // in order): a use's walk position is its index here.
    let mut eps: Vec<Endpoint> = Vec::new();
    let mut keys: Vec<u64> = Vec::new();
    for stream in 0..ir.operator_count() {
        for (index, instr) in ir.program(stream).iter().enumerate() {
            let (tag, peer, medium, bits, send) = match *instr {
                IrInstr::Send {
                    to,
                    medium,
                    bits,
                    tag,
                } => (tag, to, medium, bits, true),
                IrInstr::Receive {
                    from,
                    medium,
                    bits,
                    tag,
                } => (tag, from, medium, bits, false),
                _ => continue,
            };
            keys.push(u64::from(tag) << 32 | eps.len() as u64);
            eps.push(Endpoint {
                stream,
                index,
                peer,
                medium,
                bits,
                send,
            });
        }
    }
    // `(tag, walk position)`, sorted once: each tag's uses form one run,
    // in walk order, so one operator's uses of a tag are adjacent.
    keys.sort_unstable();

    // PDR003 findings keyed by (walk position, in-operator before
    // cross-operator): the order a single walk would report them in.
    let mut duplicates: Vec<(usize, u8, Diagnostic)> = Vec::new();
    // Per tag, ascending: the first send and the first receive.
    let mut tags: Vec<(u32, Option<usize>, Option<usize>)> = Vec::new();
    for run in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
        let tag = (run[0] >> 32) as u32;
        let (mut first_send, mut first_recv) = (None, None);
        let mut prev: Option<usize> = None;
        for &key in run {
            let k = key as u32 as usize;
            let e = eps[k];
            // A second use of a tag on one operator, in either role, is
            // PDR003 even when the role matching stays consistent (a
            // send+receive of one tag on one operator is a
            // self-rendezvous that can never complete). It cites the
            // immediately preceding use.
            if let Some(p) = prev.filter(|&p| eps[p].stream == e.stream) {
                let operator = op_name(e.stream);
                duplicates.push((
                    k,
                    0,
                    Diagnostic::new(
                        Code::DuplicateTag,
                        format!(
                            "tag {tag} used twice within operator `{operator}` \
                             (first at {operator}[{}]); a tag names exactly \
                             one transfer hop between two operators",
                            eps[p].index
                        ),
                    )
                    .at(Location::instr(operator, e.index)),
                ));
            }
            prev = Some(k);
            let (first, role) = if e.send {
                (&mut first_send, "send")
            } else {
                (&mut first_recv, "receive")
            };
            match *first {
                // Keep the first endpoint for pairing.
                None => *first = Some(k),
                Some(f) if eps[f].stream != e.stream => {
                    let operator = op_name(e.stream);
                    duplicates.push((
                        k,
                        1,
                        Diagnostic::new(
                            Code::DuplicateTag,
                            format!(
                                "tag {tag} has a second {role} at \
                                 {operator}[{}] (first at {}[{}])",
                                e.index,
                                op_name(eps[f].stream),
                                eps[f].index
                            ),
                        )
                        .at(Location::instr(operator, e.index)),
                    ));
                }
                Some(_) => {}
            }
        }
        tags.push((tag, first_send, first_recv));
    }
    duplicates.sort_unstable_by_key(|&(k, kind, _)| (k, kind));
    let mut diagnostics: Vec<Diagnostic> = duplicates.into_iter().map(|(_, _, d)| d).collect();

    let peer_name = |peer: PeerRef| ir.peer_sym(peer).resolve(table);
    let medium_name = |m: MediumRef| ir.medium_sym(m).resolve(table);

    // Pair up by tag; report dangling and mismatched pairs. Report order:
    // send tags ascending, then receive-only tags ascending.
    let sent = tags.iter().filter(|t| t.1.is_some());
    let recv_only = tags.iter().filter(|t| t.1.is_none());
    let mut pairs = Vec::new();
    for &(tag, send, recv) in sent.chain(recv_only) {
        match (send.map(|k| &eps[k]), recv.map(|k| &eps[k])) {
            (Some(s), None) => diagnostics.push(
                Diagnostic::new(
                    Code::DanglingRendezvous,
                    format!(
                        "send tag {tag} to `{}` over `{}` has no matching \
                         receive anywhere; the sender blocks forever",
                        peer_name(s.peer),
                        medium_name(s.medium)
                    ),
                )
                .at(Location::instr(op_name(s.stream), s.index)),
            ),
            (None, Some(r)) => diagnostics.push(
                Diagnostic::new(
                    Code::DanglingRendezvous,
                    format!(
                        "receive tag {tag} from `{}` over `{}` has no matching \
                         send anywhere; the receiver blocks forever",
                        peer_name(r.peer),
                        medium_name(r.medium)
                    ),
                )
                .at(Location::instr(op_name(r.stream), r.index)),
            ),
            (Some(s), Some(r)) => {
                let mut problems = Vec::new();
                if s.medium != r.medium {
                    problems.push(format!(
                        "medium differs: send over `{}`, receive over `{}`",
                        medium_name(s.medium),
                        medium_name(r.medium)
                    ));
                }
                if s.bits != r.bits {
                    problems.push(format!(
                        "payload differs: send {} bits, receive {} bits",
                        s.bits, r.bits
                    ));
                }
                if ir.peer_sym(s.peer) != ir.operator_sym(r.stream) {
                    problems.push(format!(
                        "send targets `{}` but the receive sits on `{}`",
                        peer_name(s.peer),
                        op_name(r.stream)
                    ));
                }
                if ir.peer_sym(r.peer) != ir.operator_sym(s.stream) {
                    problems.push(format!(
                        "receive expects `{}` but the send sits on `{}`",
                        peer_name(r.peer),
                        op_name(s.stream)
                    ));
                }
                if !problems.is_empty() {
                    let mut d = Diagnostic::new(
                        Code::RendezvousMismatch,
                        format!(
                            "rendezvous tag {tag} is mismatched between \
                             {}[{}] and {}[{}]",
                            op_name(s.stream),
                            s.index,
                            op_name(r.stream),
                            r.index
                        ),
                    )
                    .at(Location::instr(op_name(s.stream), s.index));
                    for p in problems {
                        d = d.note(p);
                    }
                    diagnostics.push(d);
                }
                if s.stream != r.stream {
                    pairs.push(RendezvousPair {
                        tag,
                        send_stream: s.stream,
                        send_idx: s.index,
                        recv_stream: r.stream,
                        recv_idx: r.index,
                    });
                }
            }
            (None, None) => unreachable!("every tag has a send or a receive"),
        }
    }

    RendezvousAnalysis { diagnostics, pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_adequation::executive::{Executive, MacroInstr};

    fn send(to: &str, tag: u32) -> MacroInstr {
        MacroInstr::Send {
            to: to.into(),
            medium: "m".into(),
            bits: 8,
            tag,
        }
    }

    fn recv(from: &str, tag: u32) -> MacroInstr {
        MacroInstr::Receive {
            from: from.into(),
            medium: "m".into(),
            bits: 8,
            tag,
        }
    }

    fn run(e: &Executive) -> RendezvousAnalysis {
        let mut table = SymbolTable::new();
        let ir = e.lower(&mut table);
        check(&ir, &table)
    }

    /// Pins the pass's complete output on one executive that mixes every
    /// finding: the diagnostic sequence (code, message, location, notes)
    /// and the `pairs` order. Receive-only tags (1, 3, 4) sit below the
    /// send tags, so the tag order of the report is visible.
    #[test]
    fn full_report_order_is_pinned() {
        let mut e = Executive::default();
        e.per_operator.insert(
            "a".into(),
            vec![
                send("b", 5),
                send("c", 6),
                recv("b", 2),
                send("b", 5),
                send("b", 9),
            ],
        );
        e.per_operator.insert(
            "b".into(),
            vec![
                recv("a", 5),
                recv("a", 1),
                send("a", 2),
                recv("c", 3),
                recv("d", 8),
            ],
        );
        e.per_operator.insert(
            "c".into(),
            vec![
                MacroInstr::Receive {
                    from: "a".into(),
                    medium: "other".into(),
                    bits: 16,
                    tag: 6,
                },
                send("b", 8),
                recv("a", 4),
            ],
        );
        e.per_operator.insert("d".into(), vec![send("b", 8)]);
        let r = run(&e);
        let rendered: Vec<String> = r.diagnostics.iter().map(|d| d.to_string()).collect();
        assert_eq!(
            rendered,
            [
                "error[PDR003] a[3]: tag 5 used twice within operator `a` (first at a[0]); \
                 a tag names exactly one transfer hop between two operators",
                "error[PDR003] d[0]: tag 8 has a second send at d[0] (first at c[1])",
                "error[PDR002] a[1]: rendezvous tag 6 is mismatched between a[1] and c[0]\n    \
                 | medium differs: send over `m`, receive over `other`\n    \
                 | payload differs: send 8 bits, receive 16 bits",
                "error[PDR002] c[1]: rendezvous tag 8 is mismatched between c[1] and b[4]\n    \
                 | receive expects `d` but the send sits on `c`",
                "error[PDR001] a[4]: send tag 9 to `b` over `m` has no matching receive \
                 anywhere; the sender blocks forever",
                "error[PDR001] b[1]: receive tag 1 from `a` over `m` has no matching send \
                 anywhere; the receiver blocks forever",
                "error[PDR001] b[3]: receive tag 3 from `c` over `m` has no matching send \
                 anywhere; the receiver blocks forever",
                "error[PDR001] c[2]: receive tag 4 from `a` over `m` has no matching send \
                 anywhere; the receiver blocks forever",
            ]
        );
        let pair = |tag, send_stream, send_idx, recv_stream, recv_idx| RendezvousPair {
            tag,
            send_stream,
            send_idx,
            recv_stream,
            recv_idx,
        };
        assert_eq!(
            r.pairs,
            [
                pair(2, 1, 2, 0, 2),
                pair(5, 0, 0, 1, 0),
                pair(6, 0, 1, 2, 0),
                pair(8, 2, 1, 1, 4),
            ]
        );
    }

    #[test]
    fn matched_pair_is_clean_and_collected() {
        let mut e = Executive::default();
        e.per_operator.insert("a".into(), vec![send("b", 1)]);
        e.per_operator.insert("b".into(), vec![recv("a", 1)]);
        let r = run(&e);
        assert!(r.diagnostics.is_empty());
        assert_eq!(
            r.pairs,
            vec![RendezvousPair {
                tag: 1,
                send_stream: 0,
                send_idx: 0,
                recv_stream: 1,
                recv_idx: 0,
            }]
        );
    }

    #[test]
    fn dangling_send_and_receive_flagged() {
        let mut e = Executive::default();
        e.per_operator.insert("a".into(), vec![send("b", 1)]);
        e.per_operator.insert("b".into(), vec![recv("a", 2)]);
        let r = run(&e);
        assert_eq!(r.diagnostics.len(), 2);
        assert!(r
            .diagnostics
            .iter()
            .all(|d| d.code == Code::DanglingRendezvous));
        assert!(r.pairs.is_empty());
    }

    #[test]
    fn attribute_mismatch_flagged_with_details() {
        let mut e = Executive::default();
        e.per_operator.insert("a".into(), vec![send("b", 1)]);
        e.per_operator.insert(
            "b".into(),
            vec![MacroInstr::Receive {
                from: "c".into(),
                medium: "other".into(),
                bits: 16,
                tag: 1,
            }],
        );
        let r = run(&e);
        assert_eq!(r.diagnostics.len(), 1);
        let d = &r.diagnostics[0];
        assert_eq!(d.code, Code::RendezvousMismatch);
        assert_eq!(d.notes.len(), 3, "medium, bits, expected-sender: {d}");
        // Still paired for downstream analyses.
        assert_eq!(r.pairs.len(), 1);
    }

    #[test]
    fn self_rendezvous_is_a_duplicate_tag() {
        let mut e = Executive::default();
        e.per_operator
            .insert("a".into(), vec![send("a", 1), recv("a", 1)]);
        let r = run(&e);
        assert!(r.diagnostics.iter().any(|d| d.code == Code::DuplicateTag));
        assert!(r.pairs.is_empty());
    }

    #[test]
    fn duplicate_role_across_operators_flagged() {
        let mut e = Executive::default();
        e.per_operator.insert("a".into(), vec![send("c", 1)]);
        e.per_operator.insert("b".into(), vec![send("c", 1)]);
        e.per_operator.insert("c".into(), vec![recv("a", 1)]);
        let r = run(&e);
        assert!(r.diagnostics.iter().any(|d| d.code == Code::DuplicateTag));
    }
}
