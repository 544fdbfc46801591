//! # pdr-bench — the experiment harness
//!
//! One module per paper artifact, each exposing a `run()` that returns a
//! structured result plus a `render()` into the table/series the paper
//! prints. The binaries in `src/bin/` wrap these for the command line; the
//! Criterion benches in `benches/` measure the computational kernels
//! behind each experiment. `EXPERIMENTS.md` records paper-vs-measured for
//! every entry.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — fixed vs dynamic modulation implementation |
//! | [`fig2`] | Figure 2 — reconfiguration architecture latency |
//! | [`fig3`] | Figure 3 — complete-flow automation (stage timing/sizes) |
//! | [`fig4`] | Figure 4 + §6 — the reconfigurable MC-CDMA transmitter |
//! | [`prefetch`] | abstract/§1 — prefetching vs reconfiguration stall |
//! | [`adequation_study`] | §3/§7 — reconfiguration-aware adequation |
//! | [`adequation_perf`] | infrastructure — reference vs indexed scheduler speedup |
//! | [`reference`](mod@reference) | infrastructure — the pre-index and indexed reference schedulers, the oracles for `adequate` |
//! | [`annealing`] | §7 ablation — simulated-annealing mapping, the second adequation strategy |
//! | [`bounds`] | §7 ablation — critical-path and work lower bounds, the quality ratio |
//! | [`area_latency`] | §6 — region size ↔ reconfiguration time |
//! | [`compression`] | extension — compressed bitstream storage |
//! | [`ir_sim`] | infrastructure — string vs interned interpreter speedup |
//! | [`server_study`] | infrastructure — multi-tenant serving layer load test |
//! | [`rtr_study`] | infrastructure — indexed runtime engine parity, throughput and policy sweep |
//! | [`fabric_study`] | infrastructure — Virtex-II byte-parity + series7-like 2D fabric sweep |
//! | [`scale`] | infrastructure — interned index build + hot-path scheduler on generated 10k-op flows |
//! | [`index_oracle`] | infrastructure — per-cell string-probe index build, the oracle for `AdequationIndex::build` |
//! | [`replay`] | infrastructure — model-checker witness replay and confirmation in the simulator |
//! | [`alloc_count`] | infrastructure — the counting global allocator behind the benches' allocation gates |

pub mod adequation_perf;
pub mod adequation_study;
pub mod alloc_count;
pub mod annealing;
pub mod area_latency;
pub mod bounds;
pub mod compression;
pub mod fabric_study;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod index_oracle;
pub mod ir_sim;
pub mod prefetch;
pub mod reference;
pub mod replay;
pub mod rtr_study;
pub mod scale;
pub mod server_study;
pub mod table1;
