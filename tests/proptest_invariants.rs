//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use pdr_adequation::{adequate, AdequationOptions};
use pdr_fabric::{Bitstream, Device, DeviceFamily, PortProfile, ReconfigRegion, Resources, TimePs};
use pdr_graph::constraints::{ConstraintsFile, LoadPolicy, ModuleConstraints, UnloadPolicy};
use pdr_graph::{AlgorithmGraph, Characterization, OpKind};
use pdr_mccdma::fec::{ConvEncoder, ViterbiDecoder};
use pdr_mccdma::fft::{fft_vec, ifft_vec};
use pdr_mccdma::{
    Cplx, McCdmaReceiver, McCdmaTransmitter, Modulation, Prbs, TxConfig, WalshHadamard,
};
use pdr_rtr::BitstreamCache;

// ---------------------------------------------------------------- fabric

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any legal region's partial bitstream encodes and decodes losslessly.
    #[test]
    fn bitstream_roundtrip_any_region(
        dev_idx in 0usize..11,
        start in 0u32..40,
        width in 2u32..12,
        fingerprint in any::<u64>(),
    ) {
        let name = Device::catalog_names_in(DeviceFamily::VirtexII)[dev_idx];
        let device = Device::by_name(name).unwrap();
        prop_assume!(start + width <= device.clb_cols);
        let region = ReconfigRegion::new("r", start, width).unwrap();
        let bs = Bitstream::partial_for_region(&device, &region, fingerprint);
        let bytes = bs.encode();
        let back = Bitstream::decode(&bytes, &device, bs.kind.clone(), fingerprint).unwrap();
        prop_assert_eq!(back, bs);
    }

    /// Any single-bit corruption of the frame payload is detected.
    #[test]
    fn bitstream_bitflip_detected(pos_seed in any::<u64>(), fingerprint in any::<u64>()) {
        let device = Device::by_name("XC2V250").unwrap();
        let region = ReconfigRegion::new("r", 2, 2).unwrap();
        let bs = Bitstream::partial_for_region(&device, &region, fingerprint);
        let mut bytes = bs.encode();
        // Corrupt inside the FDRI payload (skip the 7-word preamble and
        // the 3-word trailer).
        let lo = 7 * 4;
        let hi = bytes.len() - 3 * 4;
        let pos = lo + (pos_seed as usize) % (hi - lo);
        let bit = 1u8 << (pos_seed % 8);
        bytes[pos] ^= bit;
        prop_assert!(Bitstream::decode(&bytes, &device, bs.kind, fingerprint).is_err());
    }

    /// Transfer time is monotone in byte count for every port profile.
    #[test]
    fn port_transfer_monotone(a in 0usize..1_000_000, b in 0usize..1_000_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for p in [
            PortProfile::icap_virtex2(),
            PortProfile::selectmap_virtex2(),
            PortProfile::paper_calibrated(),
            PortProfile::paper_selectmap_dsp(),
        ] {
            prop_assert!(p.transfer_time(lo) <= p.transfer_time(hi));
        }
    }

    /// TimePs saturating/checked arithmetic never panics and ordering is
    /// consistent with the raw picoseconds.
    #[test]
    fn timeps_arithmetic_total_order(x in any::<u64>(), y in any::<u64>()) {
        let a = TimePs::from_ps(x);
        let b = TimePs::from_ps(y);
        prop_assert_eq!(a < b, x < y);
        prop_assert_eq!(a.saturating_sub(b).as_ps(), x.saturating_sub(y));
        prop_assert_eq!(a.checked_add(b).map(|t| t.as_ps()), x.checked_add(y));
        prop_assert_eq!(a.max(b).as_ps(), x.max(y));
    }

    /// Resources addition is commutative/associative and envelope is an
    /// upper bound of both operands.
    #[test]
    fn resources_algebra(
        s1 in 0u32..1000, l1 in 0u32..1000, f1 in 0u32..1000,
        s2 in 0u32..1000, l2 in 0u32..1000, f2 in 0u32..1000,
    ) {
        let a = Resources::logic(s1, l1, f1);
        let b = Resources::logic(s2, l2, f2);
        prop_assert_eq!(a + b, b + a);
        let e = a.envelope(&b);
        prop_assert!(e.slices >= a.slices && e.slices >= b.slices);
        prop_assert!(e.luts >= a.luts && e.luts >= b.luts);
        prop_assert!(e.ffs >= a.ffs && e.ffs >= b.ffs);
    }
}

// ------------------------------------------------------------------ rtr

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The LRU cache never exceeds capacity and lookups agree with a naive
    /// reference model.
    #[test]
    fn cache_matches_reference_model(ops in prop::collection::vec((0u8..6, 1usize..40), 1..64)) {
        let capacity = 64usize;
        let mut cache = BitstreamCache::new(capacity);
        let mut reference: Vec<(String, usize)> = Vec::new(); // LRU first
        for (module, bytes) in ops {
            let name = format!("m{module}");
            // Reference lookup.
            let hit_ref = if let Some(pos) = reference.iter().position(|(m, _)| *m == name) {
                let e = reference.remove(pos);
                reference.push(e);
                true
            } else {
                false
            };
            let hit = cache.lookup(&name);
            prop_assert_eq!(hit, hit_ref);
            if !hit {
                // Insert with LRU eviction in the reference.
                if let Some(pos) = reference.iter().position(|(m, _)| *m == name) {
                    reference.remove(pos);
                }
                let mut used: usize = reference.iter().map(|(_, b)| *b).sum();
                while used + bytes > capacity {
                    let (_, evicted) = reference.remove(0);
                    used -= evicted;
                }
                reference.push((name.clone(), bytes));
                cache.insert(&name, bytes).unwrap();
            }
            let used: usize = reference.iter().map(|(_, b)| *b).sum();
            prop_assert_eq!(cache.used(), used);
            prop_assert!(cache.used() <= capacity);
            let resident: Vec<&str> = reference.iter().map(|(m, _)| m.as_str()).collect();
            prop_assert_eq!(cache.resident(), resident);
        }
    }
}

// ---------------------------------------------------------------- graphs

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Constraints files round-trip through the text format.
    #[test]
    fn constraints_roundtrip(
        n in 1usize..8,
        loads in prop::collection::vec(any::<bool>(), 8),
        unloads in prop::collection::vec(any::<bool>(), 8),
        groups in prop::collection::vec(0u8..3, 8),
    ) {
        let mut f = ConstraintsFile::new();
        for i in 0..n {
            let mut mc = ModuleConstraints::new(format!("mod_{i}"), format!("region_{}", groups[i]));
            mc.load = if loads[i] { LoadPolicy::AtStart } else { LoadPolicy::OnDemand };
            mc.unload = if unloads[i] { UnloadPolicy::Explicit } else { UnloadPolicy::Evict };
            mc.share_group = Some(format!("g{}", groups[i]));
            if i > 0 {
                mc.exclusive_with = vec!["mod_0".to_string()];
            }
            mc.pin = Some((2 + i as u32, 2));
            f.add(mc).unwrap();
        }
        let text = f.to_string();
        let back = ConstraintsFile::parse(&text).unwrap();
        prop_assert_eq!(back, f);
    }

    /// Random layered DAGs always yield a valid, precedence-respecting
    /// schedule on the paper platform.
    #[test]
    fn adequation_of_random_layered_graphs_is_valid(
        layers in 1usize..5,
        width in 1usize..5,
        wcets in prop::collection::vec(1u64..50, 25),
        edge_mask in prop::collection::vec(any::<bool>(), 64),
    ) {
        let arch = pdr_graph::paper::sundance_architecture();
        let mut g = AlgorithmGraph::new("prop");
        let mut chars = Characterization::new();
        let src = g.add_op("src", OpKind::Source).unwrap();
        let mut prev = vec![src];
        let mut mask = edge_mask.iter().cycle();
        let mut wcet = wcets.iter().cycle();
        for l in 0..layers {
            let mut layer = Vec::new();
            for w in 0..width {
                let name = format!("n_{l}_{w}");
                let id = g.add_compute(&name).unwrap();
                let us = *wcet.next().unwrap();
                chars.set_duration(&name, "fpga_static", TimePs::from_us(us));
                chars.set_duration(&name, "dsp", TimePs::from_us(us * 10));
                layer.push(id);
            }
            // Every node gets at least its first predecessor; extra edges
            // from the mask.
            for (i, &b) in layer.iter().enumerate() {
                g.connect(prev[i % prev.len()], b, 32).unwrap();
                for &a in &prev {
                    if *mask.next().unwrap() && !g.predecessors(b).contains(&a) {
                        g.connect(a, b, 32).unwrap();
                    }
                }
            }
            prev = layer;
        }
        let sink = g.add_op("sink", OpKind::Sink).unwrap();
        for &a in &prev {
            g.connect(a, sink, 32).unwrap();
        }
        let r = adequate(
            &g,
            &arch,
            &chars,
            &ConstraintsFile::new(),
            &AdequationOptions::default(),
        ).unwrap();
        r.schedule.validate().unwrap();
        for e in g.edges() {
            prop_assert!(r.finish_times[e.from.0] <= r.finish_times[e.to.0]);
        }
        // Makespan is at least the critical path of any single chain and at
        // most the serialized sum of all WCETs (on the fastest operator) —
        // loose but effective sanity bounds.
        let total: TimePs = g
            .ops()
            .filter_map(|(_, op)| match &op.kind {
                OpKind::Compute { function } => chars.duration(function, "fpga_static"),
                _ => None,
            })
            .sum();
        prop_assert!(r.makespan <= total + TimePs::from_ms(1));
    }
}

// -------------------------------------------------------------- baseband

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FFT/IFFT round-trips arbitrary signals.
    #[test]
    fn fft_roundtrip(res in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 64..=64)) {
        let x: Vec<Cplx> = res.iter().map(|&(r, i)| Cplx::new(r, i)).collect();
        let y = ifft_vec(&fft_vec(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    /// The Viterbi decoder inverts the encoder for any message.
    #[test]
    fn fec_roundtrip(bits in prop::collection::vec(0u8..2, 8..200)) {
        let coded = ConvEncoder::encode_terminated(&bits);
        prop_assert_eq!(ViterbiDecoder::decode(&coded), bits);
    }

    /// The decoder corrects any two well-separated bit errors.
    #[test]
    fn fec_corrects_two_errors(
        bits in prop::collection::vec(0u8..2, 64..128),
        e1 in 0usize..60,
        gap in 30usize..60,
    ) {
        let mut coded = ConvEncoder::encode_terminated(&bits);
        let e2 = e1 + gap;
        prop_assume!(e2 < coded.len());
        coded[e1] ^= 1;
        coded[e2] ^= 1;
        prop_assert_eq!(ViterbiDecoder::decode(&coded), bits);
    }

    /// Modulation round-trips any aligned bit pattern.
    #[test]
    fn modulation_roundtrip(bits in prop::collection::vec(0u8..2, 0..200)) {
        for m in [Modulation::Qpsk, Modulation::Qam16] {
            let n = bits.len() - bits.len() % m.bits_per_symbol();
            let aligned = &bits[..n];
            let syms = m.modulate(aligned);
            prop_assert_eq!(m.demodulate(&syms), aligned.to_vec());
        }
    }

    /// Walsh spreading round-trips for any user and any symbols.
    #[test]
    fn spreading_roundtrip(
        user in 0usize..16,
        res in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..8),
    ) {
        let wh = WalshHadamard::new(16);
        let symbols: Vec<Cplx> = res.iter().map(|&(r, i)| Cplx::new(r, i)).collect();
        let chips = wh.spread(user, &symbols);
        let back = wh.despread(user, &chips);
        for (a, b) in symbols.iter().zip(&back) {
            prop_assert!((*a - *b).abs() < 1e-12);
        }
    }

    /// The full noiseless transmitter/receiver chain is the identity for
    /// any modulation sequence.
    #[test]
    fn txrx_identity(mod_bits in prop::collection::vec(any::<bool>(), 4..12), seed in any::<u32>()) {
        let mods: Vec<Modulation> = mod_bits
            .iter()
            .map(|&b| if b { Modulation::Qam16 } else { Modulation::Qpsk })
            .collect();
        let cfg = TxConfig::paper();
        let tx = McCdmaTransmitter::new(cfg);
        let rx = McCdmaReceiver::new(cfg);
        let mut prbs = Prbs::new(seed);
        let info = prbs.take_bits(tx.info_bits_for(&mods));
        let samples = tx.transmit(&info, &mods);
        prop_assert_eq!(rx.receive(&samples, &mods), info);
    }
}
