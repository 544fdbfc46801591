//! Dynamic-reconfiguration constraints files.
//!
//! §4 of the paper: *"A constraints file will contain the definition of each
//! dynamic module and the associated constraints (loading, unloading,
//! sharing area, dynamic relations, exclusion)."* The same file then feeds
//! the modular back-end's placement step (§5: *"All these constraints are
//! fixed in a constraints file, used during the placement and routing"*).
//!
//! The format is a simple INI-like text, one section per dynamic module:
//!
//! ```text
//! # MC-CDMA transmitter dynamic constraints
//! [module mod_qpsk]
//! region = op_dyn
//! load = on_demand
//! unload = evict
//! share_group = modulation
//! exclusive_with = mod_qam16
//! pin = 20 4            # optional: CLB column start + width
//! ```

use crate::error::GraphError;
use pdr_ir::SymbolTable;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// When a module's bitstream is loaded onto its region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum LoadPolicy {
    /// Loaded once during system start-up (before the first iteration).
    AtStart,
    /// Loaded on first use / on reconfiguration request (default).
    #[default]
    OnDemand,
}

/// When a module may be removed from its region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum UnloadPolicy {
    /// Only removed by an explicit application request.
    Explicit,
    /// May be evicted whenever another module needs the shared area
    /// (default — this is what area sharing means).
    #[default]
    Evict,
}

/// Constraints attached to one dynamic module (one alternative function of
/// a conditioned operation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ModuleConstraints {
    /// Function symbol of the module (e.g. `"mod_qpsk"`).
    pub module: String,
    /// Dynamic operator (region) the module is constrained to.
    pub region: String,
    /// Loading policy.
    pub load: LoadPolicy,
    /// Unloading policy.
    pub unload: UnloadPolicy,
    /// Modules in the same share group occupy the same physical area
    /// (at most one resident at a time).
    pub share_group: Option<String>,
    /// Modules that must never be resident simultaneously even across
    /// *different* regions (the paper's "exclusion" dynamic relation).
    pub exclusive_with: Vec<String>,
    /// Optional placement pin: (CLB column start, width in CLB columns).
    pub pin: Option<(u32, u32)>,
    /// Optional real-time constraint: every compute of this module must
    /// complete within this many microseconds from iteration start (the
    /// §4 "dynamic relations" bucket — a module must be operational and
    /// done in time even under worst-case reconfiguration latency).
    /// Checked by the lint layer's `[best, worst]`-clock analysis.
    pub deadline_us: Option<u64>,
}

impl ModuleConstraints {
    /// Constraints with defaults (on-demand load, evictable, no pin).
    pub fn new(module: impl Into<String>, region: impl Into<String>) -> Self {
        ModuleConstraints {
            module: module.into(),
            region: region.into(),
            load: LoadPolicy::default(),
            unload: UnloadPolicy::default(),
            share_group: None,
            exclusive_with: Vec::new(),
            pin: None,
            deadline_us: None,
        }
    }
}

/// A parsed constraints file: an ordered set of module sections.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ConstraintsFile {
    modules: Vec<ModuleConstraints>,
    /// Every module name, interned in file order: a name's symbol is its
    /// module's position in `modules`.
    names: SymbolTable,
}

impl ConstraintsFile {
    /// Empty file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a module section. Duplicate module names are rejected.
    pub fn add(&mut self, mc: ModuleConstraints) -> Result<(), GraphError> {
        if self.names.lookup(&mc.module).is_some() {
            return Err(GraphError::DuplicateName(mc.module));
        }
        self.names.intern(&mc.module);
        self.modules.push(mc);
        Ok(())
    }

    /// All module sections, in file order.
    pub fn modules(&self) -> &[ModuleConstraints] {
        &self.modules
    }

    /// Lookup by module name.
    pub fn module(&self, name: &str) -> Option<&ModuleConstraints> {
        Some(&self.modules[self.names.lookup(name)?.index()])
    }

    /// Modules constrained to a given region.
    pub fn modules_in_region(&self, region: &str) -> Vec<&ModuleConstraints> {
        self.modules.iter().filter(|m| m.region == region).collect()
    }

    /// Are two modules mutually exclusive (directly, in either direction,
    /// or through a shared share-group)?
    pub fn mutually_exclusive(&self, a: &str, b: &str) -> bool {
        if a == b {
            return false;
        }
        let (ma, mb) = match (self.module(a), self.module(b)) {
            (Some(x), Some(y)) => (x, y),
            _ => return false,
        };
        if ma.exclusive_with.iter().any(|x| x == b) || mb.exclusive_with.iter().any(|x| x == a) {
            return true;
        }
        matches!((&ma.share_group, &mb.share_group), (Some(x), Some(y)) if x == y)
    }

    /// Validate cross-references: exclusion targets must exist, pins must be
    /// plausible (width ≥ 2 CLB columns per the Modular Design rule), and
    /// share groups must be region-consistent (a share group spanning two
    /// regions cannot share area).
    pub fn validate(&self) -> Result<(), GraphError> {
        let mut group_region: HashMap<&str, &str> = HashMap::new();
        for m in &self.modules {
            for x in &m.exclusive_with {
                if self.module(x).is_none() {
                    return Err(GraphError::UnknownVertex(format!(
                        "exclusion target `{x}` of module `{}`",
                        m.module
                    )));
                }
            }
            if let Some((_, w)) = m.pin {
                if w < 2 {
                    return Err(GraphError::Structural(format!(
                        "module `{}` pin width {w} < 2 CLB columns (four slices)",
                        m.module
                    )));
                }
            }
            if let Some(g) = &m.share_group {
                match group_region.get(g.as_str()) {
                    Some(r) if *r != m.region => {
                        return Err(GraphError::Structural(format!(
                            "share group `{g}` spans regions `{r}` and `{}`",
                            m.region
                        )));
                    }
                    _ => {
                        group_region.insert(g, &m.region);
                    }
                }
            }
        }
        Ok(())
    }

    /// Parse the text format.
    pub fn parse(text: &str) -> Result<ConstraintsFile, GraphError> {
        let mut file = ConstraintsFile::new();
        let mut current: Option<ModuleConstraints> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let inner = rest.strip_suffix(']').ok_or(GraphError::ConstraintsParse {
                    line: lineno,
                    reason: "unterminated section header".into(),
                })?;
                let mut parts = inner.split_whitespace();
                match (parts.next(), parts.next(), parts.next()) {
                    (Some("module"), Some(name), None) => {
                        if let Some(done) = current.take() {
                            file.add(done).map_err(|e| GraphError::ConstraintsParse {
                                line: lineno,
                                reason: e.to_string(),
                            })?;
                        }
                        current = Some(ModuleConstraints::new(name, ""));
                    }
                    _ => {
                        return Err(GraphError::ConstraintsParse {
                            line: lineno,
                            reason: format!("bad section header `{line}`"),
                        })
                    }
                }
                continue;
            }
            let Some(cur) = current.as_mut() else {
                return Err(GraphError::ConstraintsParse {
                    line: lineno,
                    reason: "key outside of a [module ...] section".into(),
                });
            };
            let (key, value) = line.split_once('=').ok_or(GraphError::ConstraintsParse {
                line: lineno,
                reason: format!("expected `key = value`, got `{line}`"),
            })?;
            let key = key.trim();
            let value = value.trim();
            match key {
                "region" => cur.region = value.to_string(),
                "load" => {
                    cur.load = match value {
                        "at_start" => LoadPolicy::AtStart,
                        "on_demand" => LoadPolicy::OnDemand,
                        _ => {
                            return Err(GraphError::ConstraintsParse {
                                line: lineno,
                                reason: format!("bad load policy `{value}`"),
                            })
                        }
                    }
                }
                "unload" => {
                    cur.unload = match value {
                        "explicit" => UnloadPolicy::Explicit,
                        "evict" => UnloadPolicy::Evict,
                        _ => {
                            return Err(GraphError::ConstraintsParse {
                                line: lineno,
                                reason: format!("bad unload policy `{value}`"),
                            })
                        }
                    }
                }
                "share_group" => cur.share_group = Some(value.to_string()),
                "exclusive_with" => {
                    cur.exclusive_with = value
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
                "deadline_us" => {
                    // Deadlines are compared in picoseconds, so a value
                    // must survive the ×10⁶ into a `u64`.
                    let us = value
                        .parse::<u64>()
                        .ok()
                        .filter(|&us| us <= u64::MAX / 1_000_000)
                        .ok_or(GraphError::ConstraintsParse {
                            line: lineno,
                            reason: format!(
                                "bad deadline_us `{value}` (expected microseconds, at most {})",
                                u64::MAX / 1_000_000
                            ),
                        })?;
                    cur.deadline_us = Some(us);
                }
                "pin" => {
                    let mut it = value.split_whitespace();
                    let parse_u32 = |s: Option<&str>| -> Result<u32, GraphError> {
                        s.and_then(|x| x.parse().ok())
                            .ok_or(GraphError::ConstraintsParse {
                                line: lineno,
                                reason: format!("bad pin `{value}` (expected `start width`)"),
                            })
                    };
                    let start = parse_u32(it.next())?;
                    let width = parse_u32(it.next())?;
                    cur.pin = Some((start, width));
                }
                _ => {
                    return Err(GraphError::ConstraintsParse {
                        line: lineno,
                        reason: format!("unknown key `{key}`"),
                    })
                }
            }
        }
        if let Some(done) = current.take() {
            file.add(done).map_err(|e| GraphError::ConstraintsParse {
                line: text.lines().count(),
                reason: e.to_string(),
            })?;
        }
        // A module without a region is malformed.
        if let Some(m) = file.modules.iter().find(|m| m.region.is_empty()) {
            return Err(GraphError::ConstraintsParse {
                line: 0,
                reason: format!("module `{}` has no region", m.module),
            });
        }
        Ok(file)
    }
}

impl fmt::Display for ConstraintsFile {
    /// Serialize back to the text format (round-trips through
    /// [`ConstraintsFile::parse`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in &self.modules {
            writeln!(f, "[module {}]", m.module)?;
            writeln!(f, "region = {}", m.region)?;
            writeln!(
                f,
                "load = {}",
                match m.load {
                    LoadPolicy::AtStart => "at_start",
                    LoadPolicy::OnDemand => "on_demand",
                }
            )?;
            writeln!(
                f,
                "unload = {}",
                match m.unload {
                    UnloadPolicy::Explicit => "explicit",
                    UnloadPolicy::Evict => "evict",
                }
            )?;
            if let Some(g) = &m.share_group {
                writeln!(f, "share_group = {g}")?;
            }
            if !m.exclusive_with.is_empty() {
                writeln!(f, "exclusive_with = {}", m.exclusive_with.join(", "))?;
            }
            if let Some((s, w)) = m.pin {
                writeln!(f, "pin = {s} {w}")?;
            }
            if let Some(d) = m.deadline_us {
                writeln!(f, "deadline_us = {d}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_file() -> ConstraintsFile {
        let mut f = ConstraintsFile::new();
        let mut qpsk = ModuleConstraints::new("mod_qpsk", "op_dyn");
        qpsk.share_group = Some("modulation".into());
        qpsk.exclusive_with = vec!["mod_qam16".into()];
        qpsk.pin = Some((20, 4));
        qpsk.load = LoadPolicy::AtStart;
        let mut qam = ModuleConstraints::new("mod_qam16", "op_dyn");
        qam.share_group = Some("modulation".into());
        f.add(qpsk).unwrap();
        f.add(qam).unwrap();
        f
    }

    #[test]
    fn roundtrip_through_text() {
        let f = paper_file();
        let text = f.to_string();
        let back = ConstraintsFile::parse(&text).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn deadline_parses_renders_and_roundtrips() {
        let mut f = paper_file();
        f.modules[0].deadline_us = Some(1500);
        let text = f.to_string();
        assert!(text.contains("deadline_us = 1500"), "{text}");
        assert_eq!(ConstraintsFile::parse(&text).unwrap(), f);
        // Absent deadline renders nothing (legacy files stay byte-stable).
        assert!(!paper_file().to_string().contains("deadline_us"));
        let e = ConstraintsFile::parse("[module a]\nregion = r\ndeadline_us = soon").unwrap_err();
        assert!(e.to_string().contains("deadline_us"), "{e}");
        // The largest deadline a picosecond `u64` holds parses; one more
        // microsecond is rejected with its line.
        let max = "[module a]\nregion = r\ndeadline_us = 18446744073709";
        let f = ConstraintsFile::parse(max).unwrap();
        assert_eq!(f.modules()[0].deadline_us, Some(u64::MAX / 1_000_000));
        for over in ["18446744073710", "18446744073709551615"] {
            let text = format!("[module a]\nregion = r\ndeadline_us = {over}");
            let e = ConstraintsFile::parse(&text).unwrap_err();
            assert!(e.to_string().contains("line 3"), "{e}");
        }
    }

    #[test]
    fn parse_with_comments_and_blank_lines() {
        let text = "\n# header comment\n[module m1]\nregion = r  # trailing\n\n";
        let f = ConstraintsFile::parse(text).unwrap();
        assert_eq!(f.modules().len(), 1);
        assert_eq!(f.module("m1").unwrap().region, "r");
        assert_eq!(f.module("m1").unwrap().load, LoadPolicy::OnDemand);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = ConstraintsFile::parse("[module a]\nregion = r\nbogus_key = 1").unwrap_err();
        assert!(e.to_string().contains("line 3"), "{e}");
        let e = ConstraintsFile::parse("region = r").unwrap_err();
        assert!(e.to_string().contains("outside"));
        let e = ConstraintsFile::parse("[module a\nregion = r").unwrap_err();
        assert!(e.to_string().contains("unterminated"));
        let e = ConstraintsFile::parse("[module a]\nload = sometimes").unwrap_err();
        assert!(e.to_string().contains("load policy"));
        let e = ConstraintsFile::parse("[module a]\nregion = r\npin = 3").unwrap_err();
        assert!(e.to_string().contains("pin"));
    }

    #[test]
    fn module_without_region_rejected() {
        let e = ConstraintsFile::parse("[module a]\nload = on_demand").unwrap_err();
        assert!(e.to_string().contains("no region"));
    }

    #[test]
    fn duplicate_module_rejected() {
        let text = "[module a]\nregion = r\n[module a]\nregion = r";
        assert!(ConstraintsFile::parse(text).is_err());
    }

    #[test]
    fn large_files_parse_in_file_order_and_still_reject_duplicates() {
        let mut text: String = (0..50_000)
            .map(|i| format!("[module m{i}]\nregion = r{}\n", i % 7))
            .collect();
        let f = ConstraintsFile::parse(&text).unwrap();
        assert_eq!(f.modules().len(), 50_000);
        for (i, m) in f.modules().iter().enumerate() {
            assert_eq!(m.module, format!("m{i}"));
        }
        assert_eq!(f.module("m31337").unwrap().region, "r5");
        assert!(f.module("m50000").is_none());
        assert_eq!(ConstraintsFile::parse(&f.to_string()).unwrap(), f);
        // A duplicate closing the file is reported on the file's last line.
        text.push_str("[module m17]\nregion = r3\n");
        let e = ConstraintsFile::parse(&text).unwrap_err();
        assert_eq!(
            e,
            GraphError::ConstraintsParse {
                line: 100_002,
                reason: "duplicate name `m17`".into(),
            }
        );
        // One followed by another section is reported on that section's
        // header line.
        text.push_str("[module last]\nregion = r\n");
        let e = ConstraintsFile::parse(&text).unwrap_err();
        assert_eq!(
            e.to_string(),
            "constraints file, line 100003: duplicate name `m17`"
        );
    }

    #[test]
    fn exclusion_is_symmetric_and_share_group_implies_it() {
        let f = paper_file();
        assert!(f.mutually_exclusive("mod_qpsk", "mod_qam16"));
        assert!(f.mutually_exclusive("mod_qam16", "mod_qpsk"));
        assert!(!f.mutually_exclusive("mod_qpsk", "mod_qpsk"));
        assert!(!f.mutually_exclusive("mod_qpsk", "unknown"));
    }

    #[test]
    fn validate_checks_cross_references() {
        let mut f = ConstraintsFile::new();
        let mut m = ModuleConstraints::new("a", "r");
        m.exclusive_with = vec!["ghost".into()];
        f.add(m).unwrap();
        assert!(f.validate().is_err());

        let mut f = ConstraintsFile::new();
        let mut m = ModuleConstraints::new("a", "r");
        m.pin = Some((0, 1));
        f.add(m).unwrap();
        assert!(f.validate().is_err());

        // Share group spanning two regions is invalid.
        let mut f = ConstraintsFile::new();
        let mut m1 = ModuleConstraints::new("a", "r1");
        m1.share_group = Some("g".into());
        let mut m2 = ModuleConstraints::new("b", "r2");
        m2.share_group = Some("g".into());
        f.add(m1).unwrap();
        f.add(m2).unwrap();
        assert!(f.validate().is_err());

        assert!(paper_file().validate().is_ok());
    }

    #[test]
    fn modules_in_region() {
        let f = paper_file();
        assert_eq!(f.modules_in_region("op_dyn").len(), 2);
        assert!(f.modules_in_region("elsewhere").is_empty());
    }
}
