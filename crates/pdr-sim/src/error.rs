//! Error type for the simulator.

use std::fmt;

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The executive references an operator or medium the architecture does
    /// not contain.
    UnknownName(String),
    /// The system stopped making progress before completing (mismatched
    /// rendezvous, a missing peer, or a configuration that never returns).
    Deadlock {
        /// Simulated time of the stall.
        at_ps: u64,
        /// Operators still blocked, with their state description.
        blocked: Vec<(String, String)>,
    },
    /// Configuration manager failure (unknown module, region mismatch...).
    Manager(String),
    /// A selection override names an iteration/operator that does not exist.
    BadSelection(String),
    /// An operator's next wake (a compute end, a reconfiguration's ready
    /// time or a transfer end) would fall past `u64::MAX` picoseconds.
    /// Only hostile durations or latencies get here.
    TimeOverflow {
        /// Operator whose instruction overflowed.
        operator: String,
        /// Simulated time at which the instruction was issued.
        at_ps: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownName(n) => write!(f, "executive references unknown name `{n}`"),
            SimError::Deadlock { at_ps, blocked } => {
                write!(f, "deadlock at {at_ps} ps; blocked: ")?;
                for (i, (op, why)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "`{op}` ({why})")?;
                }
                Ok(())
            }
            SimError::Manager(msg) => write!(f, "configuration manager: {msg}"),
            SimError::BadSelection(msg) => write!(f, "bad selection override: {msg}"),
            SimError::TimeOverflow { operator, at_ps } => write!(
                f,
                "simulated time overflow: `{operator}` at {at_ps} ps would wake past u64::MAX ps"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_display_lists_blocked() {
        let e = SimError::Deadlock {
            at_ps: 42,
            blocked: vec![
                ("dsp".into(), "send tag 3".into()),
                ("fpga".into(), "recv tag 9".into()),
            ],
        };
        let s = e.to_string();
        assert!(s.contains("dsp") && s.contains("recv tag 9"));
    }
}
