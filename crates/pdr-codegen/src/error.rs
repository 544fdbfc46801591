//! Error type for design generation.

use pdr_adequation::AdequationError;
use pdr_fabric::FabricError;
use pdr_graph::GraphError;
use std::fmt;

/// Errors raised while generating, estimating, or floorplanning designs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// A dynamic module does not fit any legal region of the device.
    DoesNotFit {
        /// Module name.
        module: String,
        /// Required slices.
        needed_slices: u32,
        /// Largest available window in slices.
        available_slices: u32,
    },
    /// The device cannot host the static design plus all regions.
    DeviceFull {
        /// Required slices.
        needed_slices: u32,
        /// Device capacity.
        capacity: u32,
    },
    /// A pinned window leaves the device's interior, two regions overlap,
    /// or a region has fewer rows than its bus macros need.
    PinConflict(String),
    /// An internal invariant of the placement engine was violated; always a
    /// bug in `pdr-codegen`, surfaced as an error rather than a panic.
    Internal(String),
    /// Underlying fabric error.
    Fabric(FabricError),
    /// Underlying graph error.
    Graph(GraphError),
    /// Underlying adequation error.
    Adequation(AdequationError),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::DoesNotFit {
                module,
                needed_slices,
                available_slices,
            } => write!(
                f,
                "dynamic module `{module}` needs {needed_slices} slices; largest legal \
                 window offers {available_slices}"
            ),
            CodegenError::DeviceFull {
                needed_slices,
                capacity,
            } => write!(
                f,
                "design needs {needed_slices} slices, device offers {capacity}"
            ),
            CodegenError::PinConflict(msg) => write!(f, "pin conflict: {msg}"),
            CodegenError::Internal(msg) => write!(f, "internal floorplanner invariant: {msg}"),
            CodegenError::Fabric(e) => write!(f, "{e}"),
            CodegenError::Graph(e) => write!(f, "{e}"),
            CodegenError::Adequation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CodegenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodegenError::Fabric(e) => Some(e),
            CodegenError::Graph(e) => Some(e),
            CodegenError::Adequation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FabricError> for CodegenError {
    fn from(e: FabricError) -> Self {
        CodegenError::Fabric(e)
    }
}

impl From<GraphError> for CodegenError {
    fn from(e: GraphError) -> Self {
        CodegenError::Graph(e)
    }
}

impl From<AdequationError> for CodegenError {
    fn from(e: AdequationError) -> Self {
        CodegenError::Adequation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CodegenError = FabricError::UnknownDevice("X".into()).into();
        assert!(std::error::Error::source(&e).is_some());
        let e = CodegenError::DoesNotFit {
            module: "mod_qam16".into(),
            needed_slices: 2000,
            available_slices: 896,
        };
        assert!(e.to_string().contains("mod_qam16"));
        assert!(e.to_string().contains("896"));
    }
}
