//! Launch configuration — the directive clauses of §III-C.

/// Whether `private` arrays inside the kernel have a compile-time size.
///
/// §III-D: CCE on MI250X allocated runtime-sized private arrays on device
/// *per thread block at launch*, with a device→host→device handshake; fixing
/// one O(1)-element array's size took a kernel from 90% of total runtime to
/// 3%.  The CPU analog of a device-side allocation is a per-iteration heap
/// allocation, which is what [`PrivateMode::RuntimeSized`] selects in the
/// ablation kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivateMode {
    /// Size known at compile time: private storage lives on the stack.
    CompileTimeSized,
    /// Size known only at run time: private storage is heap-allocated per
    /// iteration (the device-side-allocation analog).
    RuntimeSized,
}

/// What a launch site says about its kernel. The paper's
/// `gang vector collapse(n)` with a `seq` inner field loop is the one
/// distribution every entry point of [`crate::Context`] implements —
/// callers pass the already-collapsed iteration count — so only the
/// label and the private-array mode vary per kernel.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Kernel name; ledger entries aggregate by this label.
    pub label: &'static str,
    /// Private-array sizing mode.
    pub private: PrivateMode,
}

impl LaunchConfig {
    /// The configuration MFC converged on for its hot kernels:
    /// compile-time-sized private arrays.
    pub fn tuned(label: &'static str) -> Self {
        LaunchConfig {
            label,
            private: PrivateMode::CompileTimeSized,
        }
    }

    pub fn with_private(mut self, mode: PrivateMode) -> Self {
        self.private = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_matches_paper_directives() {
        let c = LaunchConfig::tuned("m_riemann_solve");
        assert_eq!(c.label, "m_riemann_solve");
        assert_eq!(c.private, PrivateMode::CompileTimeSized);
    }

    #[test]
    fn builders_override_fields() {
        let c = LaunchConfig::tuned("k").with_private(PrivateMode::RuntimeSized);
        assert_eq!(c.private, PrivateMode::RuntimeSized);
    }
}
