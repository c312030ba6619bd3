//! Launch configuration — the directive clauses of §III-C.

/// What a launch site says about its kernel. The paper's
/// `gang vector collapse(n)` with a `seq` inner field loop is the one
/// distribution every entry point of [`crate::Context`] implements —
/// callers pass the already-collapsed iteration count — so only the
/// label varies per kernel.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Kernel name; ledger entries aggregate by this label.
    pub label: &'static str,
}

impl LaunchConfig {
    /// The configuration MFC converged on for its hot kernels.
    pub fn tuned(label: &'static str) -> Self {
        LaunchConfig { label }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_matches_paper_directives() {
        let c = LaunchConfig::tuned("m_riemann_solve");
        assert_eq!(c.label, "m_riemann_solve");
    }
}
