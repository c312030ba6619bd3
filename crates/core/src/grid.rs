//! Structured grids: uniform and hyperbolic-tangent-stretched (§III-A).

use serde::{Deserialize, Serialize};

/// One axis of a structured grid: `n` cells with faces, centers, widths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid1D {
    faces: Vec<f64>,
    centers: Vec<f64>,
    widths: Vec<f64>,
}

impl Grid1D {
    /// Uniform spacing over `[x0, x1]`.
    pub fn uniform(n: usize, x0: f64, x1: f64) -> Self {
        assert!(n >= 1 && x1 > x0);
        let dx = (x1 - x0) / n as f64;
        let faces: Vec<f64> = (0..=n).map(|i| x0 + i as f64 * dx).collect();
        Grid1D::from_faces(faces)
    }

    /// Local refinement via a smooth hyperbolic stretching (Vinokur-style):
    /// cells cluster around `focus` (a fraction of the axis length in
    /// `[0, 1]`); `beta > 0` controls how hard (0 → uniform).
    ///
    /// Uses the monotone map `x(s) = x0 + L (g(s)-g(0))/(g(1)-g(0))` with
    /// `g(s) = sinh(beta (s - focus))`, whose slope is smallest at the
    /// focus, so that is where cells are finest.
    pub fn stretched(n: usize, x0: f64, x1: f64, beta: f64, focus: f64) -> Self {
        assert!(n >= 1 && x1 > x0);
        assert!(beta > 0.0, "beta must be positive (use uniform() instead)");
        assert!((0.0..=1.0).contains(&focus));
        let g = |s: f64| (beta * (s - focus)).sinh();
        let (g0, g1) = (g(0.0), g(1.0));
        let l = x1 - x0;
        let faces: Vec<f64> = (0..=n)
            .map(|i| {
                let s = i as f64 / n as f64;
                x0 + l * (g(s) - g0) / (g1 - g0)
            })
            .collect();
        Grid1D::from_faces(faces)
    }

    /// Build from an explicit, strictly increasing face list.
    pub fn from_faces(faces: Vec<f64>) -> Self {
        assert!(faces.len() >= 2, "need at least one cell");
        assert!(
            faces.windows(2).all(|w| w[1] > w[0]),
            "faces must be strictly increasing"
        );
        let centers = faces.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
        let widths = faces.windows(2).map(|w| w[1] - w[0]).collect();
        Grid1D {
            faces,
            centers,
            widths,
        }
    }

    /// A degenerate single-cell axis of unit width (for unused dimensions).
    pub fn collapsed() -> Self {
        Grid1D::uniform(1, 0.0, 1.0)
    }

    pub fn n(&self) -> usize {
        self.widths.len()
    }

    pub fn faces(&self) -> &[f64] {
        &self.faces
    }

    pub fn centers(&self) -> &[f64] {
        &self.centers
    }

    pub fn widths(&self) -> &[f64] {
        &self.widths
    }

    pub fn x0(&self) -> f64 {
        self.faces[0]
    }

    pub fn x1(&self) -> f64 {
        *self.faces.last().unwrap()
    }

    pub fn length(&self) -> f64 {
        self.x1() - self.x0()
    }

    /// Cell widths padded with `ng` replicated ghost widths on each side,
    /// indexed by the ghost-inclusive cell index.
    pub fn widths_with_ghosts(&self, ng: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.n() + 2 * ng);
        v.extend(std::iter::repeat_n(self.widths[0], ng));
        v.extend_from_slice(&self.widths);
        v.extend(std::iter::repeat_n(*self.widths.last().unwrap(), ng));
        v
    }

    /// Extract the sub-axis covering cells `[offset, offset+len)` — the
    /// local grid of one rank's block.
    pub fn slice(&self, offset: usize, len: usize) -> Grid1D {
        assert!(offset + len <= self.n());
        Grid1D::from_faces(self.faces[offset..=offset + len].to_vec())
    }
}

/// A full (up to 3-D) tensor-product grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    pub x: Grid1D,
    pub y: Grid1D,
    pub z: Grid1D,
}

impl Grid {
    pub fn new_1d(x: Grid1D) -> Self {
        Grid {
            x,
            y: Grid1D::collapsed(),
            z: Grid1D::collapsed(),
        }
    }

    /// Uniform grid over a box.
    pub fn uniform(n: [usize; 3], lo: [f64; 3], hi: [f64; 3]) -> Self {
        Grid {
            x: Grid1D::uniform(n[0], lo[0], hi[0]),
            y: if n[1] > 0 {
                Grid1D::uniform(n[1].max(1), lo[1], hi[1])
            } else {
                Grid1D::collapsed()
            },
            z: if n[2] > 0 {
                Grid1D::uniform(n[2].max(1), lo[2], hi[2])
            } else {
                Grid1D::collapsed()
            },
        }
    }

    pub fn axis(&self, d: usize) -> &Grid1D {
        match d {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("axis {d} out of range"),
        }
    }

    /// Total number of cells.
    pub fn cells(&self) -> usize {
        self.x.n() * self.y.n() * self.z.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spacing_is_constant() {
        let g = Grid1D::uniform(10, 0.0, 1.0);
        for w in g.widths() {
            assert!((w - 0.1).abs() < 1e-14);
        }
        assert_eq!(g.n(), 10);
        assert!((g.centers()[0] - 0.05).abs() < 1e-14);
    }

    #[test]
    fn stretched_clusters_at_focus() {
        let g = Grid1D::stretched(100, 0.0, 1.0, 4.0, 0.5);
        // Endpoints preserved.
        assert!((g.x0()).abs() < 1e-12 && (g.x1() - 1.0).abs() < 1e-12);
        // Smallest cell near the middle, larger at the ends.
        let mid = g.widths()[50];
        assert!(mid < g.widths()[0]);
        assert!(mid < g.widths()[99]);
    }

    #[test]
    fn stretched_is_monotone_and_covers_domain() {
        let g = Grid1D::stretched(64, -2.0, 3.0, 6.0, 0.25);
        assert!(g.faces().windows(2).all(|w| w[1] > w[0]));
        let total: f64 = g.widths().iter().sum();
        assert!((total - 5.0).abs() < 1e-10);
    }

    #[test]
    fn ghost_widths_replicate_edges() {
        let g = Grid1D::stretched(8, 0.0, 1.0, 3.0, 0.0);
        let w = g.widths_with_ghosts(2);
        assert_eq!(w.len(), 12);
        assert_eq!(w[0], w[2]);
        assert_eq!(w[1], w[2]);
        assert_eq!(w[11], w[9]);
    }

    #[test]
    fn slice_extracts_local_block() {
        let g = Grid1D::uniform(10, 0.0, 1.0);
        let s = g.slice(3, 4);
        assert_eq!(s.n(), 4);
        assert!((s.x0() - 0.3).abs() < 1e-14);
        assert!((s.x1() - 0.7).abs() < 1e-14);
    }

    #[test]
    fn grid_cells_product() {
        let g = Grid::uniform([4, 5, 6], [0.0; 3], [1.0, 1.0, 1.0]);
        assert_eq!(g.cells(), 120);
        assert_eq!(Grid::new_1d(Grid1D::uniform(7, 0.0, 1.0)).cells(), 7);
    }
}
