//! Kernel functions for the SVR.

use serde::{Deserialize, Serialize};

/// A positive-definite kernel `K(x, x')`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Kernel {
    /// The linear kernel `⟨x, x'⟩`.
    Linear,
    /// The Gaussian radial basis function `exp(−γ‖x − x'‖²)`.
    Rbf {
        /// Bandwidth parameter `γ > 0`.
        gamma: f64,
    },
}

impl Kernel {
    /// Evaluates the kernel.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the two points have different
    /// dimensions.
    pub fn evaluate(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "kernel arguments must share dimension");
        match *self {
            Self::Linear => dot(a, b),
            Self::Rbf { gamma } => {
                let dist2: f64 = a
                    .iter()
                    .zip(b)
                    .map(|(x, y)| {
                        let d = x - y;
                        d * d
                    })
                    .sum();
                (-gamma * dist2).exp()
            }
        }
    }

    /// Returns `true` for parameterizations that define a valid kernel.
    pub fn is_valid(&self) -> bool {
        match *self {
            Self::Linear => true,
            Self::Rbf { gamma } => gamma.is_finite() && gamma > 0.0,
        }
    }
}

impl Default for Kernel {
    /// RBF with `γ = 0.5`, a sensible default for standardized features.
    fn default() -> Self {
        Self::Rbf { gamma: 0.5 }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_kernel_is_dot_product() {
        let k = Kernel::Linear;
        assert_eq!(k.evaluate(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_kernel_properties() {
        let k = Kernel::Rbf { gamma: 1.0 };
        // K(x, x) = 1.
        assert!((k.evaluate(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        // Decreases with distance.
        let near = k.evaluate(&[0.0], &[0.1]);
        let far = k.evaluate(&[0.0], &[2.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn validity() {
        assert!(Kernel::Linear.is_valid());
        assert!(Kernel::Rbf { gamma: 0.1 }.is_valid());
        assert!(!Kernel::Rbf { gamma: 0.0 }.is_valid());
        assert!(!Kernel::Rbf { gamma: f64::NAN }.is_valid());
    }

    proptest! {
        #[test]
        fn prop_kernels_symmetric(
            a in proptest::collection::vec(-5.0_f64..5.0, 3),
            b in proptest::collection::vec(-5.0_f64..5.0, 3),
        ) {
            for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 0.7 }] {
                prop_assert!((kernel.evaluate(&a, &b) - kernel.evaluate(&b, &a)).abs() < 1e-10);
            }
        }

        #[test]
        fn prop_rbf_bounded(
            a in proptest::collection::vec(-5.0_f64..5.0, 3),
            b in proptest::collection::vec(-5.0_f64..5.0, 3),
        ) {
            let k = Kernel::Rbf { gamma: 0.3 }.evaluate(&a, &b);
            prop_assert!(k > 0.0 && k <= 1.0 + 1e-12);
        }
    }
}
