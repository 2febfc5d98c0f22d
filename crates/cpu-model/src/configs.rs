//! Device profiles and the paper's Table 1 CPU configurations.
//!
//! | Config.  | Pixel 4 Freq. | Pixel 6 Freq. | Cores   |
//! |----------|---------------|---------------|---------|
//! | Low-End  | 576 MHz       | 300 MHz       | LITTLE  |
//! | Mid-End  | 1.2 GHz       | 1.2 GHz       | LITTLE  |
//! | High-End | 2.8 GHz       | 2.8 GHz       | BIG     |
//! | Default  | Dynamic       | Dynamic       | Dynamic |
//!
//! The frequency ladders below follow the shipped cpufreq tables of the
//! Snapdragon 855 (Pixel 4: Kryo 485 Silver/Gold) and Google Tensor
//! (Pixel 6: Cortex-A55 / Cortex-X1), lightly rounded; only the endpoints
//! and the Mid-End median matter to the experiments.

use crate::governor::{ClusterKind, CoreCluster, CpuTopology, GovernorPolicy, SchedutilParams};
use serde::Serialize;
use std::sync::Arc;

/// Which phone is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DeviceKind {
    /// Google Pixel 4 (2019, Snapdragon 855, Android 11, kernel 4.14).
    Pixel4,
    /// Google Pixel 6 (2021, Google Tensor, Android 12, kernel 5.10).
    Pixel6,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::Pixel4 => write!(f, "Pixel 4"),
            DeviceKind::Pixel6 => write!(f, "Pixel 6"),
        }
    }
}

/// The four CPU configurations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CpuConfig {
    /// `userspace` governor at the minimum LITTLE frequency, BIG disabled.
    LowEnd,
    /// `userspace` governor at the median LITTLE frequency, BIG disabled.
    MidEnd,
    /// `userspace` governor at the maximum BIG frequency, LITTLE disabled.
    HighEnd,
    /// Stock dynamic governor over all cores.
    Default,
}

impl CpuConfig {
    /// All four configurations in the order the paper presents them.
    pub const ALL: [CpuConfig; 4] = [
        CpuConfig::LowEnd,
        CpuConfig::MidEnd,
        CpuConfig::HighEnd,
        CpuConfig::Default,
    ];
}

impl std::fmt::Display for CpuConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpuConfig::LowEnd => write!(f, "Low-End"),
            CpuConfig::MidEnd => write!(f, "Mid-End"),
            CpuConfig::HighEnd => write!(f, "High-End"),
            CpuConfig::Default => write!(f, "Default"),
        }
    }
}

/// A concrete device: its topology plus Table 1 pin points.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceProfile {
    /// Which phone.
    pub kind: DeviceKind,
    /// BIG.LITTLE frequency ladders, shared (never mutated after
    /// construction) so cloning a profile — and hence a whole
    /// `SimConfig`, one per sweep cell — does not copy the ladders.
    pub topology: Arc<CpuTopology>,
    /// Table 1 Low-End pin (Hz): min LITTLE frequency.
    pub low_end_hz: u64,
    /// Table 1 Mid-End pin (Hz): 1.2 GHz on both phones.
    pub mid_end_hz: u64,
    /// Table 1 High-End pin (Hz): 2.8 GHz on both phones.
    pub high_end_hz: u64,
}

fn mhz(v: &[u64]) -> Vec<u64> {
    v.iter().map(|m| m * 1_000_000).collect()
}

impl DeviceProfile {
    /// The Pixel 4 profile (Snapdragon 855).
    pub fn pixel4() -> Self {
        let topology = CpuTopology {
            little: CoreCluster::new(
                ClusterKind::Little,
                mhz(&[
                    576, 672, 768, 940, 1017, 1113, 1209, 1305, 1401, 1497, 1593, 1689, 1785,
                ]),
            ),
            big: CoreCluster::new(
                ClusterKind::Big,
                mhz(&[
                    710, 940, 1171, 1401, 1632, 1862, 2092, 2323, 2553, 2649, 2745, 2800,
                ]),
            ),
        };
        DeviceProfile {
            kind: DeviceKind::Pixel4,
            low_end_hz: 576_000_000,
            mid_end_hz: 1_209_000_000,
            high_end_hz: 2_800_000_000,
            topology: Arc::new(topology),
        }
    }

    /// The Pixel 6 profile (Google Tensor).
    pub fn pixel6() -> Self {
        let topology = CpuTopology {
            little: CoreCluster::new(
                ClusterKind::Little,
                mhz(&[300, 574, 738, 930, 1098, 1197, 1328, 1491, 1598, 1704, 1803]),
            ),
            big: CoreCluster::new(
                ClusterKind::Big,
                mhz(&[
                    500, 851, 984, 1106, 1277, 1426, 1582, 1745, 1826, 2048, 2188, 2252, 2401,
                    2507, 2630, 2800,
                ]),
            ),
        };
        DeviceProfile {
            kind: DeviceKind::Pixel6,
            low_end_hz: 300_000_000,
            mid_end_hz: 1_197_000_000,
            high_end_hz: 2_800_000_000,
            topology: Arc::new(topology),
        }
    }

    /// The governor policy implementing a Table 1 configuration on this
    /// device.
    pub fn policy(&self, config: CpuConfig) -> GovernorPolicy {
        match config {
            CpuConfig::LowEnd => GovernorPolicy::Fixed {
                freq_hz: self.low_end_hz,
                cluster: ClusterKind::Little,
            },
            CpuConfig::MidEnd => GovernorPolicy::Fixed {
                freq_hz: self.mid_end_hz,
                cluster: ClusterKind::Little,
            },
            CpuConfig::HighEnd => GovernorPolicy::Fixed {
                freq_hz: self.high_end_hz,
                cluster: ClusterKind::Big,
            },
            CpuConfig::Default => GovernorPolicy::Schedutil(SchedutilParams::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_pixel4_pins() {
        let p4 = DeviceProfile::pixel4();
        assert_eq!(
            p4.low_end_hz, 576_000_000,
            "Table 1: Pixel 4 Low-End 576 MHz"
        );
        assert_eq!(
            p4.mid_end_hz, 1_209_000_000,
            "Table 1: Pixel 4 Mid-End ~1.2 GHz"
        );
        assert_eq!(
            p4.high_end_hz, 2_800_000_000,
            "Table 1: Pixel 4 High-End 2.8 GHz"
        );
        // Low-End pins the *minimum* LITTLE frequency.
        assert_eq!(p4.low_end_hz, p4.topology.little.min_freq());
        // Mid-End pins the *median* LITTLE frequency.
        assert_eq!(p4.mid_end_hz, p4.topology.little.median_freq());
        // High-End pins the *maximum* BIG frequency.
        assert_eq!(p4.high_end_hz, p4.topology.big.max_freq());
    }

    #[test]
    fn table1_pixel6_pins() {
        let p6 = DeviceProfile::pixel6();
        assert_eq!(
            p6.low_end_hz, 300_000_000,
            "Table 1: Pixel 6 Low-End 300 MHz"
        );
        assert_eq!(p6.low_end_hz, p6.topology.little.min_freq());
        assert!(
            (1_100_000_000..=1_300_000_000).contains(&p6.mid_end_hz),
            "Table 1: ~1.2 GHz"
        );
        assert_eq!(p6.high_end_hz, p6.topology.big.max_freq());
    }

    #[test]
    fn fixed_policies_use_correct_cluster() {
        let p4 = DeviceProfile::pixel4();
        match p4.policy(CpuConfig::LowEnd) {
            GovernorPolicy::Fixed { cluster, freq_hz } => {
                assert_eq!(cluster, ClusterKind::Little);
                assert_eq!(freq_hz, 576_000_000);
            }
            other => panic!("Low-End must be Fixed, got {other:?}"),
        }
        match p4.policy(CpuConfig::HighEnd) {
            GovernorPolicy::Fixed { cluster, .. } => assert_eq!(cluster, ClusterKind::Big),
            other => panic!("High-End must be Fixed, got {other:?}"),
        }
        assert!(matches!(
            p4.policy(CpuConfig::Default),
            GovernorPolicy::Schedutil(_)
        ));
    }

    #[test]
    fn config_ordering_matches_paper() {
        assert_eq!(
            CpuConfig::ALL.map(|c| c.to_string()),
            ["Low-End", "Mid-End", "High-End", "Default"]
        );
    }

    #[test]
    fn pixel6_low_end_is_slower_than_pixel4() {
        // §4.1/Fig.3: the Pixel 6's Low-End pin (300 MHz) is roughly half
        // the Pixel 4's (576 MHz) — the basis for Fig. 3's comparison.
        let p4 = DeviceProfile::pixel4();
        let p6 = DeviceProfile::pixel6();
        assert!(p6.low_end_hz < p4.low_end_hz);
    }
}
