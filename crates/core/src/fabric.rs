//! Fabric description: a rectangular grid of cluster sites plus the
//! reconfigurable interconnect parameters.
//!
//! Two standard fabrics mirror the paper's arrays:
//!
//! * [`Fabric::me_array`] — the motion-estimation array of Fig. 2, tiling
//!   register-multiplexer, absolute-difference, adder/accumulator and
//!   comparator clusters;
//! * [`Fabric::da_array`] — the distributed-arithmetic array of Fig. 3,
//!   tiling add-shift clusters with memory-element columns.
//!
//! The inter-cluster mesh is "composed of a combination of 8-bit and 1-bit
//! tracks" (§2); [`MeshSpec`] captures the per-channel track counts so the
//! router can also model a fine-grain 1-bit-only mesh for the ablation
//! experiment (E6).

use crate::cluster::ClusterKind;
use crate::error::{CoreError, Result};
use crate::report::ResourceReport;

/// What occupies one grid position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// Unusable / empty position.
    Empty,
    /// I/O pad (perimeter).
    Io,
    /// A cluster site of the given kind.
    Cluster(ClusterKind),
}

/// Interconnect mesh parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshSpec {
    /// Number of bus tracks per channel.
    pub bus_tracks: u8,
    /// Bits carried by one bus track (8 in the paper).
    pub bus_width: u8,
    /// Number of single-bit tracks per channel.
    pub bit_tracks: u8,
}

impl MeshSpec {
    /// The paper's mixed mesh: 8-bit buses plus 1-bit control tracks.
    pub fn mixed() -> Self {
        MeshSpec {
            bus_tracks: 8,
            bus_width: 8,
            bit_tracks: 8,
        }
    }

    /// A generic fine-grain FPGA-style mesh: 1-bit tracks only.
    ///
    /// Capacity is matched to [`MeshSpec::mixed`] (same total wire bits per
    /// channel) so the ablation compares switch/config cost, not raw
    /// bandwidth.
    pub fn fine_grain() -> Self {
        MeshSpec {
            bus_tracks: 0,
            bus_width: 8,
            bit_tracks: 72, // 8 buses x 8 bits + 8 bit tracks
        }
    }

    /// Total wire bits crossing one channel.
    pub fn channel_bits(&self) -> u32 {
        u32::from(self.bus_tracks) * u32::from(self.bus_width) + u32::from(self.bit_tracks)
    }
}

/// A reconfigurable array: grid of sites plus mesh parameters.
#[derive(Debug, Clone)]
pub struct Fabric {
    name: String,
    width: u16,
    height: u16,
    sites: Vec<SiteKind>,
    mesh: MeshSpec,
}

impl Fabric {
    /// Builds a fabric from an explicit site map (row-major, `width*height`
    /// entries).
    ///
    /// # Errors
    /// Returns [`CoreError::Mismatch`] if the site vector length is wrong.
    pub fn from_sites(
        name: impl Into<String>,
        width: u16,
        height: u16,
        sites: Vec<SiteKind>,
        mesh: MeshSpec,
    ) -> Result<Self> {
        if sites.len() != usize::from(width) * usize::from(height) {
            return Err(CoreError::Mismatch(format!(
                "site map has {} entries for a {}x{} grid",
                sites.len(),
                width,
                height
            )));
        }
        Ok(Fabric {
            name: name.into(),
            width,
            height,
            sites,
            mesh,
        })
    }

    /// Standard motion-estimation array (Fig. 2): interior tiled with the
    /// repeating cluster pattern MUX / AD / ADD-ACC and a comparator column
    /// every fourth column; I/O pads on the perimeter.
    pub fn me_array(width: u16, height: u16, mesh: MeshSpec) -> Self {
        Self::tiled("me-array", width, height, mesh, |x, y| {
            if x % 4 == 3 {
                ClusterKind::Comparator
            } else {
                match (x + y) % 3 {
                    0 => ClusterKind::RegMux,
                    1 => ClusterKind::AbsDiff,
                    _ => ClusterKind::AddAcc,
                }
            }
        })
    }

    /// Standard distributed-arithmetic array (Fig. 3): add-shift clusters
    /// with a memory-element column every fourth column; I/O pads on the
    /// perimeter.
    pub fn da_array(width: u16, height: u16, mesh: MeshSpec) -> Self {
        Self::tiled("da-array", width, height, mesh, |x, _y| {
            if x % 4 == 2 {
                ClusterKind::Memory
            } else {
                ClusterKind::AddShift
            }
        })
    }

    fn tiled(
        name: &str,
        width: u16,
        height: u16,
        mesh: MeshSpec,
        pattern: impl Fn(u16, u16) -> ClusterKind,
    ) -> Self {
        assert!(width >= 3 && height >= 3, "fabric must be at least 3x3");
        let mut sites = Vec::with_capacity(usize::from(width) * usize::from(height));
        for y in 0..height {
            for x in 0..width {
                let edge = x == 0 || y == 0 || x == width - 1 || y == height - 1;
                sites.push(if edge {
                    SiteKind::Io
                } else {
                    SiteKind::Cluster(pattern(x, y))
                });
            }
        }
        Fabric {
            name: name.to_owned(),
            width,
            height,
            sites,
            mesh,
        }
    }

    /// Fabric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Grid width.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Mesh parameters.
    pub fn mesh(&self) -> MeshSpec {
        self.mesh
    }

    /// Returns the same fabric with a different mesh (for ablations).
    pub fn with_mesh(&self, mesh: MeshSpec) -> Self {
        let mut f = self.clone();
        f.mesh = mesh;
        f
    }

    /// Site at `(x, y)`.
    ///
    /// # Panics
    /// Panics when the coordinate is outside the grid.
    pub fn site(&self, x: u16, y: u16) -> SiteKind {
        assert!(x < self.width && y < self.height, "site out of range");
        self.sites[usize::from(y) * usize::from(self.width) + usize::from(x)]
    }

    /// Iterates over all `(x, y, site)` triples.
    pub fn iter_sites(&self) -> impl Iterator<Item = (u16, u16, SiteKind)> + '_ {
        (0..self.height).flat_map(move |y| (0..self.width).map(move |x| (x, y, self.site(x, y))))
    }

    /// All I/O pad coordinates, clockwise from the origin.
    pub fn io_sites(&self) -> Vec<(u16, u16)> {
        self.iter_sites()
            .filter(|&(_, _, s)| s == SiteKind::Io)
            .map(|(x, y, _)| (x, y))
            .collect()
    }

    /// Number of cluster sites of each kind.
    pub fn capacity(&self, kind: ClusterKind) -> usize {
        self.iter_sites()
            .filter(|&(_, _, s)| s == SiteKind::Cluster(kind))
            .count()
    }

    /// Checks that the fabric offers enough sites for a resource report.
    ///
    /// # Errors
    /// [`CoreError::PlacementFull`] naming the first kind that does not fit.
    pub fn check_capacity(&self, report: &ResourceReport) -> Result<()> {
        let needs: [(ClusterKind, u32); 6] = [
            (ClusterKind::AddShift, report.add_shift_total()),
            (ClusterKind::Memory, report.memory_clusters()),
            (ClusterKind::RegMux, report.me_clusters(ClusterKind::RegMux)),
            (
                ClusterKind::AbsDiff,
                report.me_clusters(ClusterKind::AbsDiff),
            ),
            (ClusterKind::AddAcc, report.me_clusters(ClusterKind::AddAcc)),
            (
                ClusterKind::Comparator,
                report.me_clusters(ClusterKind::Comparator),
            ),
        ];
        for (kind, need) in needs {
            if need as usize > self.capacity(kind) {
                return Err(CoreError::PlacementFull {
                    kind: kind.name().to_owned(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn me_array_has_all_four_kinds() {
        let f = Fabric::me_array(12, 8, MeshSpec::mixed());
        for kind in [
            ClusterKind::RegMux,
            ClusterKind::AbsDiff,
            ClusterKind::AddAcc,
            ClusterKind::Comparator,
        ] {
            assert!(f.capacity(kind) > 0, "missing {kind}");
        }
        assert_eq!(f.capacity(ClusterKind::AddShift), 0);
        assert!(!f.io_sites().is_empty());
    }

    #[test]
    fn da_array_has_addshift_and_memory() {
        let f = Fabric::da_array(12, 8, MeshSpec::mixed());
        assert!(f.capacity(ClusterKind::AddShift) > 0);
        assert!(f.capacity(ClusterKind::Memory) > 0);
        assert_eq!(f.capacity(ClusterKind::AbsDiff), 0);
    }

    #[test]
    fn perimeter_is_io() {
        let f = Fabric::da_array(6, 5, MeshSpec::mixed());
        for x in 0..6 {
            assert_eq!(f.site(x, 0), SiteKind::Io);
            assert_eq!(f.site(x, 4), SiteKind::Io);
        }
        for y in 0..5 {
            assert_eq!(f.site(0, y), SiteKind::Io);
            assert_eq!(f.site(5, y), SiteKind::Io);
        }
    }

    #[test]
    fn capacity_check_reports_missing_kind() {
        let f = Fabric::da_array(6, 6, MeshSpec::mixed());
        let mut report = ResourceReport::new("too-big");
        for _ in 0..200 {
            report.record(&crate::cluster::ClusterCfg::AddShift(
                crate::cluster::AddShiftCfg::Add {
                    width: 8,
                    serial: false,
                },
            ));
        }
        assert!(matches!(
            f.check_capacity(&report),
            Err(CoreError::PlacementFull { .. })
        ));
    }

    #[test]
    fn mesh_specs_have_equal_channel_bits() {
        assert_eq!(
            MeshSpec::mixed().channel_bits(),
            MeshSpec::fine_grain().channel_bits()
        );
    }

    #[test]
    fn explicit_site_map_validated() {
        let r = Fabric::from_sites("x", 2, 2, vec![SiteKind::Io; 3], MeshSpec::mixed());
        assert!(r.is_err());
    }
}
