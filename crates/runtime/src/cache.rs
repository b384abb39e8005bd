//! Content-addressed bitstream cache.
//!
//! Compiled `(placement, routing, bitstream)` artifacts are keyed by the
//! [`Fingerprint`] of the source netlist plus the target fabric's geometry,
//! so the place-and-route pipeline (about 5 ms per DCT mapping in a release
//! build on a 2-core x86-64 host) is paid once per *distinct* kernel
//! structure — not once per job, and not even once per kernel *name*: two
//! recipes that build the same netlist share one entry.

use std::collections::HashMap;
use std::sync::Arc;

use dsra_core::error::Result;
use dsra_core::fabric::Fabric;
use dsra_core::netlist::{Fingerprint, Netlist};
use dsra_platform::{compile_netlist, profiling_split, CompiledArtifact};
use dsra_sim::{ExecPlan, OpMix};
use dsra_tech::{EnergySplit, TechModel};

use crate::kernel::ArrayKind;

/// A cached compiled kernel, shared between the scheduler and the array
/// workers via `Arc`.
#[derive(Debug)]
pub struct CompiledKernel {
    /// Display name of the first recipe that compiled this entry.
    pub name: String,
    /// Content address of the source netlist.
    pub fingerprint: Fingerprint,
    /// Which array the kernel was compiled for.
    pub array_kind: ArrayKind,
    /// The placement, routing and bitstream.
    pub artifact: CompiledArtifact,
    /// Static/dynamic energy split under the profiling stimulus — what
    /// the energy accounts integrate per cycle while this kernel runs
    /// (and leak per cycle while it merely stays loaded).
    pub split: EnergySplit,
    /// Static per-cycle op-class mix of the kernel's execution plan —
    /// what one busy cycle on this kernel executes. The attribution
    /// profiler (`dsra-profile`) splits array-busy cycles across op
    /// classes with this, so per-op costs never require re-simulation.
    pub op_mix: OpMix,
}

impl CompiledKernel {
    /// Total configuration bits of the kernel's bitstream.
    pub fn total_bits(&self) -> u64 {
        self.artifact.bitstream.total_bits()
    }
}

/// Cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `[0, 1]` (1.0 for an untouched cache).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            return 1.0;
        }
        self.hits as f64 / self.lookups() as f64
    }

    /// Counter-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// Key: netlist content address + fabric geometry (the same kernel compiled
/// for two differently sized arrays is two artifacts).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    fingerprint: Fingerprint,
    fabric: String,
}

fn fabric_key(fabric: &Fabric) -> String {
    format!(
        "{}:{}x{}:{}",
        fabric.name(),
        fabric.width(),
        fabric.height(),
        fabric.mesh().channel_bits()
    )
}

/// The content-addressed artifact store.
#[derive(Debug, Default)]
pub struct BitstreamCache {
    entries: HashMap<CacheKey, Arc<CompiledKernel>>,
    stats: CacheStats,
    /// Technology constants pricing each compiled kernel's energy split.
    model: TechModel,
}

impl BitstreamCache {
    /// An empty cache pricing kernels with the default technology model.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with explicit technology constants.
    pub fn with_model(model: TechModel) -> Self {
        BitstreamCache {
            model,
            ..Default::default()
        }
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of distinct compiled kernels held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every compiled kernel, sorted by `(fingerprint, fabric)` so
    /// iteration order is deterministic regardless of compile order
    /// (the map behind the cache is hashed).
    pub fn kernels_sorted(&self) -> Vec<&Arc<CompiledKernel>> {
        let mut entries: Vec<(&CacheKey, &Arc<CompiledKernel>)> = self.entries.iter().collect();
        entries.sort_by(|(a, _), (b, _)| {
            a.fingerprint
                .cmp(&b.fingerprint)
                .then_with(|| a.fabric.cmp(&b.fabric))
        });
        entries.into_iter().map(|(_, k)| k).collect()
    }

    /// Looks the fingerprint up for `fabric`; on a miss, builds the netlist
    /// via `netlist` and runs the compile pipeline once.
    ///
    /// The netlist thunk lets callers that already know a kernel's
    /// fingerprint (the runtime memoises recipe → fingerprint) skip netlist
    /// construction entirely on the hot path.
    ///
    /// # Errors
    /// Propagates netlist construction, placement or routing failures.
    pub fn get_or_compile(
        &mut self,
        fingerprint: Fingerprint,
        name: &str,
        array_kind: ArrayKind,
        fabric: &Fabric,
        netlist: impl FnOnce() -> Result<Netlist>,
    ) -> Result<Arc<CompiledKernel>> {
        let key = CacheKey {
            fingerprint,
            fabric: fabric_key(fabric),
        };
        if let Some(hit) = self.entries.get(&key) {
            self.stats.hits += 1;
            return Ok(Arc::clone(hit));
        }
        self.stats.misses += 1;
        let nl = netlist()?;
        debug_assert_eq!(
            nl.fingerprint(),
            fingerprint,
            "cache key must be the netlist's own content address"
        );
        let artifact = compile_netlist(&nl, fabric)?;
        // Price the kernel once, at compile time: the runtime hands this
        // split to `dsra_platform::profile_impl`, so the energy the
        // accounts integrate is the energy the policies selected on.
        let split = profiling_split(&nl, &artifact, &self.model)?;
        let op_mix = ExecPlan::compile(&nl)?.op_mix();
        let kernel = Arc::new(CompiledKernel {
            name: name.to_owned(),
            fingerprint,
            array_kind,
            artifact,
            split,
            op_mix,
        });
        self.entries.insert(key, Arc::clone(&kernel));
        Ok(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_core::fabric::MeshSpec;
    use dsra_core::prelude::*;

    fn tiny_netlist(mode: AbsDiffMode) -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 8).unwrap();
        let b = nl.input("b", 8).unwrap();
        let y = nl.output("y", 8).unwrap();
        let ad = nl
            .cluster("ad", ClusterCfg::AbsDiff { width: 8, mode })
            .unwrap();
        nl.connect((a, "out"), (ad, "a")).unwrap();
        nl.connect((b, "out"), (ad, "b")).unwrap();
        nl.connect((ad, "y"), (y, "in")).unwrap();
        nl
    }

    #[test]
    fn compile_paid_once_per_distinct_kernel() {
        let fabric = Fabric::me_array(8, 8, MeshSpec::mixed());
        let mut cache = BitstreamCache::new();
        let nl = tiny_netlist(AbsDiffMode::AbsDiff);
        let fp = nl.fingerprint();
        let first = cache
            .get_or_compile(fp, "sad", ArrayKind::Me, &fabric, || {
                Ok(tiny_netlist(AbsDiffMode::AbsDiff))
            })
            .unwrap();
        for _ in 0..10 {
            let again = cache
                .get_or_compile(fp, "sad", ArrayKind::Me, &fabric, || {
                    panic!("hit path must not rebuild the netlist")
                })
                .unwrap();
            assert!(Arc::ptr_eq(&first, &again), "shared artifact");
        }
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 10,
                misses: 1
            }
        );
        assert_eq!(cache.len(), 1);

        // A structurally different kernel is a new entry…
        let other = tiny_netlist(AbsDiffMode::Sub);
        let ofp = other.fingerprint();
        cache
            .get_or_compile(ofp, "sub", ArrayKind::Me, &fabric, || Ok(other.clone()))
            .unwrap();
        assert_eq!(cache.len(), 2);
        // …and the same kernel on a different fabric is, too.
        let bigger = Fabric::me_array(10, 10, MeshSpec::mixed());
        cache
            .get_or_compile(fp, "sad", ArrayKind::Me, &bigger, || {
                Ok(tiny_netlist(AbsDiffMode::AbsDiff))
            })
            .unwrap();
        assert_eq!(cache.len(), 3);
        assert!((cache.stats().hit_rate() - 10.0 / 13.0).abs() < 1e-12);
    }
}
