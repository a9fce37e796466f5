//! The platform registry: named, boxed platform constructors.
//!
//! The seed code built platforms through a hard-coded `match` in the runner,
//! so adding a platform meant editing the runner itself. The registry inverts
//! that: every platform is a `(label, constructor)` entry, the standard
//! eleven systems of §VI-A are pre-registered in figure order, and
//! experiment harnesses (including out-of-tree ones) can register additional
//! systems and run them through the same grid machinery.
//!
//! # Example
//!
//! ```
//! use hams_platforms::{OraclePlatform, PlatformRegistry, ScaleProfile};
//!
//! let mut registry = PlatformRegistry::standard();
//! registry.register("oracle-2x", |_scale| Box::new(OraclePlatform::new()));
//! let scale = ScaleProfile::test_tiny();
//! let mut platform = registry.build("oracle-2x", &scale).unwrap();
//! assert_eq!(platform.name(), "oracle");
//! assert_eq!(registry.len(), 12);
//! ```

use std::sync::OnceLock;

use hams_core::{AttachMode, BackendTopology, PersistMode, ShardConfig};
use hams_flash::{SsdConfig, LBA_SIZE};
use hams_nvme::QueueConfig;

use crate::direct::{FlatFlashPlatform, NvdimmCPlatform, OptanePlatform, OraclePlatform};
use crate::hams::{HamsPlatform, SCALED_MOS_PAGE_BYTES};
use crate::mmap::MmapPlatform;
use crate::platform::Platform;
use crate::runner::ScaleProfile;

/// A boxed platform constructor: builds a fresh system sized by a
/// [`ScaleProfile`]. `Send + Sync` so registries can be shared across the
/// parallel grid's worker threads.
pub type PlatformCtor = Box<dyn Fn(&ScaleProfile) -> Box<dyn Platform> + Send + Sync>;

/// An ordered collection of named platform constructors.
pub struct PlatformRegistry {
    entries: Vec<(String, PlatformCtor)>,
}

impl std::fmt::Debug for PlatformRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlatformRegistry")
            .field("labels", &self.labels().collect::<Vec<_>>())
            .finish()
    }
}

impl PlatformRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        PlatformRegistry {
            entries: Vec::new(),
        }
    }

    /// The eleven platforms of §VI-A, registered in the order the paper's
    /// figures list them.
    #[must_use]
    pub fn standard() -> Self {
        let mut registry = PlatformRegistry::new();
        let scaled_ull = |scale: &ScaleProfile| {
            let mut cfg = SsdConfig::ull_flash();
            cfg.dram_capacity_bytes = scale.ssd_dram_bytes();
            cfg
        };
        registry.register("mmap", move |scale| {
            Box::new(MmapPlatform::new(
                "mmap",
                scaled_ull(scale),
                scale.cache_bytes(),
            ))
        });
        registry.register("flatflash-P", |scale| {
            Box::new(FlatFlashPlatform::persistent().with_ssd_dram_bytes(scale.ssd_dram_bytes()))
        });
        registry.register("flatflash-M", |scale| {
            Box::new(
                FlatFlashPlatform::memory_cached(scale.cache_bytes())
                    .with_ssd_dram_bytes(scale.ssd_dram_bytes()),
            )
        });
        registry.register("hams-LP", |scale| {
            Box::new(HamsPlatform::scaled(
                AttachMode::Loose,
                PersistMode::Persist,
                scale.cache_bytes(),
            ))
        });
        registry.register("hams-LE", |scale| {
            Box::new(HamsPlatform::scaled(
                AttachMode::Loose,
                PersistMode::Extend,
                scale.cache_bytes(),
            ))
        });
        registry.register("nvdimm-C", |scale| {
            Box::new(
                NvdimmCPlatform::new(scale.cache_bytes())
                    .with_ssd_dram_bytes(scale.ssd_dram_bytes()),
            )
        });
        registry.register("optane-P", |_scale| Box::new(OptanePlatform::app_direct()));
        registry.register("optane-M", |scale| {
            Box::new(OptanePlatform::memory_mode(scale.cache_bytes()))
        });
        registry.register("hams-TP", |scale| {
            Box::new(HamsPlatform::scaled(
                AttachMode::Tight,
                PersistMode::Persist,
                scale.cache_bytes(),
            ))
        });
        registry.register("hams-TE", |scale| {
            Box::new(HamsPlatform::scaled(
                AttachMode::Tight,
                PersistMode::Extend,
                scale.cache_bytes(),
            ))
        });
        registry.register("oracle", |_scale| Box::new(OraclePlatform::new()));
        registry
    }

    /// Registers (or replaces) the constructor for `label`, preserving the
    /// original position when replacing.
    pub fn register<F>(&mut self, label: impl Into<String>, ctor: F)
    where
        F: Fn(&ScaleProfile) -> Box<dyn Platform> + Send + Sync + 'static,
    {
        let label = label.into();
        let boxed: PlatformCtor = Box::new(ctor);
        if let Some(entry) = self.entries.iter_mut().find(|(l, _)| *l == label) {
            entry.1 = boxed;
        } else {
            self.entries.push((label, boxed));
        }
    }

    /// Builds a fresh platform for `label`, or `None` if it is unregistered.
    #[must_use]
    pub fn build(&self, label: &str, scale: &ScaleProfile) -> Option<Box<dyn Platform>> {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, ctor)| ctor(scale))
    }

    /// Registered labels, in registration order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(l, _)| l.as_str())
    }

    /// Whether `label` is registered.
    #[must_use]
    pub fn contains(&self, label: &str) -> bool {
        self.entries.iter().any(|(l, _)| l == label)
    }

    /// Number of registered platforms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for PlatformRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// The shared instance of [`PlatformRegistry::standard`] used by
/// [`PlatformKind::build`](crate::PlatformKind::build) and the grid helpers.
#[must_use]
pub fn standard_registry() -> &'static PlatformRegistry {
    static REGISTRY: OnceLock<PlatformRegistry> = OnceLock::new();
    REGISTRY.get_or_init(PlatformRegistry::standard)
}

/// MoS page size used by the queue-count sweep entries. Striped fills split
/// a page across queue pairs at LBA (4 KB) granularity, so the sweep uses a
/// page spanning eight LBAs — small enough for scaled-down capacities,
/// large enough that every queue count up to eight gets its own stripe.
pub const QUEUE_SWEEP_PAGE_BYTES: u64 = 32 * 1024;

/// The registry label of a queue-sweep entry: `hams-TE-q{n}`.
#[must_use]
pub fn queue_sweep_label(num_queues: u16) -> String {
    format!("hams-TE-q{num_queues}")
}

/// Registers one `hams-TE-q{n}` entry per queue count: tightly-integrated,
/// extend-mode HAMS with [`QUEUE_SWEEP_PAGE_BYTES`] MoS pages and `n` NVMe
/// queue pairs (MSI coalescing threshold `n`, 8 µs timer). `q1` entries use
/// [`QueueConfig::single`], so the sweep's baseline is the exact
/// single-queue engine at the same page size. Together with
/// [`run_grid_with`](crate::run_grid_with), this is what `hams-bench` uses
/// to reproduce the queue-count sensitivity figure.
pub fn register_hams_queue_sweep(registry: &mut PlatformRegistry, queue_counts: &[u16]) {
    for &n in queue_counts {
        registry.register(queue_sweep_label(n), move |scale: &ScaleProfile| {
            let queues = if n <= 1 {
                QueueConfig::single()
            } else {
                QueueConfig::striped(n)
            };
            Box::new(HamsPlatform::scaled_with(
                AttachMode::Tight,
                PersistMode::Extend,
                scale.cache_bytes(),
                QUEUE_SWEEP_PAGE_BYTES,
                queues,
            ))
        });
    }
}

/// The registry label of a shard-sweep entry: `hams-TE-s{n}`.
#[must_use]
pub fn shard_sweep_label(num_shards: u16) -> String {
    format!("hams-TE-s{num_shards}")
}

/// Registers one `hams-TE-s{n}` entry per shard count, mirroring the
/// `hams-TE-q{n}` queue sweep: tightly-integrated, extend-mode HAMS with the
/// standard scaled ([`SCALED_MOS_PAGE_BYTES`]) MoS pages and the tag
/// directory partitioned into `n` interleaved banks. `s1` entries pin
/// [`ShardConfig::single`], so the sweep's baseline is the exact monolithic
/// array. Unlike the queue sweep, every entry must produce byte-identical
/// metrics — the shard-invariance contract — which is what the shard golden
/// snapshot and `hams-bench`'s `fig_shard_sensitivity` enforce on the grid.
pub fn register_hams_shard_sweep(registry: &mut PlatformRegistry, shard_counts: &[u16]) {
    for &n in shard_counts {
        registry.register(shard_sweep_label(n), move |scale: &ScaleProfile| {
            // interleaved(1) IS ShardConfig::single(), so the s1 baseline is
            // the exact monolithic array with no special casing.
            Box::new(HamsPlatform::scaled_with_shards(
                AttachMode::Tight,
                PersistMode::Extend,
                scale.cache_bytes(),
                SCALED_MOS_PAGE_BYTES,
                QueueConfig::single(),
                ShardConfig::interleaved(n),
            ))
        });
    }
}

/// MoS page size of the RAID device sweep: the queue sweep's eight-LBA page,
/// so the eight stripe commands of one fill have stripes to spread across
/// devices.
pub const RAID_SWEEP_PAGE_BYTES: u64 = 32 * 1024;

/// NVMe queue pairs used by every RAID device-sweep entry. Held constant
/// across device counts so the sweep isolates device scaling: the d1
/// baseline pays the same queue shape, only the archive fan-out changes.
pub const RAID_SWEEP_QUEUES: u16 = 8;

/// The registry label of a device-sweep entry: `hams-TE-d{n}`.
#[must_use]
pub fn raid_sweep_label(devices: u16) -> String {
    format!("hams-TE-d{devices}")
}

/// The registry label of the CXL-attached archive entry.
#[must_use]
pub fn cxl_label() -> String {
    "hams-TE-cxl".to_owned()
}

/// The platform behind one `hams-TE-d{n}` entry: tightly-integrated,
/// extend-mode HAMS with [`RAID_SWEEP_PAGE_BYTES`] MoS pages,
/// [`RAID_SWEEP_QUEUES`] queue pairs and a RAID-0 archive set of `devices`
/// ULL-Flash devices at LBA (4 KB) stripe granularity — each of a fill's
/// stripe commands lands wholly on the device owning its stripe, so one
/// page fill fans out across up to `devices` independent flash arrays.
/// Exposed concretely (not boxed) so harnesses can read per-device archive
/// stats; `fig_device_scaling` uses this to prove the per-device totals sum
/// to the single-device run's.
#[must_use]
pub fn build_raid_sweep_platform(scale: &ScaleProfile, devices: u16) -> HamsPlatform {
    HamsPlatform::scaled_with_backend(
        AttachMode::Tight,
        PersistMode::Extend,
        scale.cache_bytes(),
        RAID_SWEEP_PAGE_BYTES,
        QueueConfig::striped(RAID_SWEEP_QUEUES),
        BackendTopology::raid0_striped(devices, LBA_SIZE),
    )
}

/// The platform behind the `hams-TE-cxl` entry: the d4 RAID fan-out of
/// [`build_raid_sweep_platform`] attached over the CXL link instead of the
/// DDR4 register interface — the memory-expansion shape, slower than the
/// tight attach and faster than loose PCIe.
#[must_use]
pub fn build_cxl_platform(scale: &ScaleProfile) -> HamsPlatform {
    HamsPlatform::scaled_with_backend(
        AttachMode::Tight,
        PersistMode::Extend,
        scale.cache_bytes(),
        RAID_SWEEP_PAGE_BYTES,
        QueueConfig::striped(RAID_SWEEP_QUEUES),
        BackendTopology::cxl(4, LBA_SIZE),
    )
}

/// Number of devices in the fault-scenario parity array: four, matching
/// the RAID sweep's widest entry so degraded timing is comparable to the
/// healthy d4 run.
pub const FAULT_SWEEP_DEVICES: u16 = 4;

/// The registry label of the parity-archive fault-scenario entry.
#[must_use]
pub fn fault_label() -> String {
    "hams-TP-r5".to_owned()
}

/// The platform behind the `hams-TP-r5` entry: the d4 shape of
/// [`build_raid_sweep_platform`] on the rotating-parity `Raid5` backend
/// instead of `Raid0`, in persist mode so every store reaches the archive
/// as a journal-tagged write — the traffic that matters when a device is
/// out: degraded writes are parity-absorbed and the rebuild has real
/// durable pages to copy onto the spare. With zero injected faults this
/// array is metrics-byte-identical to its RAID-0 twin
/// (`tests/fault_equivalence.rs` pins it); install a
/// [`hams_core::FaultPlan`] through the concrete controller
/// (`controller_mut().set_fault_plan`) to fail a device mid-run and measure
/// degraded serving and rebuild-under-load — `fig26_latency_under_rebuild` and
/// `throughput --faults` both drive this entry. Exposed concretely so
/// harnesses can read the fault state machine and per-device stats.
#[must_use]
pub fn build_fault_platform(scale: &ScaleProfile) -> HamsPlatform {
    HamsPlatform::scaled_with_backend(
        AttachMode::Tight,
        PersistMode::Persist,
        scale.cache_bytes(),
        RAID_SWEEP_PAGE_BYTES,
        QueueConfig::striped(RAID_SWEEP_QUEUES),
        BackendTopology::raid5_striped(FAULT_SWEEP_DEVICES, LBA_SIZE),
    )
}

/// Registers one `hams-TE-d{n}` entry per device count plus the
/// `hams-TE-cxl` variant. `d1` pins a one-device RAID-0, which is the exact
/// single-archive engine (`tests/shape_equivalence.rs`), so the sweep's
/// baseline is today's hams-TE at the sweep's page/queue shape. Together
/// with [`run_grid_with`](crate::run_grid_with), this is what `hams-bench`'s
/// `fig_device_scaling` (`figures -- fig23`) sweeps: RAID-0 throughput
/// scaling on random reads, with per-device stats summing to the
/// single-device totals.
pub fn register_hams_raid_sweep(registry: &mut PlatformRegistry, device_counts: &[u16]) {
    for &n in device_counts {
        registry.register(raid_sweep_label(n), move |scale: &ScaleProfile| {
            Box::new(build_raid_sweep_platform(scale, n))
        });
    }
    registry.register(cxl_label(), |scale: &ScaleProfile| {
        Box::new(build_cxl_platform(scale))
    });
}

/// Registers the `hams-TP-r5` parity-archive entry — kept separate from
/// [`register_hams_raid_sweep`] so the device-scaling figure's entry set is
/// unchanged by the fault work.
pub fn register_hams_fault_scenario(registry: &mut PlatformRegistry) {
    registry.register(fault_label(), |scale: &ScaleProfile| {
        Box::new(build_fault_platform(scale))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::PlatformKind;

    #[test]
    fn standard_registry_matches_the_paper_order() {
        let registry = PlatformRegistry::standard();
        let labels: Vec<&str> = registry.labels().collect();
        let expected: Vec<&'static str> = PlatformKind::all()
            .iter()
            .map(PlatformKind::label)
            .collect();
        assert_eq!(labels, expected);
        assert_eq!(registry.len(), 11);
        assert!(!registry.is_empty());
    }

    #[test]
    fn built_platforms_report_their_label_as_name() {
        let registry = PlatformRegistry::standard();
        let scale = ScaleProfile::test_tiny();
        for kind in PlatformKind::all() {
            let platform = registry
                .build(kind.label(), &scale)
                .unwrap_or_else(|| panic!("{} not registered", kind.label()));
            assert_eq!(platform.name(), kind.label());
        }
    }

    #[test]
    fn unknown_labels_build_nothing() {
        let registry = PlatformRegistry::standard();
        assert!(registry
            .build("hams-XX", &ScaleProfile::test_tiny())
            .is_none());
        assert!(!registry.contains("hams-XX"));
    }

    #[test]
    fn register_replaces_in_place() {
        let mut registry = PlatformRegistry::standard();
        let before: Vec<String> = registry.labels().map(str::to_owned).collect();
        registry.register("oracle", |_| Box::new(OraclePlatform::new()));
        let after: Vec<String> = registry.labels().map(str::to_owned).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn queue_sweep_entries_register_and_build() {
        let mut registry = PlatformRegistry::standard();
        register_hams_queue_sweep(&mut registry, &[1, 2, 4, 8]);
        assert_eq!(registry.len(), 15);
        let scale = ScaleProfile::test_tiny();
        for n in [1u16, 2, 4, 8] {
            let platform = registry
                .build(&queue_sweep_label(n), &scale)
                .expect("sweep entry registered");
            assert_eq!(platform.name(), "hams-TE");
        }
    }

    #[test]
    fn shard_sweep_entries_register_and_build() {
        let mut registry = PlatformRegistry::standard();
        register_hams_shard_sweep(&mut registry, &[1, 2, 8]);
        assert_eq!(registry.len(), 14);
        let scale = ScaleProfile::test_tiny();
        for n in [1u16, 2, 8] {
            let platform = registry
                .build(&shard_sweep_label(n), &scale)
                .expect("sweep entry registered");
            assert_eq!(platform.name(), "hams-TE");
        }
    }

    #[test]
    fn raid_sweep_entries_register_and_build() {
        let mut registry = PlatformRegistry::standard();
        register_hams_raid_sweep(&mut registry, &[1, 2, 4]);
        assert_eq!(registry.len(), 15, "three d{{n}} entries plus hams-TE-cxl");
        let scale = ScaleProfile::test_tiny();
        for n in [1u16, 2, 4] {
            let platform = registry
                .build(&raid_sweep_label(n), &scale)
                .expect("sweep entry registered");
            assert_eq!(platform.name(), "hams-TE");
        }
        assert!(registry.build(&cxl_label(), &scale).is_some());
        let concrete = build_raid_sweep_platform(&scale, 4);
        assert_eq!(concrete.controller().num_devices(), 4);
        assert_eq!(
            concrete.controller().archive().stripe_lbas(),
            1,
            "LBA-granularity stripes fan one fill across devices"
        );
        assert!(build_cxl_platform(&scale)
            .controller()
            .backend_topology()
            .uses_cxl());
    }

    #[test]
    fn fault_scenario_entry_registers_and_builds_a_parity_array() {
        let mut registry = PlatformRegistry::standard();
        register_hams_fault_scenario(&mut registry);
        let scale = ScaleProfile::test_tiny();
        let platform = registry
            .build(&fault_label(), &scale)
            .expect("fault entry registered");
        assert_eq!(platform.name(), "hams-TP");
        let concrete = build_fault_platform(&scale);
        assert_eq!(concrete.controller().num_devices(), FAULT_SWEEP_DEVICES);
        assert!(concrete.controller().backend_topology().has_parity());
        assert_eq!(
            concrete.controller().archive().stripe_lbas(),
            1,
            "fault entry keeps the RAID sweep's LBA-granularity stripes"
        );
    }

    #[test]
    fn custom_platforms_extend_the_grid() {
        let mut registry = PlatformRegistry::new();
        registry.register("just-oracle", |_| Box::new(OraclePlatform::new()));
        assert_eq!(registry.len(), 1);
        let scale = ScaleProfile::test_tiny();
        assert!(registry.build("just-oracle", &scale).is_some());
    }
}
