//! Multi-device twins of the scaled HAMS platforms, shared by the pinned
//! suites.
//!
//! Every scaled HAMS platform runs one archive device. A suite that pins a
//! contract on a multi-device backend builds each platform's twin here:
//! the same `HamsConfig` with only its backend replaced by a RAID-0 at
//! MoS-page stripes.

use hams::core::{AttachMode, PersistMode};
use hams::platforms::{BackendTopology, HamsPlatform, Platform, PlatformKind, ScaleProfile};

/// `twin` with its archive replaced by a RAID-0 of `devices` ULL-Flash
/// devices at MoS-page stripes; one device returns `twin` unchanged.
pub fn with_devices(twin: HamsPlatform, devices: u16) -> HamsPlatform {
    if devices == 1 {
        return twin;
    }
    let config = twin
        .controller()
        .config()
        .with_backend(BackendTopology::raid0(devices));
    HamsPlatform::from_config(config)
}

/// `kind` as `PlatformKind::build` makes it, except that a HAMS kind runs
/// on a RAID-0 of `devices` archive devices ([`with_devices`]).
pub fn build_on(kind: PlatformKind, scale: &ScaleProfile, devices: u16) -> Box<dyn Platform> {
    let (attach, persist) = match kind {
        PlatformKind::HamsLP => (AttachMode::Loose, PersistMode::Persist),
        PlatformKind::HamsLE => (AttachMode::Loose, PersistMode::Extend),
        PlatformKind::HamsTP => (AttachMode::Tight, PersistMode::Persist),
        PlatformKind::HamsTE => (AttachMode::Tight, PersistMode::Extend),
        _ => return kind.build(scale),
    };
    let twin = HamsPlatform::scaled(attach, persist, scale.cache_bytes());
    Box::new(with_devices(twin, devices))
}
