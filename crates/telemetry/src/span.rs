//! The span model: one interval of a request's lifecycle in simulated time.

use hams_sim::Nanos;

/// The serving-spine layer a span belongs to. Layers become Chrome-trace
/// thread lanes, so one request's journey reads top-to-bottom: request →
/// admission → controller → tag array → NVMe → MSI → archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Whole-request lifetime (arrival to completion) and its service phase.
    Request,
    /// Open-loop admission: each request's wait in the queue until dispatch.
    Admission,
    /// HAMS controller access and its component breakdown.
    Controller,
    /// Sharded tag directory probes: hit, miss, wait-stall.
    TagArray,
    /// NVMe command submission through the paired queues.
    Nvme,
    /// MSI interrupt delivery (coalesced completion signalling).
    Msi,
    /// Archive (ULL-Flash / Optane) device service.
    Archive,
}

impl Layer {
    /// Every layer, in lane order.
    pub const ALL: [Layer; 7] = [
        Layer::Request,
        Layer::Admission,
        Layer::Controller,
        Layer::TagArray,
        Layer::Nvme,
        Layer::Msi,
        Layer::Archive,
    ];

    /// Stable lane name used in exports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Admission => "admission",
            Layer::Controller => "controller",
            Layer::TagArray => "tag_array",
            Layer::Nvme => "nvme",
            Layer::Msi => "msi",
            Layer::Archive => "archive",
        }
    }

    /// Dense index into [`Layer::ALL`] (also the export lane id).
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Layer::Request => 0,
            Layer::Admission => 1,
            Layer::Controller => 2,
            Layer::TagArray => 3,
            Layer::Nvme => 4,
            Layer::Msi => 5,
            Layer::Archive => 6,
        }
    }
}

/// One interval on the simulation timeline, tagged with where in the spine it
/// happened and which tenant/shard/queue/device it touched.
///
/// Spans are `Copy` and carry only small integers and `'static` names, so
/// recording one is a ring-buffer store — no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which serving-spine layer the interval belongs to.
    pub layer: Layer,
    /// What happened ("queue_wait", "tag_hit", "nvme_submit", ...).
    pub name: &'static str,
    /// Simulated start instant.
    pub start: Nanos,
    /// Simulated end instant (`end >= start`).
    pub end: Nanos,
    /// Tenant that issued the request, when known.
    pub tenant: Option<u16>,
    /// Tag-directory shard probed, when applicable.
    pub shard: Option<u16>,
    /// NVMe queue pair used, when applicable.
    pub queue: Option<u16>,
    /// Archive device serviced, when applicable.
    pub device: Option<u16>,
    /// Correlation id: the request index (runner spans) or the MoS page
    /// (controller spans).
    pub request: Option<u64>,
}

impl Span {
    /// A span covering `[start, end]`. Ends before starts are clamped — the
    /// simulation never produces them, but telemetry must not panic the run
    /// it observes.
    #[must_use]
    pub fn new(layer: Layer, name: &'static str, start: Nanos, end: Nanos) -> Self {
        Span {
            layer,
            name,
            start,
            end: end.max(start),
            tenant: None,
            shard: None,
            queue: None,
            device: None,
            request: None,
        }
    }

    /// The span's duration in simulated time.
    #[must_use]
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }

    /// Tags the issuing tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: u16) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Tags the tag-directory shard.
    #[must_use]
    pub fn with_shard(mut self, shard: u16) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Tags the NVMe queue pair.
    #[must_use]
    pub fn with_queue(mut self, queue: u16) -> Self {
        self.queue = Some(queue);
        self
    }

    /// Tags the archive device.
    #[must_use]
    pub fn with_device(mut self, device: u16) -> Self {
        self.device = Some(device);
        self
    }

    /// Tags the correlation id (request index or MoS page).
    #[must_use]
    pub fn with_request(mut self, request: u64) -> Self {
        self.request = Some(request);
        self
    }

    /// `true` when `other` lies entirely within this span.
    #[must_use]
    pub fn encloses(&self, other: &Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_duration_and_tags() {
        let s = Span::new(
            Layer::Nvme,
            "nvme_submit",
            Nanos::from_nanos(100),
            Nanos::from_nanos(250),
        )
        .with_queue(1)
        .with_device(3)
        .with_request(42);
        assert_eq!(s.duration(), Nanos::from_nanos(150));
        assert_eq!(s.queue, Some(1));
        assert_eq!(s.device, Some(3));
        assert_eq!(s.request, Some(42));
        assert_eq!(s.tenant, None);
    }

    #[test]
    fn backwards_span_clamps_instead_of_panicking() {
        let s = Span::new(
            Layer::Request,
            "x",
            Nanos::from_nanos(10),
            Nanos::from_nanos(5),
        );
        assert_eq!(s.duration(), Nanos::ZERO);
        assert_eq!(s.end, s.start);
    }

    #[test]
    fn layer_index_matches_all_order() {
        for (i, layer) in Layer::ALL.iter().enumerate() {
            assert_eq!(layer.index(), i);
        }
    }
}
