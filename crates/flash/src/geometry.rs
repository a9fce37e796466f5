//! SSD physical geometry and physical page addressing.
//!
//! State-of-the-art SSDs spread requests across channels, packages, dies and
//! planes (paper Fig. 4a). The geometry type describes that hierarchy and
//! provides the address arithmetic the FTL and FIL use to map a physical page
//! number onto the hardware unit that serves it.

use serde::{Deserialize, Serialize};

/// The physical organisation of an SSD's flash array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashGeometry {
    /// Independent system buses connecting packages to the controller.
    pub channels: u32,
    /// Flash packages attached to each channel.
    pub packages_per_channel: u32,
    /// Dies stacked in each package.
    pub dies_per_package: u32,
    /// Planes per die (planes share the die but buffer independently).
    pub planes_per_die: u32,
    /// Erase blocks per plane.
    pub blocks_per_plane: u32,
    /// Program/read pages per erase block.
    pub pages_per_block: u32,
    /// Bytes per flash page.
    pub page_size: u32,
}

impl FlashGeometry {
    /// Geometry of the 800 GB Z-NAND ULL-Flash prototype used in the paper:
    /// 16 channels, wide die-level parallelism, 4 KB pages.
    #[must_use]
    pub fn ull_flash() -> Self {
        FlashGeometry {
            channels: 16,
            packages_per_channel: 4,
            dies_per_package: 2,
            planes_per_die: 2,
            blocks_per_plane: 1024,
            pages_per_block: 768,
            page_size: 4096,
        }
    }

    /// Geometry of a conventional high-performance NVMe SSD (Intel 750-class):
    /// fewer channels, TLC-style large blocks.
    #[must_use]
    pub fn nvme_ssd() -> Self {
        FlashGeometry {
            channels: 8,
            packages_per_channel: 4,
            dies_per_package: 2,
            planes_per_die: 2,
            blocks_per_plane: 1024,
            pages_per_block: 512,
            page_size: 4096,
        }
    }

    /// Geometry of a SATA SSD used as the low-end comparison point.
    #[must_use]
    pub fn sata_ssd() -> Self {
        FlashGeometry {
            channels: 4,
            packages_per_channel: 2,
            dies_per_package: 2,
            planes_per_die: 2,
            blocks_per_plane: 1024,
            pages_per_block: 512,
            page_size: 4096,
        }
    }

    /// A deliberately tiny geometry for unit tests: fast to fill, easy to
    /// reason about (2 channels × 1 × 1 × 1 plane, 8 blocks × 16 pages).
    #[must_use]
    pub fn tiny() -> Self {
        FlashGeometry {
            channels: 2,
            packages_per_channel: 1,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 16,
            page_size: 4096,
        }
    }

    /// Total number of dies in the device.
    #[must_use]
    pub fn total_dies(&self) -> u64 {
        u64::from(self.channels)
            * u64::from(self.packages_per_channel)
            * u64::from(self.dies_per_package)
    }

    /// Total number of planes in the device.
    #[must_use]
    pub fn total_planes(&self) -> u64 {
        self.total_dies() * u64::from(self.planes_per_die)
    }

    /// Total number of erase blocks in the device.
    #[must_use]
    pub fn total_blocks(&self) -> u64 {
        self.total_planes() * u64::from(self.blocks_per_plane)
    }

    /// Total number of flash pages in the device.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * u64::from(self.pages_per_block)
    }

    /// Raw capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * u64::from(self.page_size)
    }

    /// Decomposes a physical page number into the hardware unit it lives on.
    /// Pages are interleaved across planes first (channel = ppn % channels,
    /// …), which is what gives sequential physical pages channel-level
    /// parallelism. Power-of-two factors split by shift and mask, so the
    /// ULL-Flash geometry divides only by its 768 pages per block.
    #[inline]
    #[must_use]
    pub fn decompose(&self, ppn: u64) -> PhysicalPageAddr {
        let (rest, channel) = div_rem(ppn, self.channels);
        let (rest, package) = div_rem(rest, self.packages_per_channel);
        let (rest, die) = div_rem(rest, self.dies_per_package);
        let (rest, plane) = div_rem(rest, self.planes_per_die);
        let (rest, page) = div_rem(rest, self.pages_per_block);
        let (_, block) = div_rem(rest, self.blocks_per_plane);
        PhysicalPageAddr {
            channel: channel as u32,
            package: package as u32,
            die: die as u32,
            plane: plane as u32,
            block: block as u32,
            page: page as u32,
        }
    }

    /// Flat die index (0 ..< total_dies) of a decomposed address, used to pick
    /// the die resource in the FIL.
    #[inline]
    #[must_use]
    pub fn die_index(&self, addr: &PhysicalPageAddr) -> usize {
        ((u64::from(addr.channel) * u64::from(self.packages_per_channel) + u64::from(addr.package))
            * u64::from(self.dies_per_package)
            + u64::from(addr.die)) as usize
    }
}

/// `(x / d, x % d)`, by shift and mask when `d` is a power of two. Flash
/// geometries are mostly powers of two, and a runtime `u64` division costs
/// tens of cycles where a shift costs one.
#[inline]
pub(crate) fn div_rem(x: u64, d: u32) -> (u64, u64) {
    if d.is_power_of_two() {
        (x >> d.trailing_zeros(), x & u64::from(d - 1))
    } else {
        (x / u64::from(d), x % u64::from(d))
    }
}

/// A fully decomposed physical flash page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PhysicalPageAddr {
    /// Channel index.
    pub channel: u32,
    /// Package index within the channel.
    pub package: u32,
    /// Die index within the package.
    pub die: u32,
    /// Plane index within the die.
    pub plane: u32,
    /// Erase block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every preset plus a geometry with odd channel, die, block and page
    /// counts, so the division path of every factor but one is exercised.
    pub(crate) fn addressing_cases() -> [FlashGeometry; 5] {
        [
            FlashGeometry::ull_flash(),
            FlashGeometry::nvme_ssd(),
            FlashGeometry::sata_ssd(),
            FlashGeometry::tiny(),
            FlashGeometry {
                channels: 3,
                packages_per_channel: 2,
                dies_per_package: 5,
                planes_per_die: 2,
                blocks_per_plane: 7,
                pages_per_block: 13,
                page_size: 4096,
            },
        ]
    }

    /// The first and last page of `g` and about 4k pages in between, at an
    /// odd stride so the sample visits every power-of-two residue.
    pub(crate) fn sample_pages(g: &FlashGeometry) -> impl Iterator<Item = u64> {
        let last = g.total_pages() - 1;
        let step = (last / 4096) | 1;
        (0..=last).step_by(step as usize).chain([last])
    }

    /// The division formula `decompose` replaced.
    pub(crate) fn decompose_by_division(g: &FlashGeometry, ppn: u64) -> PhysicalPageAddr {
        let channel = (ppn % u64::from(g.channels)) as u32;
        let mut rest = ppn / u64::from(g.channels);
        let package = (rest % u64::from(g.packages_per_channel)) as u32;
        rest /= u64::from(g.packages_per_channel);
        let die = (rest % u64::from(g.dies_per_package)) as u32;
        rest /= u64::from(g.dies_per_package);
        let plane = (rest % u64::from(g.planes_per_die)) as u32;
        rest /= u64::from(g.planes_per_die);
        let page = (rest % u64::from(g.pages_per_block)) as u32;
        rest /= u64::from(g.pages_per_block);
        let block = (rest % u64::from(g.blocks_per_plane)) as u32;
        PhysicalPageAddr {
            channel,
            package,
            die,
            plane,
            block,
            page,
        }
    }

    #[test]
    fn decompose_and_die_index_match_the_division_formulas() {
        for g in addressing_cases() {
            for ppn in sample_pages(&g) {
                let addr = g.decompose(ppn);
                let reference = decompose_by_division(&g, ppn);
                assert_eq!(addr, reference, "{g:?} ppn {ppn}");
                let die = (u64::from(reference.channel) * u64::from(g.packages_per_channel)
                    + u64::from(reference.package))
                    * u64::from(g.dies_per_package)
                    + u64::from(reference.die);
                assert_eq!(g.die_index(&addr), die as usize, "{g:?} ppn {ppn}");
                assert!(g.die_index(&addr) < g.total_dies() as usize);
            }
        }
    }

    #[test]
    fn div_rem_matches_division_for_every_small_divisor() {
        for d in 1..=64u32 {
            for x in [
                0,
                1,
                63,
                64,
                767,
                768,
                1 << 20,
                u64::from(u32::MAX),
                u64::MAX,
            ] {
                assert_eq!(
                    div_rem(x, d),
                    (x / u64::from(d), x % u64::from(d)),
                    "{x} / {d}"
                );
            }
        }
    }

    #[test]
    fn ull_flash_capacity_is_800gb_class() {
        let g = FlashGeometry::ull_flash();
        let gb = g.capacity_bytes() as f64 / 1e9;
        assert!(gb > 700.0 && gb < 900.0, "capacity was {gb} GB");
    }

    #[test]
    fn totals_multiply_out() {
        let g = FlashGeometry::tiny();
        assert_eq!(g.total_dies(), 2);
        assert_eq!(g.total_planes(), 2);
        assert_eq!(g.total_blocks(), 16);
        assert_eq!(g.total_pages(), 256);
        assert_eq!(g.capacity_bytes(), 256 * 4096);
    }

    #[test]
    fn decompose_is_within_bounds_and_unique_per_unit() {
        let g = FlashGeometry::tiny();
        for ppn in 0..g.total_pages() {
            let a = g.decompose(ppn);
            assert!(a.channel < g.channels);
            assert!(a.package < g.packages_per_channel);
            assert!(a.die < g.dies_per_package);
            assert!(a.plane < g.planes_per_die);
            assert!(a.block < g.blocks_per_plane);
            assert!(a.page < g.pages_per_block);
            assert!(g.die_index(&a) < g.total_dies() as usize);
        }
    }

    #[test]
    fn sequential_pages_alternate_channels() {
        let g = FlashGeometry::tiny();
        assert_eq!(g.decompose(0).channel, 0);
        assert_eq!(g.decompose(1).channel, 1);
        assert_eq!(g.decompose(2).channel, 0);
    }

    #[test]
    fn presets_are_distinct() {
        assert!(FlashGeometry::ull_flash().channels > FlashGeometry::nvme_ssd().channels);
        assert!(FlashGeometry::nvme_ssd().channels > FlashGeometry::sata_ssd().channels);
    }
}
