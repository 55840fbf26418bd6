//! Instance identity and instance-type catalogue.

use std::fmt;

use crate::gpu::GpuSpec;
use crate::network::NetFabric;

/// Unique identifier of one leased instance (monotonic per [`CloudSim`]).
///
/// [`CloudSim`]: crate::CloudSim
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A single GPU slot on an instance.
///
/// # Example
///
/// ```
/// use cloudsim::{GpuRef, InstanceId};
/// let g = GpuRef::new(InstanceId(3), 1);
/// assert_eq!(format!("{g}"), "i3/g1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuRef {
    /// Owning instance.
    pub instance: InstanceId,
    /// GPU slot on the instance, `0..gpus_per_instance`.
    pub slot: u8,
}

impl GpuRef {
    /// Creates a reference to GPU `slot` of `instance`.
    pub fn new(instance: InstanceId, slot: u8) -> Self {
        GpuRef { instance, slot }
    }
}

impl fmt::Display for GpuRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/g{}", self.instance, self.slot)
    }
}

/// How an instance is billed and whether the cloud may reclaim it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceKind {
    /// Preemptible capacity: cheap, reclaimable with a grace-period notice.
    Spot,
    /// Dedicated capacity: expensive, never preempted.
    OnDemand,
}

impl fmt::Display for InstanceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceKind::Spot => write!(f, "spot"),
            InstanceKind::OnDemand => write!(f, "on-demand"),
        }
    }
}

/// Static description of an instance type: the named bundle of GPU model,
/// GPU count, network fabric, and pricing that a pool leases.
///
/// # Example
///
/// ```
/// use cloudsim::InstanceType;
/// let ty = InstanceType::g4dn_12xlarge();
/// assert_eq!(ty.gpus_per_instance, 4);
/// assert!(ty.spot_price_per_hour < ty.ondemand_price_per_hour);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceType {
    /// Cloud SKU name.
    pub name: &'static str,
    /// Number of GPUs per instance.
    pub gpus_per_instance: u8,
    /// The GPU model installed.
    pub gpu: GpuSpec,
    /// The instance's intra/inter network fabric.
    pub net: NetFabric,
    /// On-demand price, USD per instance-hour.
    pub ondemand_price_per_hour: f64,
    /// Spot price, USD per instance-hour.
    pub spot_price_per_hour: f64,
}

impl InstanceType {
    /// AWS `g4dn.12xlarge`: 4× T4, the paper's evaluation platform (§6.1).
    ///
    /// Prices follow the paper's Figure 7 discussion: 3.9 USD/h on-demand
    /// vs 1.9 USD/h spot.
    pub const fn g4dn_12xlarge() -> Self {
        InstanceType {
            name: "g4dn.12xlarge",
            gpus_per_instance: 4,
            gpu: GpuSpec::t4(),
            net: NetFabric::g4dn_default(),
            ondemand_price_per_hour: 3.9,
            spot_price_per_hour: 1.9,
        }
    }

    /// The paper's platform under its GPU name ([`g4dn_12xlarge`]).
    ///
    /// [`g4dn_12xlarge`]: InstanceType::g4dn_12xlarge
    pub const fn t4() -> Self {
        InstanceType::g4dn_12xlarge()
    }

    /// 8×A100 with NVSwitch + EFA (`p4d.24xlarge`).
    pub const fn p4d_24xlarge() -> Self {
        InstanceType {
            name: "p4d.24xlarge",
            gpus_per_instance: 8,
            gpu: GpuSpec::a100_40g(),
            net: NetFabric::nvlink_a100(),
            ondemand_price_per_hour: 32.77,
            spot_price_per_hour: 9.83,
        }
    }

    /// The A100 pool SKU ([`p4d_24xlarge`]) under its GPU name.
    ///
    /// [`p4d_24xlarge`]: InstanceType::p4d_24xlarge
    pub const fn a100() -> Self {
        InstanceType::p4d_24xlarge()
    }

    /// 4×L4 over PCIe (`g6.12xlarge`): the cheap recovery SKU — close to
    /// g4dn pricing with 50% more memory per GPU.
    pub const fn l4() -> Self {
        InstanceType {
            name: "g6.12xlarge",
            gpus_per_instance: 4,
            gpu: GpuSpec::l4(),
            net: NetFabric::pcie_l4(),
            ondemand_price_per_hour: 4.6,
            spot_price_per_hour: 1.8,
        }
    }

    /// 8×H100 with NVSwitch + EFA (`p5.48xlarge`): the premium on-demand
    /// backstop.
    pub const fn h100() -> Self {
        InstanceType {
            name: "p5.48xlarge",
            gpus_per_instance: 8,
            gpu: GpuSpec::h100(),
            net: NetFabric::nvlink_h100(),
            ondemand_price_per_hour: 98.32,
            spot_price_per_hour: 39.33,
        }
    }

    /// The four SKU presets a heterogeneous fleet draws from.
    pub fn presets() -> [InstanceType; 4] {
        [
            InstanceType::t4(),
            InstanceType::a100(),
            InstanceType::l4(),
            InstanceType::h100(),
        ]
    }

    /// Hourly price for the given billing kind.
    pub fn price_per_hour(&self, kind: InstanceKind) -> f64 {
        match kind {
            InstanceKind::Spot => self.spot_price_per_hour,
            InstanceKind::OnDemand => self.ondemand_price_per_hour,
        }
    }

    /// All GPU slots of instance `id`.
    pub fn gpus_of(&self, id: InstanceId) -> impl Iterator<Item = GpuRef> + '_ {
        (0..self.gpus_per_instance).map(move |slot| GpuRef::new(id, slot))
    }
}

impl Default for InstanceType {
    fn default() -> Self {
        InstanceType::g4dn_12xlarge()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_refs_enumerate_slots() {
        let ty = InstanceType::g4dn_12xlarge();
        let id = InstanceId(7);
        let gpus: Vec<GpuRef> = ty.gpus_of(id).collect();
        assert_eq!(gpus.len(), 4);
        assert!(gpus.iter().all(|g| g.instance == id));
        assert_eq!(gpus[2].slot, 2);
    }

    #[test]
    fn pricing_by_kind() {
        let ty = InstanceType::g4dn_12xlarge();
        assert_eq!(ty.price_per_hour(InstanceKind::Spot), 1.9);
        assert_eq!(ty.price_per_hour(InstanceKind::OnDemand), 3.9);
    }

    #[test]
    fn presets_are_distinct_and_priced_sanely() {
        let presets = InstanceType::presets();
        for ty in &presets {
            assert!(
                ty.spot_price_per_hour < ty.ondemand_price_per_hour,
                "{}",
                ty.name
            );
            assert!(ty.gpus_per_instance > 0, "{}", ty.name);
            assert!(ty.net.intra_bw >= ty.net.inter_bw, "{}", ty.name);
        }
        for (i, a) in presets.iter().enumerate() {
            for b in presets.iter().skip(i + 1) {
                assert_ne!(a.name, b.name);
            }
        }
        assert_eq!(InstanceType::t4(), InstanceType::g4dn_12xlarge());
        assert_eq!(InstanceType::a100(), InstanceType::p4d_24xlarge());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", InstanceId(12)), "i12");
        assert_eq!(format!("{}", InstanceKind::Spot), "spot");
        assert_eq!(format!("{}", InstanceKind::OnDemand), "on-demand");
    }
}
