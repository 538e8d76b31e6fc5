//! Device registry: the runtime detects devices at start-up and exposes
//! `list_devices` (§4.4); this module is that machinery.

use crate::cost::ComputeModel;
use crate::name::{DeviceName, DeviceType};
use parking_lot::RwLock;
use std::fmt;
use std::sync::Arc;

/// How kernels behave on a device.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Run the real CPU kernel and return real results (host execution).
    #[default]
    Real,
    /// Run the real kernel *and* charge the device's compute model to the
    /// virtual clock — simulated devices whose outputs must still be
    /// numerically correct (tests, examples).
    Simulated,
    /// Skip the kernel; produce zero-filled outputs of the right shape and
    /// charge the compute model. Used for paper-scale benchmarks
    /// (ResNet-50 at batch 32) where numeric output is irrelevant.
    CostOnly,
}

/// One device known to the runtime.
#[derive(Clone)]
pub struct Device {
    name: DeviceName,
    compute: Option<Arc<ComputeModel>>,
    kernel_mode: KernelMode,
}

impl Device {
    /// A real host-CPU device (no simulation).
    pub fn host_cpu() -> Device {
        Device { name: DeviceName::local_cpu(), compute: None, kernel_mode: KernelMode::Real }
    }

    /// A simulated device with a compute model.
    pub fn simulated(name: DeviceName, compute: ComputeModel, kernel_mode: KernelMode) -> Device {
        Device { name, compute: Some(Arc::new(compute)), kernel_mode }
    }

    /// The device's fully-qualified name.
    pub fn name(&self) -> &DeviceName {
        &self.name
    }

    /// The device kind.
    pub fn device_type(&self) -> DeviceType {
        self.name.device_type
    }

    /// The compute model, if this device is simulated.
    pub fn compute_model(&self) -> Option<&ComputeModel> {
        self.compute.as_deref()
    }

    /// How kernels execute here.
    pub fn kernel_mode(&self) -> &KernelMode {
        &self.kernel_mode
    }

    /// Whether results produced on this device are numerically meaningful.
    pub fn produces_real_values(&self) -> bool {
        !matches!(self.kernel_mode, KernelMode::CostOnly)
    }
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Device({}, mode={:?}, simulated={})",
            self.name,
            self.kernel_mode,
            self.compute.is_some()
        )
    }
}

/// Thread-safe registry of devices, ordered by registration.
///
/// A fresh manager always contains the host CPU at
/// `/job:localhost/task:0/device:CPU:0`.
#[derive(Debug)]
pub struct DeviceManager {
    devices: RwLock<Vec<Device>>,
    /// The host CPU, `devices[0]`, kept beside the list so that the most
    /// common answer needs no search.
    host: Device,
}

impl DeviceManager {
    /// A manager holding only the host CPU.
    pub fn new() -> DeviceManager {
        let host = Device::host_cpu();
        DeviceManager { devices: RwLock::new(vec![host.clone()]), host }
    }

    /// Register a device.
    ///
    /// # Errors
    /// A device with the same name already exists.
    pub fn register(&self, device: Device) -> Result<(), String> {
        let mut devs = self.devices.write();
        if devs.iter().any(|d| d.name == device.name) {
            return Err(format!("device {} already registered", device.name));
        }
        devs.push(device);
        Ok(())
    }

    /// All registered device names, in registration order (the
    /// `list_devices` endpoint of §4.4).
    pub fn list_devices(&self) -> Vec<DeviceName> {
        self.devices.read().iter().map(|d| d.name.clone()).collect()
    }

    /// Look up a device by exact name.
    pub fn find(&self, name: &DeviceName) -> Option<Device> {
        self.devices.read().iter().find(|d| &d.name == name).cloned()
    }

    /// Resolve a device string (full or shorthand) to a registered device.
    ///
    /// # Errors
    /// Parse failures or unknown devices.
    pub fn resolve(&self, name: &str) -> Result<Device, String> {
        let parsed = DeviceName::parse(name)?;
        self.find(&parsed).ok_or_else(|| {
            format!(
                "device {parsed} is not registered (known: {})",
                self.list_devices().iter().map(|d| d.to_string()).collect::<Vec<_>>().join(", ")
            )
        })
    }

    /// The first registered device of `ty`, if any — used for kernel-based
    /// default placement when the user gives no `device` scope (§4.4).
    pub fn first_of_type(&self, ty: DeviceType) -> Option<Device> {
        self.devices.read().iter().find(|d| d.device_type() == ty).cloned()
    }

    /// The host CPU device.
    pub fn host_cpu(&self) -> Device {
        self.host.clone()
    }
}

impl Default for DeviceManager {
    fn default() -> DeviceManager {
        DeviceManager::new()
    }
}

/// Calibrated device profiles for the paper's evaluation hardware.
///
/// These numbers are *effective* throughputs chosen so the reproduction
/// harness lands near the paper's reported examples/sec; see
/// EXPERIMENTS.md for the calibration table.
pub mod profiles {
    use super::*;

    /// A GTX-1080-class GPU (Figure 3's device).
    pub fn gtx1080() -> ComputeModel {
        ComputeModel {
            flops_per_sec: 2.4e12,
            bytes_per_sec: 2.4e11,
            launch_ns: 6_000.0,
            min_kernel_ns: 4_000.0,
            saturation_flops: 3.0e9,
            min_utilization: 0.18,
        }
    }

    /// A Cloud-TPU-class accelerator (Table 1's device).
    pub fn cloud_tpu() -> ComputeModel {
        ComputeModel {
            flops_per_sec: 8.0e12,
            bytes_per_sec: 6.0e11,
            launch_ns: 2_000.0,
            min_kernel_ns: 1_500.0,
            saturation_flops: 2.0e10,
            min_utilization: 0.10,
        }
    }

    /// A Xeon-W-2135-class CPU (Figure 4's device).
    pub fn xeon_w2135() -> ComputeModel {
        ComputeModel {
            flops_per_sec: 8.0e10,
            bytes_per_sec: 6.0e10,
            launch_ns: 150.0,
            min_kernel_ns: 250.0,
            saturation_flops: 1.0e6,
            min_utilization: 0.05,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manager_starts_with_host_cpu() {
        let m = DeviceManager::new();
        let names = m.list_devices();
        assert_eq!(names, vec![DeviceName::local_cpu()]);
        assert!(m.host_cpu().compute_model().is_none());
    }

    #[test]
    fn register_and_resolve() {
        let m = DeviceManager::new();
        m.register(Device::simulated(
            DeviceName::local(DeviceType::Gpu, 0),
            profiles::gtx1080(),
            KernelMode::Simulated,
        ))
        .unwrap();
        let d = m.resolve("/gpu:0").unwrap();
        assert_eq!(d.device_type(), DeviceType::Gpu);
        assert!(d.compute_model().is_some());
        assert!(d.produces_real_values());
        assert!(m.resolve("/gpu:1").is_err());
        assert!(m.resolve("bad").is_err());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let m = DeviceManager::new();
        assert!(m.register(Device::host_cpu()).is_err());
    }

    #[test]
    fn first_of_type() {
        let m = DeviceManager::new();
        assert!(m.first_of_type(DeviceType::Gpu).is_none());
        m.register(Device::simulated(
            DeviceName::local(DeviceType::Gpu, 1),
            profiles::gtx1080(),
            KernelMode::CostOnly,
        ))
        .unwrap();
        let d = m.first_of_type(DeviceType::Gpu).unwrap();
        assert_eq!(d.name().index, 1);
        assert!(!d.produces_real_values());
    }

    #[test]
    fn profiles_are_sane() {
        for p in [profiles::gtx1080(), profiles::cloud_tpu(), profiles::xeon_w2135()] {
            assert!(p.flops_per_sec > 0.0);
            assert!(p.bytes_per_sec > 0.0);
            assert!(p.min_utilization > 0.0 && p.min_utilization <= 1.0);
        }
        // Accelerators are faster than the CPU profile.
        assert!(profiles::gtx1080().flops_per_sec > profiles::xeon_w2135().flops_per_sec);
        assert!(profiles::cloud_tpu().flops_per_sec > profiles::gtx1080().flops_per_sec);
    }
}
