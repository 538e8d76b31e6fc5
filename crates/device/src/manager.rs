//! Device registry: the runtime detects devices at start-up and exposes
//! `list_devices` (§4.4); this module is that machinery.

use crate::name::{DeviceName, DeviceType};
use std::sync::Arc;
use std::sync::{PoisonError, RwLock};

/// One device known to the runtime: a name. Every device runs the host
/// kernels; what an op would cost on the hardware the name stands for is an
/// observer's business (DESIGN.md §3).
///
/// A handle: a clone is a reference-count bump, and two handles of one
/// registered device compare equal without looking at the name (`Arc`
/// compares by pointer first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    name: Arc<DeviceName>,
}

impl Device {
    /// The device called `name`.
    pub fn new(name: DeviceName) -> Device {
        Device { name: Arc::new(name) }
    }

    /// The host CPU, `/job:localhost/task:0/device:CPU:0`.
    pub fn host_cpu() -> Device {
        Device::new(DeviceName::local_cpu())
    }

    /// The device's fully-qualified name.
    pub fn name(&self) -> &DeviceName {
        &self.name
    }

    /// The device kind.
    pub fn device_type(&self) -> DeviceType {
        self.name.device_type
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
        let mut devs = self.devices.write().unwrap_or_else(PoisonError::into_inner);
        if devs.contains(&device) {
            return Err(format!("device {} already registered", device.name));
        }
        devs.push(device);
        Ok(())
    }

    /// All registered device names, in registration order (the
    /// `list_devices` endpoint of §4.4).
    pub fn list_devices(&self) -> Vec<DeviceName> {
        self.devices
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|d| d.name().clone())
            .collect()
    }

    /// Resolve a device string (full or shorthand) to a registered device.
    ///
    /// # Errors
    /// Parse failures or unknown devices.
    pub fn resolve(&self, name: &str) -> Result<Device, String> {
        let parsed = DeviceName::parse(name)?;
        let found = self
            .devices
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|d| *d.name() == parsed)
            .cloned();
        found.ok_or_else(|| {
            format!(
                "device {parsed} is not registered (known: {})",
                self.list_devices().iter().map(|d| d.to_string()).collect::<Vec<_>>().join(", ")
            )
        })
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manager_starts_with_host_cpu() {
        let m = DeviceManager::new();
        let names = m.list_devices();
        assert_eq!(names, vec![DeviceName::local_cpu()]);
        assert_eq!(m.host_cpu(), Device::host_cpu());
    }

    #[test]
    fn register_and_resolve() {
        let m = DeviceManager::new();
        m.register(Device::new(DeviceName::local(DeviceType::Gpu, 0))).unwrap();
        let d = m.resolve("/gpu:0").unwrap();
        assert_eq!(d.device_type(), DeviceType::Gpu);
        assert!(m.resolve("/gpu:1").is_err());
        assert!(m.resolve("bad").is_err());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let m = DeviceManager::new();
        assert!(m.register(Device::host_cpu()).is_err());
    }

    #[test]
    fn handles_of_one_device_are_one_device() {
        let m = DeviceManager::new();
        let (a, b) = (m.host_cpu(), m.host_cpu());
        assert!(Arc::ptr_eq(&a.name, &b.name), "a clone shares the name");
        assert_eq!(a, Device::host_cpu());
        assert_ne!(a, Device::new(DeviceName::local(DeviceType::Gpu, 0)));
    }
}
