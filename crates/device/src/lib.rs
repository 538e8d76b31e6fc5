//! # tfe-device
//!
//! Device abstraction for the `tf-eager` workspace (§4.4/§4.5 of the
//! TensorFlow Eager paper): application-level device names
//! (`/job:training/task:2/device:GPU:0`), device kinds, and the device
//! registry behind `list_devices`. A device is a name: every device runs
//! the host kernels. The paper's GPU and TPU timings are reproduced by the
//! simulator in `tfe-bench`, which observes the runtime rather than living
//! in the device (DESIGN.md §3).
//!
//! ```
//! use tfe_device::{DeviceName, DeviceType};
//! let name: DeviceName = "/job:training/task:2/device:GPU:0".parse().unwrap();
//! assert_eq!(name.device_type, DeviceType::Gpu);
//! assert_eq!(DeviceName::parse("/gpu:0").unwrap(), DeviceName::local(DeviceType::Gpu, 0));
//! ```

#![warn(missing_docs)]

mod manager;
mod name;

pub use manager::{Device, DeviceManager};
pub use name::{DeviceName, DeviceType};
