//! Synthetic datasets with checkpointable iterators.
//!
//! The paper's benchmarks measure throughput, not accuracy, so synthetic
//! data preserves everything that matters (DESIGN.md §3 substitution #4).
//! Iterator positions serialize through the §4.3 object-graph machinery —
//! "an iterator over input data whose position in a dataset is serialized"
//! is one of the paper's explicit examples of non-variable state.

use std::sync::Arc;
use std::sync::Mutex;
use tfe_encode::Value;
use tfe_parallel::lock;
use tfe_runtime::{api, Result, Tensor};
use tfe_state::MutableState;
use tfe_tensor::rng::TensorRng;
use tfe_tensor::{DType, Shape, TensorData};

/// A deterministic synthetic classification dataset: `images` of shape
/// `(n, h, w, c)` in `[0, 1)` and integer labels in `[0, classes)`. Element
/// `i` is a pure function of `(seed, i)`, so epochs are reproducible and
/// restart-safe.
#[derive(Debug, Clone)]
pub struct SyntheticImages {
    seed: u64,
    len: usize,
    shape: (usize, usize, usize),
    classes: usize,
}

impl SyntheticImages {
    /// Create a dataset description.
    pub fn new(
        seed: u64,
        len: usize,
        shape: (usize, usize, usize),
        classes: usize,
    ) -> SyntheticImages {
        SyntheticImages { seed, len, shape, classes }
    }

    /// Dataset length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Materialize element `i` (image, label).
    ///
    /// # Panics
    /// `i >= len`.
    pub fn element(&self, i: usize) -> (TensorData, i64) {
        assert!(i < self.len, "element {i} out of range");
        let mut rng =
            TensorRng::seed_from_u64(self.seed.wrapping_mul(0x9E37).wrapping_add(i as u64));
        let (h, w, c) = self.shape;
        let img = rng.uniform(DType::F32, Shape::from([h, w, c]), 0.0, 1.0).expect("float rng");
        let label = rng
            .uniform_int(DType::I64, Shape::scalar(), 0, self.classes as i64)
            .expect("int rng")
            .to_i64_vec()[0];
        (img, label)
    }

    /// Build a batching iterator starting at element 0.
    pub fn batches(&self, batch_size: usize) -> DatasetIterator {
        DatasetIterator { dataset: self.clone(), batch_size, position: Arc::new(Mutex::new(0)) }
    }
}

/// A stateful, checkpointable batch iterator over [`SyntheticImages`].
#[derive(Clone)]
pub struct DatasetIterator {
    dataset: SyntheticImages,
    batch_size: usize,
    position: Arc<Mutex<usize>>,
}

impl DatasetIterator {
    /// Current position (element index).
    pub fn position(&self) -> usize {
        *lock(&self.position)
    }

    /// Produce the next `(images, labels)` batch, wrapping at the end of
    /// the dataset (infinite epochs).
    ///
    /// # Errors
    /// Tensor construction failures.
    pub fn next_batch(&self) -> Result<(Tensor, Tensor)> {
        let mut pos = lock(&self.position);
        let (h, w, c) = self.dataset.shape;
        let mut images = Vec::with_capacity(self.batch_size * h * w * c);
        let mut labels = Vec::with_capacity(self.batch_size);
        // Each element is a pure function of (seed, index), so the batch
        // materializes across the worker pool; fixed chunks combined in
        // ascending order keep the batch byte-identical to the serial
        // loop at any thread count.
        let base = *pos;
        let len = self.dataset.len.max(1);
        let elements = tfe_parallel::par_reduce(
            self.batch_size,
            1,
            |r: std::ops::Range<usize>| -> Vec<(TensorData, i64)> {
                r.map(|j| self.dataset.element((base + j) % len)).collect()
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        )
        .unwrap_or_default();
        for (img, label) in &elements {
            images.extend(img.as_slice::<f32>()?.iter().copied());
            labels.push(*label);
        }
        *pos += self.batch_size;
        let images = TensorData::from_vec(images, Shape::from([self.batch_size, h, w, c]))?;
        let labels = TensorData::from_vec(labels, Shape::from([self.batch_size]))?;
        Ok((Tensor::from_data(images), Tensor::from_data(labels)))
    }

    /// The iterator's checkpointable state handle.
    pub fn state(&self) -> Arc<dyn MutableState> {
        Arc::new(IteratorState { position: self.position.clone() })
    }
}

struct IteratorState {
    position: Arc<Mutex<usize>>,
}

impl MutableState for IteratorState {
    fn save_state(&self) -> Value {
        Value::Int(*lock(&self.position) as i64)
    }

    fn restore_state(&self, value: &Value) -> std::result::Result<(), String> {
        let p = value.as_i64().ok_or("iterator state must be an int")?;
        *lock(&self.position) = p as usize;
        Ok(())
    }
}

/// A synthetic regression dataset used by the quickstart/MLP examples:
/// `y = sin(sum(x)) + noise`.
#[derive(Debug, Clone)]
pub struct SyntheticRegression {
    seed: u64,
    features: usize,
}

impl SyntheticRegression {
    /// Create with a feature width.
    pub fn new(seed: u64, features: usize) -> SyntheticRegression {
        SyntheticRegression { seed, features }
    }

    /// Sample a batch `(x, y)`.
    ///
    /// # Errors
    /// Tensor failures.
    pub fn batch(&self, index: u64, batch_size: usize) -> Result<(Tensor, Tensor)> {
        let mut rng = TensorRng::seed_from_u64(self.seed.wrapping_add(index));
        let x = rng.normal(DType::F32, Shape::from([batch_size, self.features]), 0.0, 1.0)?;
        let xt = Tensor::from_data(x);
        let s = api::reduce_sum(&xt, &[1], true)?;
        let clean = api::sin(&s)?;
        let noise = rng.normal(DType::F32, Shape::from([batch_size, 1]), 0.0, 0.05)?;
        let y = api::add(&clean, &Tensor::from_data(noise))?;
        Ok((xt, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_state::TrackableGroup;

    #[test]
    fn elements_deterministic() {
        let ds = SyntheticImages::new(7, 100, (4, 4, 3), 10);
        let (a1, l1) = ds.element(5);
        let (a2, l2) = ds.element(5);
        assert_eq!(a1, a2);
        assert_eq!(l1, l2);
        let (b, _) = ds.element(6);
        assert_ne!(a1, b);
        assert!((0..10).contains(&l1));
    }

    #[test]
    fn batching_shapes_and_progress() {
        let ds = SyntheticImages::new(1, 10, (2, 2, 1), 3);
        let it = ds.batches(4);
        let (x, y) = it.next_batch().unwrap();
        assert_eq!(x.shape().unwrap().dims(), &[4, 2, 2, 1]);
        assert_eq!(y.shape().unwrap().dims(), &[4]);
        assert_eq!(it.position(), 4);
        it.next_batch().unwrap();
        it.next_batch().unwrap(); // wraps past the end
        assert_eq!(it.position(), 12);
    }

    #[test]
    fn iterator_state_checkpoints() {
        let ds = SyntheticImages::new(1, 10, (2, 2, 1), 3);
        let it = ds.batches(3);
        it.next_batch().unwrap();
        it.next_batch().unwrap();
        assert_eq!(it.position(), 6);
        let root = TrackableGroup::new().with_state("iterator", it.state());
        let saved = tfe_state::checkpoint::save_to_value(&root);
        it.next_batch().unwrap();
        assert_eq!(it.position(), 9);
        let status = tfe_state::checkpoint::restore_from_value(&root, &saved).unwrap();
        assert_eq!(status.restored_state, 1);
        assert_eq!(it.position(), 6);
        // Resumes producing the same batch as before the restore.
        let (x1, _) = it.next_batch().unwrap();
        let it2 = ds.batches(3);
        it2.next_batch().unwrap();
        it2.next_batch().unwrap();
        let (x2, _) = it2.next_batch().unwrap();
        assert_eq!(x1.to_f64_vec().unwrap(), x2.to_f64_vec().unwrap());
    }

    #[test]
    fn regression_batches() {
        let ds = SyntheticRegression::new(3, 8);
        let (x, y) = ds.batch(0, 16).unwrap();
        assert_eq!(x.shape().unwrap().dims(), &[16, 8]);
        assert_eq!(y.shape().unwrap().dims(), &[16, 1]);
        // Deterministic per index.
        let (x2, _) = ds.batch(0, 16).unwrap();
        assert_eq!(x.to_f64_vec().unwrap(), x2.to_f64_vec().unwrap());
        let (x3, _) = ds.batch(1, 16).unwrap();
        assert_ne!(x.to_f64_vec().unwrap(), x3.to_f64_vec().unwrap());
    }
}
