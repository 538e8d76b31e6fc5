//! Low-level gradient-tape machinery (§4.2).
//!
//! The runtime records executed operations onto every active tape that is
//! watching (directly or transitively) one of the op's inputs. The
//! user-facing `GradientTape` API and the actual backprop algorithm live in
//! `tfe-autodiff`; this module only owns the data structure and the
//! recording rule, because recording has to happen inside the dispatcher.

use crate::context::Owner;
use crate::tensor::Tensor;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use tfe_ops::{Attrs, Op};

/// One recorded operation. Built once and shared: every tape that records
/// it, and every `gradient` call that walks it, holds the same `Arc`.
#[derive(Debug)]
pub struct TapeRecord {
    /// The operation.
    pub op: Op,
    /// Attributes it ran with.
    pub attrs: Attrs,
    /// Input handles (eager or symbolic — tapes work in both modes).
    pub inputs: Vec<Tensor>,
    /// Output handles.
    pub outputs: Vec<Tensor>,
    /// Ids gradients flow *from* (usually input ids; `read_variable`
    /// records the variable id so all reads of one variable alias).
    pub input_ids: Vec<u64>,
    /// Ids gradients flow *to*.
    pub output_ids: Vec<u64>,
}

impl TapeRecord {
    /// The ids gradients of `op` flow *from* — the one place the rule is
    /// written. Usually the input ids. `read_variable` flows from its
    /// *variable id*, so that every read of one variable aliases to one
    /// gradient slot (§4.2/§4.3); a `call` appends the variables its graph
    /// reads (attr `var_ids`, set by the tracer), so gradients reach
    /// variables *through* staged functions. Variable slots, when present,
    /// are exactly the ones past `inputs.len()`.
    pub(crate) fn gradient_slots(op: Op, attrs: &Attrs, inputs: &[Tensor]) -> Vec<u64> {
        let mut slots: Vec<u64> = inputs.iter().map(Tensor::id).collect();
        match op {
            Op::ReadVariable => slots.extend(attrs.int("var_id").ok().map(|id| id as u64)),
            Op::Call => {
                let var_ids = attrs.int_list("var_ids").unwrap_or(&[]);
                slots.extend(var_ids.iter().map(|&id| id as u64));
            }
            _ => {}
        }
        slots
    }

    /// The record of `op` over these handles.
    pub fn new(op: Op, attrs: Attrs, inputs: &[Tensor], outputs: &[Tensor]) -> TapeRecord {
        let slots = TapeRecord::gradient_slots(op, &attrs, inputs);
        TapeRecord::with_slots(slots, op, attrs, inputs, outputs)
    }

    /// [`TapeRecord::new`] for a caller that already asked for the slots.
    pub(crate) fn with_slots(
        input_ids: Vec<u64>,
        op: Op,
        attrs: Attrs,
        inputs: &[Tensor],
        outputs: &[Tensor],
    ) -> TapeRecord {
        let output_ids = outputs.iter().map(Tensor::id).collect();
        TapeRecord {
            op,
            attrs,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            input_ids,
            output_ids,
        }
    }
}

struct TapeInner {
    watched: HashSet<u64>,
    tracked: HashSet<u64>,
    records: Vec<Arc<TapeRecord>>,
    /// Owners of the functions the records' `call`/`cond` attributes name.
    owners: Vec<Owner>,
    consumed: bool,
}

/// A recording of differentiable operations.
///
/// Tapes are composable (§4.2): several can be active at once, and a tape
/// may record the gradient computation another tape performs — that is how
/// higher-order derivatives work (Listing 1).
pub struct Tape {
    /// Unique tape id.
    pub id: u64,
    /// Whether `gradient` may be called multiple times.
    pub persistent: bool,
    /// Whether variables are watched automatically on access (§4.3,
    /// Listing 2). Defaults to true.
    pub watch_accessed_variables: bool,
    inner: Mutex<TapeInner>,
}

impl Tape {
    /// A fresh tape.
    pub fn new(persistent: bool, watch_accessed_variables: bool) -> Arc<Tape> {
        Arc::new(Tape {
            id: crate::tensor::fresh_id(),
            persistent,
            watch_accessed_variables,
            inner: Mutex::new(TapeInner {
                watched: HashSet::new(),
                tracked: HashSet::new(),
                records: Vec::new(),
                owners: Vec::new(),
                consumed: false,
            }),
        })
    }

    /// Start watching an id (tensor id or variable id).
    pub fn watch_id(&self, id: u64) {
        let mut inner = self.inner.lock();
        inner.watched.insert(id);
        inner.tracked.insert(id);
    }

    /// Whether any of `ids` is on the differentiable path.
    pub fn tracks_any(&self, ids: &[u64]) -> bool {
        let inner = self.inner.lock();
        ids.iter().any(|id| inner.tracked.contains(id))
    }

    /// Record `record` if any of its `input_ids` is tracked. Returns
    /// whether it was recorded.
    pub fn maybe_record(&self, record: &Arc<TapeRecord>) -> bool {
        let mut inner = self.inner.lock();
        if !record.input_ids.iter().any(|id| inner.tracked.contains(id)) {
            return false;
        }
        for &id in &record.output_ids {
            inner.tracked.insert(id);
        }
        inner.records.push(record.clone());
        true
    }

    /// Keep `owner` for as long as this tape can still be differentiated:
    /// a record names a function `owner` owns, and `gradient` resolves the
    /// name.
    pub fn retain(&self, owner: Owner) {
        self.inner.lock().owners.push(owner);
    }

    /// Snapshot the records (used by backprop): handles, not copies.
    pub fn records(&self) -> Vec<Arc<TapeRecord>> {
        self.inner.lock().records.clone()
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mark the tape used by a `gradient` call. The check and the set
    /// happen under one lock acquisition, so concurrent callers racing a
    /// shared non-persistent tape see exactly one winner.
    ///
    /// # Errors
    /// [`RuntimeError::TapeConsumed`] for a non-persistent tape that was
    /// already consumed (mirrors TensorFlow's `GradientTape` error).
    pub fn consume(&self) -> Result<(), crate::RuntimeError> {
        let mut inner = self.inner.lock();
        if inner.consumed && !self.persistent {
            return Err(crate::RuntimeError::TapeConsumed);
        }
        inner.consumed = true;
        Ok(())
    }
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tape(id={}, records={}, persistent={})", self.id, self.len(), self.persistent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::TensorData;

    fn record(ids_in: &[u64], ids_out: &[u64]) -> Arc<TapeRecord> {
        Arc::new(TapeRecord {
            op: Op::Identity,
            attrs: Attrs::new(),
            inputs: ids_in.iter().map(|_| Tensor::from_data(TensorData::scalar(0.0f32))).collect(),
            outputs: ids_out
                .iter()
                .map(|_| Tensor::from_data(TensorData::scalar(0.0f32)))
                .collect(),
            input_ids: ids_in.to_vec(),
            output_ids: ids_out.to_vec(),
        })
    }

    #[test]
    fn records_only_watched_paths() {
        let tape = Tape::new(false, true);
        tape.watch_id(1);
        assert!(!tape.maybe_record(&record(&[7], &[8]))); // untracked input
        assert!(tape.maybe_record(&record(&[1], &[2]))); // watched
        assert!(tape.maybe_record(&record(&[2], &[3]))); // transitively tracked
        assert!(tape.tracks_any(&[3]));
        assert!(!tape.tracks_any(&[8]));
        assert_eq!(tape.len(), 2);
    }

    #[test]
    fn consume_semantics() {
        let tape = Tape::new(false, true);
        assert!(tape.consume().is_ok());
        assert!(tape.consume().is_err());
        let p = Tape::new(true, true);
        assert!(p.consume().is_ok());
        assert!(p.consume().is_ok());
    }

    #[test]
    fn multiple_watches() {
        let tape = Tape::new(false, true);
        tape.watch_id(10);
        tape.watch_id(20);
        assert!(tape.maybe_record(&record(&[5, 20], &[30])));
        assert!(tape.tracks_any(&[30]));
    }
}
