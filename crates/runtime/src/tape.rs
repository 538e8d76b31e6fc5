//! Low-level gradient-tape machinery (§4.2).
//!
//! The runtime records executed operations onto every active tape that is
//! watching (directly or transitively) one of the op's inputs. The
//! user-facing `GradientTape` API and the actual backprop algorithm live in
//! `tfe-autodiff`; this module only owns the data structure and the
//! recording rule, because recording has to happen inside the dispatcher.

use crate::context::Owner;
use crate::tensor::Tensor;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;
use tfe_ops::{Attrs, Op};
use tfe_parallel::lock;

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
    /// gradient slot (§4.2/§4.3); a `call` or `cond` appends the variables
    /// its graphs read (attr `var_ids`, set by the tracer), so gradients
    /// reach variables *through* staged functions. Variable slots, when
    /// present, are exactly the ones past `inputs.len()`.
    fn gradient_slots(op: Op, attrs: &Attrs, inputs: &[Tensor]) -> Vec<u64> {
        let mut slots: Vec<u64> = inputs.iter().map(Tensor::id).collect();
        match op {
            Op::ReadVariable => slots.extend(attrs.int("var_id").ok().map(|id| id as u64)),
            Op::Call | Op::Cond => {
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

    fn with_slots(
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
        let mut inner = lock(&self.inner);
        inner.watched.insert(id);
        inner.tracked.insert(id);
    }

    /// Record `op` on each of `tapes` whose differentiable path one of its
    /// gradient slots is on, taking each tape's lock once. A tape that
    /// watches accessed variables first watches the ones `op` reads (§4.3).
    /// One record, built for the first tape that takes it, is shared by
    /// every other; `attrs` move into it.
    pub(crate) fn record_on(
        tapes: &[Arc<Tape>],
        op: Op,
        attrs: Attrs,
        inputs: &[Tensor],
        outputs: &[Tensor],
    ) {
        if tapes.is_empty() {
            return;
        }
        let mut slots = TapeRecord::gradient_slots(op, &attrs, inputs);
        let mut attrs = Some(attrs);
        let mut record: Option<Arc<TapeRecord>> = None;
        for tape in tapes {
            let mut inner = lock(&tape.inner);
            let ids = record.as_ref().map_or(&slots[..], |r| &r.input_ids[..]);
            if tape.watch_accessed_variables {
                for &id in &ids[inputs.len()..] {
                    inner.watched.insert(id);
                    inner.tracked.insert(id);
                }
            }
            if !ids.iter().any(|id| inner.tracked.contains(id)) {
                continue;
            }
            let record = record.get_or_insert_with(|| {
                let attrs = attrs.take().unwrap_or_default();
                let slots = std::mem::take(&mut slots);
                Arc::new(TapeRecord::with_slots(slots, op, attrs, inputs, outputs))
            });
            inner.tracked.extend(record.output_ids.iter().copied());
            inner.records.push(record.clone());
        }
    }

    /// Keep `owner` for as long as this tape can still be differentiated:
    /// a record names a function `owner` owns, and `gradient` resolves the
    /// name.
    pub fn retain(&self, owner: Owner) {
        lock(&self.inner).owners.push(owner);
    }

    /// Snapshot the records (used by backprop): handles, not copies.
    pub fn records(&self) -> Vec<Arc<TapeRecord>> {
        lock(&self.inner).records.clone()
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        lock(&self.inner).records.len()
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
        let mut inner = lock(&self.inner);
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

    fn scalar() -> Tensor {
        Tensor::from_data(TensorData::scalar(0.0f32))
    }

    /// Record an op from `inputs` to a fresh output on `tapes`; the output.
    fn op(tapes: &[Arc<Tape>], inputs: &[&Tensor]) -> Tensor {
        let out = scalar();
        let inputs: Vec<Tensor> = inputs.iter().map(|&t| t.clone()).collect();
        Tape::record_on(tapes, Op::Identity, Attrs::new(), &inputs, std::slice::from_ref(&out));
        out
    }

    fn tracks(tape: &Tape, t: &Tensor) -> bool {
        lock(&tape.inner).tracked.contains(&t.id())
    }

    #[test]
    fn records_only_watched_paths() {
        let tape = Tape::new(false, true);
        let tapes = [tape.clone()];
        let (x, other) = (scalar(), scalar());
        tape.watch_id(x.id());
        let untracked = op(&tapes, &[&other]);
        let y = op(&tapes, &[&x]); // watched
        let z = op(&tapes, &[&y]); // transitively tracked
        assert!(tracks(&tape, &z));
        assert!(!tracks(&tape, &untracked));
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
        let (a, b) = (scalar(), scalar());
        tape.watch_id(a.id());
        tape.watch_id(b.id());
        let y = op(std::slice::from_ref(&tape), &[&scalar(), &b]);
        assert!(tracks(&tape, &y));
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn nested_tapes_share_one_record() {
        let (outer, inner) = (Tape::new(false, true), Tape::new(false, true));
        let tapes = [outer.clone(), inner.clone()];
        let x = scalar();
        inner.watch_id(x.id());
        let y = op(&tapes, &[&x]);
        assert_eq!((outer.len(), inner.len()), (0, 1));
        outer.watch_id(y.id());
        op(&tapes, &[&y]);
        let (o, i) = (outer.records(), inner.records());
        assert!(Arc::ptr_eq(&o[0], &i[1]), "one record, held by both tapes");
    }
}
