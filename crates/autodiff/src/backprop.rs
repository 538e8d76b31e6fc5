//! Reverse-mode accumulation over tape records.

use crate::registry::{gradient_fn, GradCtx};
use std::collections::HashMap;
use std::sync::Arc;
use tfe_runtime::{api, Result, RuntimeError, TapeRecord, Tensor};

/// Run reverse-mode accumulation over `records` (in recording order),
/// starting from `seed` at `target_id`. Returns the gradient for every id
/// reached; callers look up their sources in the result.
///
/// Gradient arithmetic executes through the normal dispatcher, so any outer
/// active tapes record it (higher-order gradients, §4.2) and it can itself
/// be traced (staged backward passes).
///
/// # Errors
/// Missing gradient definitions along the differentiated path, or kernel
/// failures inside gradient functions.
pub fn accumulate(
    records: &[Arc<TapeRecord>],
    target_id: u64,
    seed: Tensor,
) -> Result<HashMap<u64, Tensor>> {
    accumulate_many(records, HashMap::from([(target_id, seed)]))
}

/// Multi-target variant of [`accumulate`]: start with a seed gradient per
/// target id. Used when differentiating graph functions, which may have
/// several outputs.
///
/// # Errors
/// Same conditions as [`accumulate`].
pub fn accumulate_many(
    records: &[Arc<TapeRecord>],
    seeds: HashMap<u64, Tensor>,
) -> Result<HashMap<u64, Tensor>> {
    let mut grads: HashMap<u64, Tensor> = seeds;

    for record in records.iter().rev() {
        // Does any output carry gradient?
        if !record.output_ids.iter().any(|id| grads.contains_key(id)) {
            continue;
        }
        let output_grads: Vec<Option<Tensor>> =
            record.output_ids.iter().map(|id| grads.get(id).cloned()).collect();
        let f = gradient_fn(record.op)?;
        let input_grads = f(&GradCtx::new(record, &output_grads))?;
        if input_grads.len() != record.input_ids.len() {
            return Err(RuntimeError::Internal(format!(
                "gradient of `{}` returned {} grads for {} inputs",
                record.op,
                input_grads.len(),
                record.input_ids.len()
            )));
        }
        for (id, grad) in record.input_ids.iter().zip(input_grads) {
            if let Some(g) = grad {
                match grads.remove(id) {
                    Some(existing) => {
                        grads.insert(*id, api::add(&existing, &g)?);
                    }
                    None => {
                        grads.insert(*id, g);
                    }
                }
            }
        }
    }
    Ok(grads)
}
