//! The instruction program carried by `fused_elementwise` nodes — this
//! workspace's XLA stand-in (§4.4: compiling staged computations provides
//! "operation fusion" among other optimizations). Fusion is the default
//! lowering of every traced function, on every device, so this is the code
//! most staged elementwise work runs through.
//!
//! A program is a small SSA register machine over the elementwise op enums
//! from `tfe-tensor`. The fusion pass compiles a group of elementwise graph
//! nodes into one [`Program`], and — once, at fusion time, from the program
//! in hand ([`intern`]) — lowers it to a [`CompiledProgram`]: a last-use
//! register plan, input-aliased reads, and a scratch-slot assignment sized
//! for cache-resident tiles. The runtime kernel fetches the compiled form
//! from the process-wide [`compiled`] cache (keyed by the encoded text), so
//! the string attribute is parsed only for programs that arrive as text
//! (a loaded bundle), and then once per distinct program, not once per call.
//!
//! Execution walks the whole program over one ~8 KiB tile at a time
//! ([`CompiledProgram::eval`]): an N-op group makes one pass over memory
//! instead of N, which is where fusion's real memory-traffic saving comes
//! from. What qualifies for tiles: every input f32 and a *periodic operand*
//! of the output ([`tfe_tensor::Shape::is_periodic_in`]) — the output's own
//! shape, or a scalar, bias or mask over trailing axes, which a tile reads
//! as `src[i % p]` through [`tfe_tensor::lanes::Periodic`] windows (a
//! period longer than a tile simply wraps inside one). So `x * w + bias`,
//! `x * eps`, mask multiplies and an LSTM cell's gate chains run on tiles.
//! A `[n, 1]` column, two partial operands (`[n, 1]` with `[1, k]`), or a
//! non-f32 input send the whole program to the fallback below.
//!
//! Tile boundaries depend only on the element count
//! ([`tfe_parallel::tile_len`]) and every instruction is an element-
//! independent map, so serial and parallel runs are bit-identical — and
//! both are bit-identical to per-instruction evaluation
//! ([`Program::eval`]: one `tfe_tensor::elementwise` call per instruction,
//! the same calls the unfused graph nodes make). That is the only other
//! evaluator: it handles every shape and dtype those kernels do, and tests
//! reach it through [`CompiledProgram::program`] as the differential
//! reference.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use tfe_tensor::elementwise::{binary, unary, BinaryOp, UnaryOp};
use tfe_tensor::lanes::{self, Periodic};
use tfe_tensor::{broadcast_shapes, DType, Result as TResult, Shape, TensorData, TensorError};

/// One instruction; instruction `i` writes register `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Load fused-node input `k`.
    Input(usize),
    /// Apply a unary op to a register.
    Unary(UnaryOp, usize),
    /// Apply a binary op to two registers.
    Binary(BinaryOp, usize, usize),
}

/// A fused elementwise program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Instructions in execution order; instruction `i` defines register `i`.
    pub instrs: Vec<Instr>,
    /// Register holding the result.
    pub output: usize,
}

impl Program {
    /// Validate internal references.
    ///
    /// # Errors
    /// Out-of-range register or input references.
    pub fn validate(&self, num_inputs: usize) -> Result<(), String> {
        for (i, instr) in self.instrs.iter().enumerate() {
            match instr {
                Instr::Input(k) => {
                    if *k >= num_inputs {
                        return Err(format!("instr {i} reads input {k} of {num_inputs}"));
                    }
                }
                Instr::Unary(_, a) => {
                    if *a >= i {
                        return Err(format!("instr {i} reads undefined register {a}"));
                    }
                }
                Instr::Binary(_, a, b) => {
                    if *a >= i || *b >= i {
                        return Err(format!("instr {i} reads undefined register {a}/{b}"));
                    }
                }
            }
        }
        if self.output >= self.instrs.len() {
            return Err(format!("output register {} undefined", self.output));
        }
        Ok(())
    }

    /// Serialize to the compact string stored in the node attribute, e.g.
    /// `in:0;in:1;b:add:0:1;u:relu:2|3`.
    pub fn encode(&self) -> String {
        let body: Vec<String> = self
            .instrs
            .iter()
            .map(|i| match i {
                Instr::Input(k) => format!("in:{k}"),
                Instr::Unary(op, a) => format!("u:{}:{a}", op.name()),
                Instr::Binary(op, a, b) => format!("b:{}:{a}:{b}", op.name()),
            })
            .collect();
        format!("{}|{}", body.join(";"), self.output)
    }

    /// Parse the string produced by [`Program::encode`].
    ///
    /// # Errors
    /// Malformed text.
    pub fn decode(text: &str) -> Result<Program, String> {
        let (body, out) = text.rsplit_once('|').ok_or("missing output register")?;
        let output: usize = out.parse().map_err(|_| "bad output register".to_string())?;
        let mut instrs = Vec::new();
        for part in body.split(';') {
            let fields: Vec<&str> = part.split(':').collect();
            let instr = match fields.as_slice() {
                ["in", k] => Instr::Input(k.parse().map_err(|_| "bad input index")?),
                ["u", name, a] => Instr::Unary(
                    UnaryOp::from_name(name).ok_or_else(|| format!("unknown unary {name}"))?,
                    a.parse().map_err(|_| "bad register")?,
                ),
                ["b", name, a, b] => Instr::Binary(
                    BinaryOp::from_name(name).ok_or_else(|| format!("unknown binary {name}"))?,
                    a.parse().map_err(|_| "bad register")?,
                    b.parse().map_err(|_| "bad register")?,
                ),
                _ => return Err(format!("bad instruction `{part}`")),
            };
            instrs.push(instr);
        }
        let p = Program { instrs, output };
        let max_input = p
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Input(k) => Some(*k + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        p.validate(max_input).map_err(|e| format!("invalid program: {e}"))?;
        Ok(p)
    }

    /// Lower to the tile-executable form (see [`CompiledProgram`]).
    pub fn compile(self) -> CompiledProgram {
        CompiledProgram::new(self)
    }

    /// Evaluate against concrete inputs one instruction at a time, each a
    /// whole-tensor [`unary`]/[`binary`] call — exactly what the unfused
    /// graph nodes run. Broadcasts and handles every dtype those ops do,
    /// so it is both the mixed-shape/dtype fallback of
    /// [`CompiledProgram::eval`] and the reference the tile executor is
    /// differentially tested against.
    ///
    /// # Errors
    /// Missing inputs or kernel errors (dtype/broadcast problems).
    pub fn eval(&self, inputs: &[&TensorData]) -> TResult<TensorData> {
        // Input registers borrow the caller's tensors instead of cloning
        // them; only compute results are owned.
        enum Reg<'a> {
            Borrowed(&'a TensorData),
            Owned(TensorData),
        }
        impl Reg<'_> {
            fn get(&self) -> &TensorData {
                match self {
                    Reg::Borrowed(t) => t,
                    Reg::Owned(t) => t,
                }
            }
        }
        let mut regs: Vec<Reg<'_>> = Vec::with_capacity(self.instrs.len());
        for instr in &self.instrs {
            let v = match instr {
                Instr::Input(k) => Reg::Borrowed(*inputs.get(*k).ok_or_else(|| {
                    TensorError::InvalidArgument(format!("fused program input {k} missing"))
                })?),
                Instr::Unary(op, a) => Reg::Owned(unary(regs[*a].get(), *op)?),
                Instr::Binary(op, a, b) => Reg::Owned(binary(regs[*a].get(), regs[*b].get(), *op)?),
            };
            regs.push(v);
        }
        Ok(match regs.swap_remove(self.output) {
            Reg::Borrowed(t) => t.clone(), // output is a bare input
            Reg::Owned(t) => t,
        })
    }

    /// Number of non-input instructions (the "fused op count").
    pub fn op_count(&self) -> usize {
        self.instrs.iter().filter(|i| !matches!(i, Instr::Input(_))).count()
    }
}

// ---------------------------------------------------------------------------
// Compiled tile executor
// ---------------------------------------------------------------------------

/// Where a compiled register lives during tile execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Alias of fused-node input `k` — read straight from the source
    /// tensor, never copied into a register buffer.
    In(usize),
    /// Scratch buffer `s` (one tile wide).
    Buf(usize),
    /// The output tile itself — the final instruction writes the result
    /// directly, no copy-out.
    Out,
}

/// One compiled instruction with resolved source/destination slots.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `dst = op(a)`
    Unary {
        /// The op.
        op: UnaryOp,
        /// Source slot.
        a: Slot,
        /// Destination slot ([`Slot::Buf`] or [`Slot::Out`]).
        dst: Slot,
    },
    /// `dst = op(a, b)`
    Binary {
        /// The op.
        op: BinaryOp,
        /// Left source slot.
        a: Slot,
        /// Right source slot.
        b: Slot,
        /// Destination slot ([`Slot::Buf`] or [`Slot::Out`]).
        dst: Slot,
    },
}

impl Step {
    fn dst(&self) -> Slot {
        match self {
            Step::Unary { dst, .. } | Step::Binary { dst, .. } => *dst,
        }
    }
}

/// A [`Program`] lowered for tile execution: decoded once, inputs aliased,
/// scratch registers assigned by a last-use plan so the live set — and
/// therefore the tile working set — is minimal.
///
/// Built once per distinct program (at fusion time via [`compiled`]) and
/// shared by every subsequent kernel invocation, so the hot path never
/// parses the string attribute.
///
/// # Slot-plan invariant
///
/// A step's destination buffer is allocated **before** the buffers of
/// sources dying at that step are released, so `dst` never aliases a live
/// source. Tile execution relies on this: it `mem::take`s the destination
/// buffer while reading source buffers through shared borrows — safe
/// without `unsafe`, and loud (an empty-slice panic) if the invariant were
/// ever broken.
#[derive(Debug)]
pub struct CompiledProgram {
    /// The source program, kept for the mixed-shape/dtype fallback.
    program: Program,
    /// Inputs the program reads (max input index + 1).
    num_inputs: usize,
    /// The inputs the output register depends on; their broadcast is the
    /// output shape.
    live_inputs: Vec<usize>,
    /// Compiled non-input instructions, in execution order.
    steps: Vec<Step>,
    /// Scratch buffers a tile needs live at once.
    num_bufs: usize,
    /// Where the output register lives after the last step.
    out: Slot,
}

impl CompiledProgram {
    fn new(program: Program) -> Self {
        let n = program.instrs.len();
        // last_use[r] = index of the last instruction reading register r.
        let mut last_use: Vec<Option<usize>> = vec![None; n];
        for (i, instr) in program.instrs.iter().enumerate() {
            match instr {
                Instr::Input(_) => {}
                Instr::Unary(_, a) => last_use[*a] = Some(i),
                Instr::Binary(_, a, b) => {
                    last_use[*a] = Some(i);
                    last_use[*b] = Some(i);
                }
            }
        }
        let num_inputs = program
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Input(k) => Some(*k + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let mut reg_slot: Vec<Slot> = Vec::with_capacity(n);
        let mut free: Vec<usize> = Vec::new();
        let mut num_bufs = 0usize;
        let mut steps = Vec::new();
        for (i, instr) in program.instrs.iter().enumerate() {
            if let Instr::Input(k) = instr {
                reg_slot.push(Slot::In(*k));
                continue;
            }
            // The output register writes the output tile directly when no
            // later instruction reads it back (the common case — fusion
            // emits the output last).
            let dst = if i == program.output && last_use[i].is_none() {
                Slot::Out
            } else {
                Slot::Buf(free.pop().unwrap_or_else(|| {
                    num_bufs += 1;
                    num_bufs - 1
                }))
            };
            steps.push(match *instr {
                Instr::Unary(op, a) => Step::Unary { op, a: reg_slot[a], dst },
                Instr::Binary(op, a, b) => Step::Binary { op, a: reg_slot[a], b: reg_slot[b], dst },
                Instr::Input(_) => unreachable!(),
            });
            // Release buffers whose last consumer is this instruction —
            // after `dst` was taken, upholding the slot-plan invariant.
            for (r, lu) in last_use.iter().enumerate() {
                if *lu == Some(i) && r != program.output {
                    if let Slot::Buf(s) = reg_slot[r] {
                        free.push(s);
                    }
                }
            }
            reg_slot.push(dst);
        }
        let out = reg_slot.get(program.output).copied().unwrap_or(Slot::Out);
        // Walk back from the output register; sources precede their readers.
        let mut reaches = vec![false; n];
        if let Some(r) = reaches.get_mut(program.output) {
            *r = true;
        }
        let mut live_inputs = Vec::new();
        for (i, instr) in program.instrs.iter().enumerate().rev() {
            if !reaches[i] {
                continue;
            }
            match *instr {
                Instr::Input(k) if !live_inputs.contains(&k) => live_inputs.push(k),
                Instr::Input(_) => {}
                Instr::Unary(_, a) => reaches[a] = true,
                Instr::Binary(_, a, b) => {
                    reaches[a] = true;
                    reaches[b] = true;
                }
            }
        }
        CompiledProgram { program, num_inputs, live_inputs, steps, num_bufs, out }
    }

    /// The program this was compiled from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of non-input instructions.
    pub fn op_count(&self) -> usize {
        self.steps.len()
    }

    /// Scratch buffers one tile keeps live (exposed for tests/benches).
    pub fn scratch_buffers(&self) -> usize {
        self.num_bufs
    }

    /// Evaluate against concrete inputs.
    ///
    /// Inputs that qualify (see [`CompiledProgram::tile_output_shape`]) run
    /// the tile executor: one pass over memory for the whole program, tiles
    /// split over the shared pool with partition-independent math
    /// (bit-identical for every thread count, and bit-identical to
    /// [`Program::eval`]). Anything else falls back to [`Program::eval`].
    ///
    /// # Errors
    /// Missing inputs or kernel errors (dtype/broadcast problems).
    pub fn eval(&self, inputs: &[&TensorData]) -> TResult<TensorData> {
        if inputs.len() < self.num_inputs {
            return Err(TensorError::InvalidArgument(format!(
                "fused program needs {} inputs, got {}",
                self.num_inputs,
                inputs.len()
            )));
        }
        match self.tile_output_shape(inputs) {
            Some(shape) => self.eval_tiled_f32(&inputs[..self.num_inputs], shape),
            None => {
                tfe_metrics::static_counter!(
                    "tfe_fused_fallback_evals_total",
                    "Fused programs evaluated one instruction at a time (an input was not f32, \
                     or neither full-shape nor periodic)"
                )
                .inc();
                self.program.eval(inputs)
            }
        }
    }

    /// The output shape when `inputs` qualify for the tile executor, `None`
    /// when [`CompiledProgram::eval`] will fall back to [`Program::eval`].
    ///
    /// Tiles treat every register as a flat array of the output's length,
    /// so each input must be f32 and a *periodic operand* of the output
    /// ([`Shape::is_periodic_in`]): the output shape itself, or a scalar, bias or
    /// mask over trailing axes, read as `src[i % p]`. A `[n, 1]` column
    /// against `[n, k]`, or two partial operands that only together span
    /// the output (`[n, 1]` with `[1, k]`), do not qualify. Registers that
    /// would be smaller than the output in [`Program::eval`] are computed at
    /// full length here, on repeated operands — the same scalar function on
    /// the same values, so the same bits.
    pub fn tile_output_shape(&self, inputs: &[&TensorData]) -> Option<Shape> {
        let inputs = inputs.get(..self.num_inputs)?;
        if inputs.iter().any(|t| t.dtype() != DType::F32) {
            return None;
        }
        let mut live = self.live_inputs.iter().map(|&k| inputs[k].shape());
        let mut shape = live.next()?.clone();
        for s in live {
            if *s != shape {
                shape = broadcast_shapes(&shape, s).ok()?;
            }
        }
        inputs.iter().all(|t| t.shape().is_periodic_in(&shape)).then_some(shape)
    }

    /// The tile executor, for inputs [`CompiledProgram::tile_output_shape`]
    /// accepted.
    fn eval_tiled_f32(&self, inputs: &[&TensorData], shape: Shape) -> TResult<TensorData> {
        let n = shape.num_elements();
        // Tile length depends only on the working set (inputs + scratch +
        // output), never the thread count — fixed boundaries keep tiled
        // results bitwise reproducible under any parallel split.
        let tile =
            tfe_parallel::tile_len(std::mem::size_of::<f32>(), self.num_bufs + inputs.len() + 1);
        let mut srcs: Vec<Periodic<'_, f32>> = Vec::with_capacity(inputs.len());
        for t in inputs {
            srcs.push(Periodic::new(t.as_slice::<f32>()?, n, tile));
        }
        let n_tiles = n.div_ceil(tile.max(1));
        let mut span = tfe_profile::span("fused", || {
            format!("fused_tiled:{}op:{}tile", self.steps.len(), n_tiles)
        });
        if let Some(s) = span.as_mut() {
            // One read per input element plus one output write.
            s.set_bytes(((inputs.len() + 1) * n * std::mem::size_of::<f32>()) as u64);
        }
        tfe_metrics::static_counter!(
            "tfe_fused_tiled_evals_total",
            "Fused programs evaluated by the tile executor"
        )
        .inc();
        metric_fused_elements(n as u64);
        let mut out = vec![0.0f32; n];
        let ptr = SendPtr(out.as_mut_ptr());
        // The pool on the terms of a plain elementwise kernel: as many
        // tiles as make its grain run inline, however many registers shrank
        // the tile. Who runs a tile changes, its boundaries do not.
        let grain = tfe_tensor::GRAIN_ELEMWISE.div_ceil(tile);
        tfe_parallel::par_for(n_tiles, grain, |r: std::ops::Range<usize>| {
            SCRATCH.with(|cell| {
                let mut scratch = cell.borrow_mut();
                if scratch.len() < self.num_bufs {
                    scratch.resize_with(self.num_bufs, Vec::new);
                }
                for buf in scratch.iter_mut().take(self.num_bufs) {
                    if buf.len() < tile {
                        buf.resize(tile, 0.0);
                    }
                }
                for t in r {
                    let start = t * tile;
                    let len = tile.min(n - start);
                    // SAFETY: tiles partition 0..n disjointly ([t*tile,
                    // t*tile+len) for distinct t), and par_for joins every
                    // tile before returning, so `out` outlives all views.
                    let out_tile = unsafe { ptr.slice_mut(start, len) };
                    self.run_tile(&srcs, &mut scratch, out_tile, start);
                }
            });
        });
        TensorData::from_vec(out, shape)
    }

    /// Run every step over one tile: `out_tile` covers absolute elements
    /// `start .. start + out_tile.len()` of the flattened tensors.
    fn run_tile(
        &self,
        srcs: &[Periodic<'_, f32>],
        bufs: &mut [Vec<f32>],
        out_tile: &mut [f32],
        start: usize,
    ) {
        let len = out_tile.len();
        fn resolve<'a>(
            slot: Slot,
            srcs: &'a [Periodic<'_, f32>],
            bufs: &'a [Vec<f32>],
            start: usize,
            len: usize,
        ) -> &'a [f32] {
            match slot {
                Slot::In(k) => srcs[k].window(start, len),
                Slot::Buf(s) => &bufs[s][..len],
                Slot::Out => unreachable!("the output tile is never a source"),
            }
        }
        macro_rules! apply {
            ($step:expr, $dst:expr) => {
                match *$step {
                    Step::Unary { op, a, .. } => {
                        lanes::unary_f32(op, resolve(a, srcs, bufs, start, len), $dst)
                    }
                    Step::Binary { op, a, b, .. } => lanes::binary_f32(
                        op,
                        resolve(a, srcs, bufs, start, len),
                        resolve(b, srcs, bufs, start, len),
                        $dst,
                    ),
                }
            };
        }
        for step in &self.steps {
            match step.dst() {
                Slot::Out => apply!(step, out_tile),
                Slot::Buf(s) => {
                    // Slot-plan invariant: `s` aliases no live source, so
                    // taking it out cannot disturb this step's reads.
                    let mut buf = std::mem::take(&mut bufs[s]);
                    apply!(step, &mut buf[..len]);
                    bufs[s] = buf;
                }
                Slot::In(_) => unreachable!("inputs are never written"),
            }
        }
        // Degenerate programs (output read back later, or output == input)
        // finish with one tile-local copy.
        match self.out {
            Slot::Out => {}
            Slot::In(k) => out_tile.copy_from_slice(srcs[k].window(start, len)),
            Slot::Buf(s) => out_tile.copy_from_slice(&bufs[s][..len]),
        }
    }
}

thread_local! {
    /// Per-thread tile scratch, reused across tiles and programs so the
    /// executor never allocates on the steady-state hot path.
    static SCRATCH: std::cell::RefCell<Vec<Vec<f32>>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// A raw pointer that may cross thread boundaries; tiles receive disjoint
/// mutable views of the output buffer through it.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: every tile touches a disjoint element range and `par_for` joins
// all tiles before the buffer is moved or dropped.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Mutable subslice `[start, start + len)`.
    ///
    /// # Safety
    /// The range must be in bounds and disjoint from every other live view
    /// of the buffer.
    unsafe fn slice_mut<'a>(self, start: usize, len: usize) -> &'a mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

// ---------------------------------------------------------------------------
// Process-wide compile cache
// ---------------------------------------------------------------------------

type CompileCache = RwLock<HashMap<String, Arc<CompiledProgram>>>;

static COMPILED: OnceLock<CompileCache> = OnceLock::new();

fn metric_fused_elements(n: u64) {
    tfe_metrics::static_counter!(
        "tfe_fused_tiled_elements_total",
        "Elements processed by the fused tile executor"
    )
    .add(n);
}

/// Fetch (or build) the compiled form of an encoded program.
///
/// The first call for a given text decodes, validates, and compiles it —
/// under a `fused`/`compile` profiler span so traces show exactly when
/// parsing happens; every later call is a read-locked map hit. The fusion
/// pass warms this cache at fusion time, so steady-state kernel
/// invocations never parse.
///
/// # Errors
/// Malformed program text (same conditions as [`Program::decode`]).
pub fn compiled(text: &str) -> Result<Arc<CompiledProgram>, String> {
    let cache = COMPILED.get_or_init(Default::default);
    if let Some(p) = cache.read().get(text) {
        tfe_metrics::static_counter!(
            "tfe_fused_compile_cache_hits_total",
            "Fused-program compile-cache hits"
        )
        .inc();
        return Ok(p.clone());
    }
    let _span = tfe_profile::span("fused", || "compile".to_string());
    Ok(compile_into(cache, text, Program::decode(text)?))
}

/// Compile a program the caller already holds and cache it under its
/// encoded text, which is returned for the node attribute. The fusion pass
/// calls this so that neither it nor the first kernel invocation ever parses
/// the text it has just printed; a program already cached is left alone.
pub fn intern(program: Program) -> String {
    let text = program.encode();
    let cache = COMPILED.get_or_init(Default::default);
    if !cache.read().contains_key(&text) {
        let _span = tfe_profile::span("fused", || "compile".to_string());
        compile_into(cache, &text, program);
    }
    text
}

fn compile_into(cache: &CompileCache, text: &str, program: Program) -> Arc<CompiledProgram> {
    let built = Arc::new(program.compile());
    tfe_metrics::static_counter!(
        "tfe_fused_compile_total",
        "Fused programs compiled (cache misses)"
    )
    .inc();
    // A racing compile of the same text may have won; keep the first.
    cache.write().entry(text.to_string()).or_insert(built).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relu_of_sum() -> Program {
        Program {
            instrs: vec![
                Instr::Input(0),
                Instr::Input(1),
                Instr::Binary(BinaryOp::Add, 0, 1),
                Instr::Unary(UnaryOp::Relu, 2),
            ],
            output: 3,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = relu_of_sum();
        let text = p.encode();
        assert_eq!(text, "in:0;in:1;b:add:0:1;u:relu:2|3");
        assert_eq!(Program::decode(&text).unwrap(), p);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Program::decode("").is_err());
        assert!(Program::decode("in:0|5").is_err()); // undefined output reg
        assert!(Program::decode("u:nosuch:0|0").is_err());
        assert!(Program::decode("b:add:0:1|0").is_err()); // forward reference
        assert!(Program::decode("in:0;u:relu:0").is_err()); // missing output
    }

    #[test]
    fn eval_matches_composition() {
        let p = relu_of_sum();
        let a = TensorData::from_vec(vec![1.0f32, -5.0], Shape::from([2])).unwrap();
        let b = TensorData::from_vec(vec![2.0f32, 2.0], Shape::from([2])).unwrap();
        let r = p.eval(&[&a, &b]).unwrap();
        assert_eq!(r.to_f64_vec(), vec![3.0, 0.0]);
    }

    #[test]
    fn eval_broadcasts() {
        let p = Program {
            instrs: vec![Instr::Input(0), Instr::Input(1), Instr::Binary(BinaryOp::Mul, 0, 1)],
            output: 2,
        };
        let a = TensorData::from_vec(vec![1.0f32, 2.0], Shape::from([2, 1])).unwrap();
        let b = TensorData::scalar(10.0f32);
        let r = p.eval(&[&a, &b]).unwrap();
        assert_eq!(r.shape().dims(), &[2, 1]);
        assert_eq!(r.to_f64_vec(), vec![10.0, 20.0]);
    }

    #[test]
    fn op_count_ignores_inputs() {
        assert_eq!(relu_of_sum().op_count(), 2);
    }

    #[test]
    fn validate_bounds() {
        let p = relu_of_sum();
        assert!(p.validate(2).is_ok());
        assert!(p.validate(1).is_err()); // input 1 out of range
    }

    // -- compiled executor --

    fn f32s(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i % 97) as f32 - 48.0) * 0.125).collect()
    }

    fn tensor(v: Vec<f32>) -> TensorData {
        let n = v.len();
        TensorData::from_vec(v, Shape::from([n])).unwrap()
    }

    fn bits(t: &TensorData) -> Vec<u32> {
        t.as_slice::<f32>().unwrap().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn compiled_output_writes_out_tile_directly() {
        let c = relu_of_sum().compile();
        assert_eq!(c.op_count(), 2);
        assert_eq!(c.out, Slot::Out);
        // add needs one scratch buffer; relu writes the output directly.
        assert_eq!(c.scratch_buffers(), 1);
    }

    #[test]
    fn compiled_matches_per_instruction_eval_bitwise_across_tile_boundaries() {
        let c = relu_of_sum().compile();
        // Odd lengths around the tile and lane widths.
        for n in [0usize, 1, 7, 2048, 2049, 4096, 4097, 10_000] {
            let a = tensor(f32s(n));
            let b = tensor(f32s(n).iter().map(|x| -x * 0.5).collect());
            let tiled = c.eval(&[&a, &b]).unwrap();
            let reference = c.program().eval(&[&a, &b]).unwrap();
            assert_eq!(bits(&tiled), bits(&reference), "n = {n}");
        }
    }

    #[test]
    fn compiled_long_chain_recycles_buffers() {
        // in0; r1=neg(in0); r2=square(r1); r3=add(r2,in0); r4=relu(r3);
        // r5=mul(r4,r2)... a chain with overlapping lifetimes.
        let p = Program {
            instrs: vec![
                Instr::Input(0),
                Instr::Unary(UnaryOp::Neg, 0),
                Instr::Unary(UnaryOp::Square, 1),
                Instr::Binary(BinaryOp::Add, 2, 0),
                Instr::Unary(UnaryOp::Relu, 3),
                Instr::Binary(BinaryOp::Mul, 4, 2),
                Instr::Unary(UnaryOp::Sigmoid, 5),
            ],
            output: 6,
        };
        let c = p.compile();
        // r2 lives across two steps, so the plan needs >1 buffer, but far
        // fewer than one per instruction.
        assert!(c.scratch_buffers() >= 2 && c.scratch_buffers() <= 3, "{}", c.scratch_buffers());
        let a = tensor(f32s(5000));
        let tiled = c.eval(&[&a]).unwrap();
        let reference = c.program().eval(&[&a]).unwrap();
        assert_eq!(bits(&tiled), bits(&reference));
    }

    #[test]
    fn compiled_output_is_input_edge_case() {
        // `in:0|0` — the output aliases an input; eval must copy.
        let c = Program::decode("in:0|0").unwrap().compile();
        let a = tensor(f32s(3000));
        let r = c.eval(&[&a]).unwrap();
        assert_eq!(bits(&r), bits(&a));
    }

    #[test]
    fn compiled_scalar_operand_tiles_and_column_falls_back() {
        let c = Program::decode("in:0;in:1;b:mul:0:1|2").unwrap().compile();
        let a = TensorData::from_vec(vec![1.0f32, 2.0], Shape::from([2, 1])).unwrap();
        let b = TensorData::scalar(10.0f32);
        assert_eq!(c.tile_output_shape(&[&a, &b]), Some(Shape::from([2, 1])));
        let r = c.eval(&[&a, &b]).unwrap();
        assert_eq!(r.shape().dims(), &[2, 1]);
        assert_eq!(r.to_f64_vec(), vec![10.0, 20.0]);
        // A column against a row is two partial operands: not periodic.
        let row = TensorData::from_vec(vec![1.0f32, 2.0, 3.0], Shape::from([3])).unwrap();
        assert_eq!(c.tile_output_shape(&[&a, &row]), None);
        let r = c.eval(&[&a, &row]).unwrap();
        assert_eq!(r.shape().dims(), &[2, 3]);
        assert_eq!(r.to_f64_vec(), vec![1.0, 2.0, 3.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn live_inputs_decide_the_output_shape() {
        // in:1 feeds only a dead instruction: the output is in:0's shape,
        // and a dead input larger than that keeps the program off tiles.
        let c = Program::decode("in:0;in:1;u:neg:0;b:add:0:1|2").unwrap().compile();
        assert_eq!(c.live_inputs, vec![0]);
        let small = tensor(f32s(3));
        let big = TensorData::from_vec(f32s(6), Shape::from([2, 3])).unwrap();
        assert_eq!(c.tile_output_shape(&[&small, &small]), Some(Shape::from([3])));
        assert_eq!(c.tile_output_shape(&[&small, &big]), None);
        assert_eq!(c.eval(&[&small, &big]).unwrap().shape().dims(), &[3]);
    }

    #[test]
    fn compiled_missing_input_is_error() {
        let c = Program::decode("in:0;in:1;b:add:0:1|2").unwrap().compile();
        let a = tensor(f32s(4));
        assert!(c.eval(&[&a]).is_err());
    }

    #[test]
    fn compile_cache_returns_same_instance() {
        let text = "in:0;u:relu:0;u:neg:1|2";
        let a = compiled(text).unwrap();
        let b = compiled(text).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(compiled("garbage").is_err());
    }
}
