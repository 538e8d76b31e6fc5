//! The instruction program carried by `fused_elementwise` nodes — this
//! workspace's XLA stand-in (§4.4: compiling staged computations provides
//! "operation fusion" among other optimizations). Fusion is the default
//! lowering of every traced function, on every device, so this is the code
//! most staged elementwise work runs through.
//!
//! A program is a small SSA register machine over the elementwise op enums
//! from `tfe-tensor`. The fusion pass compiles a group of elementwise graph
//! nodes into one [`Program`] and lowers it, once per distinct program in
//! the graph, from the program in hand, to a [`CompiledProgram`]: a last-use
//! register plan, input-aliased reads, and a scratch-slot assignment sized
//! for cache-resident tiles. The fused node holds that compiled form as a
//! handle, and the runtime kernel runs it directly. The encoded text is the
//! handle's label: what a bundle carries, parsed and compiled again when one
//! is decoded.
//!
//! Execution walks the whole program over one cache-resident tile at a
//! time ([`CompiledProgram::eval`]): an N-op group makes one pass over
//! memory instead of N, which is where fusion's real memory-traffic saving
//! comes from. The tiles are those of every elementwise map
//! ([`tfe_tensor::lanes::Tiler`]): lane multiples fixed by the element
//! count, so an element's bits depend only on its index, the length and the
//! op. Every input is read through [`tfe_tensor::lanes::Operand`], the
//! reader the unfused kernels use: a scalar, bias or mask over trailing axes
//! through contiguous windows, a `[n, 1]` column or one of two partial
//! operands gathered into a tile buffer. So a fused program gives the bits
//! of the unfused nodes — one whole-tensor `tfe_tensor::elementwise` call
//! per instruction, which the tests keep as the per-instruction reference —
//! at every thread count, NaNs included, wherever every register is as long
//! as the output (a shorter one is computed at full length here: the same
//! non-NaN bits, DESIGN.md §14). The fusion pass fuses every group of f32
//! unary and binary nodes, so the tiles are the only evaluator; inputs they
//! do not take (which only a fused node that arrived as bytes can hold) are
//! a typed error.

use std::collections::HashMap;
use std::sync::Arc;
use tfe_ops::{Handle, Params};
use tfe_tensor::elementwise::{BinaryOp, UnaryOp};
use tfe_tensor::lanes::{self, Operand, Tiler};
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
        p.validate(p.num_inputs()).map_err(|e| format!("invalid program: {e}"))?;
        Ok(p)
    }

    /// Inputs the program reads: one past its largest input index. It
    /// saturates, so an index of `usize::MAX` (which text can spell) fails
    /// [`Program::validate`] instead of overflowing.
    fn num_inputs(&self) -> usize {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Input(k) => Some(k.saturating_add(1)),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Lower to the tile-executable form (see [`CompiledProgram`]), under a
    /// `fused`/`compile` profiler span.
    pub fn compile(self) -> CompiledProgram {
        let _span = tfe_profile::span("fused", || "compile");
        tfe_metrics::static_counter!("tfe_fused_compile_total", "Fused programs compiled").inc();
        CompiledProgram::new(self)
    }

    /// Number of non-input instructions (the "fused op count").
    pub fn op_count(&self) -> usize {
        self.instrs.iter().filter(|i| !matches!(i, Instr::Input(_))).count()
    }
}

/// The compiled programs of one graph or one wire message, one per distinct
/// program text, so the fused nodes that run the same program hold the same
/// one. Every fused node's `program` handle is made here: by fusion from the
/// program it built ([`Programs::compiled`]), and by the decoders from the
/// text it was written as ([`Programs::link`]).
#[derive(Default)]
pub struct Programs(HashMap<String, Handle>);

impl Programs {
    /// The handle a fused node running `program` holds.
    pub fn compiled(&mut self, program: Program) -> Handle {
        self.0
            .entry(program.encode())
            .or_insert_with_key(|text| Handle::new(Arc::new(program.compile()), text.as_str()))
            .clone()
    }

    /// Give a decoded `fused_elementwise` node the compiled form of the
    /// program text it was written as. Any other node, and one that holds
    /// its program already, is left as it is.
    ///
    /// # Errors
    /// A malformed program text.
    pub fn link(&mut self, params: &mut Params) -> Result<(), String> {
        let Params::Fused { program } = params else { return Ok(()) };
        if program.get::<CompiledProgram>().is_some() {
            return Ok(());
        }
        let text = program.label();
        *program = match self.0.get(text) {
            Some(compiled) => compiled.clone(),
            None => {
                let compiled = Handle::new(Arc::new(Program::decode(text)?.compile()), text);
                self.0.insert(text.to_string(), compiled.clone());
                compiled
            }
        };
        Ok(())
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
/// Built once per distinct program (at fusion time via
/// [`Programs::compiled`]) and shared by every subsequent kernel
/// invocation, so the hot path never parses the string attribute.
///
/// # Slot-plan invariant
///
/// A step's destination buffer is allocated **before** the buffers of
/// sources dying at that step are released, so `dst` never aliases a live
/// source. Tile execution relies on this: it `mem::take`s the destination
/// buffer while reading source buffers through shared borrows — plain
/// borrow-checked code, and loud (an empty-slice panic) if the invariant
/// were ever broken.
#[derive(Debug)]
pub struct CompiledProgram {
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
        let num_inputs = program.num_inputs();
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
        CompiledProgram { num_inputs, live_inputs, steps, num_bufs, out }
    }

    /// Number of non-input instructions.
    pub fn op_count(&self) -> usize {
        self.steps.len()
    }

    /// Scratch buffers one tile keeps live (exposed for tests/benches).
    pub fn scratch_buffers(&self) -> usize {
        self.num_bufs
    }

    /// Evaluate against concrete inputs on tiles: one pass over memory for
    /// the whole program, tiles split over the shared pool with
    /// partition-independent math (bit-identical for every thread count,
    /// and to the unfused nodes).
    ///
    /// # Errors
    /// `InvalidArgument` for missing inputs, an input that is not f32, a
    /// program whose output depends on no input, or an input that does not
    /// broadcast into the output.
    pub fn eval(&self, inputs: &[&TensorData]) -> TResult<TensorData> {
        let shape = self.output_shape(inputs)?;
        self.eval_tiled_f32(&inputs[..self.num_inputs], shape)
    }

    /// The output shape of `inputs`, when the tiles take them.
    ///
    /// The output shape is the broadcast of the inputs the output register
    /// depends on. Every input must be f32 and broadcast *into* that shape:
    /// the tiles read each one through a [`lanes::Operand`] of the output,
    /// which gives every element the operand value the unfused kernels read
    /// there. Only a dead input can break that, and only in a fused node
    /// that arrived as bytes (a bundle, a dist worker's step).
    ///
    /// # Errors
    /// `InvalidArgument` for missing or non-f32 inputs, no live input, or
    /// an input that does not broadcast into the output.
    fn output_shape(&self, inputs: &[&TensorData]) -> TResult<Shape> {
        let refuse =
            |why: String| Err(TensorError::InvalidArgument(format!("fused program: {why}")));
        let Some(inputs) = inputs.get(..self.num_inputs) else {
            return refuse(format!("needs {} inputs, got {}", self.num_inputs, inputs.len()));
        };
        if let Some((k, t)) = inputs.iter().enumerate().find(|(_, t)| t.dtype() != DType::F32) {
            return refuse(format!("input {k} is {}; tiles take f32 only", t.dtype().name()));
        }
        let mut live = self.live_inputs.iter().map(|&k| inputs[k].shape());
        let Some(first) = live.next() else { return refuse("no input reaches the output".into()) };
        let mut shape = first.clone();
        for s in live {
            if *s != shape {
                shape = broadcast_shapes(&shape, s)?;
            }
        }
        // `broadcast_shapes(s, shape) == shape`, without building it.
        let into = |s: &Shape| {
            s.rank() <= shape.rank()
                && s.dims()
                    .iter()
                    .rev()
                    .zip(shape.dims().iter().rev())
                    .all(|(&d, &o)| d == o || d == 1)
        };
        match inputs.iter().position(|t| !into(t.shape())) {
            Some(k) => refuse(format!(
                "input {k} of shape {} does not broadcast into the output {shape}",
                inputs[k].shape()
            )),
            None => Ok(shape),
        }
    }

    /// The tile executor, for inputs [`CompiledProgram::output_shape`]
    /// accepted, on the tiles of every elementwise map ([`Tiler`]).
    fn eval_tiled_f32(&self, inputs: &[&TensorData], shape: Shape) -> TResult<TensorData> {
        let n = shape.num_elements();
        // The working set is the inputs, the scratch registers and the output.
        let tiler = Tiler::new(n, std::mem::size_of::<f32>(), self.num_bufs + inputs.len() + 1);
        let srcs: Vec<Operand<'_, f32>> = inputs
            .iter()
            .map(|t| Ok(Operand::new(t.as_slice::<f32>()?, t.shape(), &shape, &tiler)))
            .collect::<TResult<_>>()?;
        let mut span = tfe_profile::span("fused", || {
            format!("fused_tiled:{}op:{}tile", self.steps.len(), n.div_ceil(tiler.tile()))
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
        // The registers, then one buffer per operand of a step for the
        // inputs that are gathered.
        tiler.run_with_scratch(&mut out, self.num_bufs + 2, |start, out_tile, bufs| {
            self.run_tile(&srcs, bufs, out_tile, start)
        });
        TensorData::from_vec(out, shape)
    }

    /// Run every step over one tile: `out_tile` covers absolute elements
    /// `start .. start + out_tile.len()` of the flattened tensors. `bufs`
    /// holds the registers and two buffers an input is gathered into when
    /// it is read, one for each operand of a step.
    fn run_tile(
        &self,
        srcs: &[Operand<'_, f32>],
        bufs: &mut [Vec<f32>],
        out_tile: &mut [f32],
        start: usize,
    ) {
        let len = out_tile.len();
        let (regs, gather) = bufs.split_at_mut(self.num_bufs);
        let [ga, gb] = gather else { unreachable!("two gather buffers") };
        fn resolve<'a>(
            slot: Slot,
            srcs: &'a [Operand<'_, f32>],
            regs: &'a [Vec<f32>],
            gather: &'a mut Vec<f32>,
            start: usize,
            len: usize,
        ) -> &'a [f32] {
            match slot {
                Slot::In(k) => srcs[k].read(start, len, gather),
                Slot::Buf(s) => &regs[s][..len],
                Slot::Out => unreachable!("the output tile is never a source"),
            }
        }
        macro_rules! apply {
            ($step:expr, $dst:expr) => {
                match *$step {
                    Step::Unary { op, a, .. } => {
                        lanes::unary_f32(op, resolve(a, srcs, regs, ga, start, len), $dst)
                    }
                    Step::Binary { op, a, b, .. } => lanes::binary_f32(
                        op,
                        resolve(a, srcs, regs, ga, start, len),
                        resolve(b, srcs, regs, gb, start, len),
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
                    let mut buf = std::mem::take(&mut regs[s]);
                    apply!(step, &mut buf[..len]);
                    regs[s] = buf;
                }
                Slot::In(_) => unreachable!("inputs are never written"),
            }
        }
        // Degenerate programs (output read back later, or output == input)
        // finish with one tile-local copy.
        match self.out {
            Slot::Out => {}
            Slot::In(k) => out_tile.copy_from_slice(srcs[k].read(start, len, ga)),
            Slot::Buf(s) => out_tile.copy_from_slice(&regs[s][..len]),
        }
    }
}

fn metric_fused_elements(n: u64) {
    tfe_metrics::static_counter!(
        "tfe_fused_tiled_elements_total",
        "Elements processed by the fused tile executor"
    )
    .add(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::elementwise::{binary, unary};

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
                                                            // The largest index text can spell: an error, not an overflow.
        let e = Program::decode("in:18446744073709551615|0").unwrap_err();
        assert!(e.contains("reads input 18446744073709551615"), "{e}");
    }

    #[test]
    fn eval_broadcasts_a_scalar() {
        let p = Program {
            instrs: vec![Instr::Input(0), Instr::Input(1), Instr::Binary(BinaryOp::Mul, 0, 1)],
            output: 2,
        };
        let a = TensorData::from_vec(vec![1.0f32, 2.0], Shape::from([2, 1])).unwrap();
        let b = TensorData::scalar(10.0f32);
        let r = p.compile().eval(&[&a, &b]).unwrap();
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
    fn compiled_matches_the_unfused_kernels_bitwise_across_tile_boundaries() {
        let c = relu_of_sum().compile();
        // Odd lengths around the tile and lane widths.
        for n in [0usize, 1, 7, 2048, 2049, 4096, 4097, 10_000] {
            let a = tensor(f32s(n));
            let b = tensor(f32s(n).iter().map(|x| -x * 0.5).collect());
            let tiled = c.eval(&[&a, &b]).unwrap();
            let unfused = unary(&binary(&a, &b, BinaryOp::Add).unwrap(), UnaryOp::Relu).unwrap();
            assert_eq!(bits(&tiled), bits(&unfused), "n = {n}");
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
        let r2 = unary(&unary(&a, UnaryOp::Neg).unwrap(), UnaryOp::Square).unwrap();
        let r4 = unary(&binary(&r2, &a, BinaryOp::Add).unwrap(), UnaryOp::Relu).unwrap();
        let unfused = unary(&binary(&r4, &r2, BinaryOp::Mul).unwrap(), UnaryOp::Sigmoid).unwrap();
        assert_eq!(bits(&tiled), bits(&unfused));
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
    fn compiled_missing_input_is_error() {
        let c = Program::decode("in:0;in:1;b:add:0:1|2").unwrap().compile();
        let a = tensor(f32s(4));
        assert!(matches!(c.eval(&[&a]), Err(TensorError::InvalidArgument(_))));
    }
}
