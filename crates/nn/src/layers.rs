//! Neural-network layers built on the mode-agnostic op API — the same
//! layer code runs imperatively or under `function` tracing, which is the
//! paper's §6 claim ("the code used to generate these benchmarks all rely
//! on the same Model class").

use crate::init::Initializer;
use std::sync::Arc;
use tfe_runtime::{api, Result, RuntimeError, Tensor, Variable};
use tfe_state::{Trackable, TrackableGroup};
use tfe_tensor::{DType, Shape, TensorData};

/// A neural-network layer: a stateful callable over tensors.
pub trait Layer: Send + Sync {
    /// Apply the layer. `training` selects train-time behavior (dropout,
    /// batch-norm statistics).
    ///
    /// # Errors
    /// Shape/dtype mismatches or execution failures.
    fn call(&self, x: &Tensor, training: bool) -> Result<Tensor>;

    /// The layer's trainable variables.
    fn variables(&self) -> Vec<Variable>;

    /// The layer as a checkpointable object graph node.
    fn trackable(&self) -> Arc<dyn Trackable>;
}

/// Activation functions usable inside layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation.
    Linear,
    /// max(x, 0)
    Relu,
    /// tanh(x)
    Tanh,
    /// logistic sigmoid
    Sigmoid,
    /// ln(1+e^x)
    Softplus,
}

impl Activation {
    /// Apply to a tensor.
    ///
    /// # Errors
    /// Execution failures.
    pub fn apply(self, x: &Tensor) -> Result<Tensor> {
        match self {
            Activation::Linear => Ok(x.clone()),
            Activation::Relu => api::relu(x),
            Activation::Tanh => api::tanh(x),
            Activation::Sigmoid => api::sigmoid(x),
            Activation::Softplus => api::softplus(x),
        }
    }
}

/// Fully-connected layer: `activation(x @ W + b)`.
pub struct Dense {
    kernel: Variable,
    bias: Variable,
    activation: Activation,
}

impl Dense {
    /// Create with the given fan-in/fan-out and a Glorot-style initializer.
    pub fn new(
        inputs: usize,
        units: usize,
        activation: Activation,
        init: &mut Initializer,
    ) -> Dense {
        Dense {
            kernel: Variable::new(init.glorot(DType::F32, &[inputs, units])),
            bias: Variable::new(TensorData::zeros(DType::F32, [units])),
            activation,
        }
    }

    /// The kernel variable.
    pub fn kernel(&self) -> &Variable {
        &self.kernel
    }

    /// The bias variable.
    pub fn bias(&self) -> &Variable {
        &self.bias
    }
}

impl Layer for Dense {
    fn call(&self, x: &Tensor, _training: bool) -> Result<Tensor> {
        let w = self.kernel.read()?;
        let b = self.bias.read()?;
        let y = api::add(&api::matmul(x, &w)?, &b)?;
        self.activation.apply(&y)
    }

    fn variables(&self) -> Vec<Variable> {
        vec![self.kernel.clone(), self.bias.clone()]
    }

    fn trackable(&self) -> Arc<dyn Trackable> {
        Arc::new(
            TrackableGroup::new()
                .with_variable("kernel", &self.kernel)
                .with_variable("bias", &self.bias),
        )
    }
}

/// 2-D convolution layer (NHWC input, HWIO filter).
pub struct Conv2d {
    filter: Variable,
    bias: Option<Variable>,
    strides: (usize, usize),
    padding: &'static str,
    activation: Activation,
}

impl Conv2d {
    /// Create a conv layer.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: (usize, usize),
        strides: (usize, usize),
        padding: &'static str,
        activation: Activation,
        use_bias: bool,
        init: &mut Initializer,
    ) -> Conv2d {
        Conv2d {
            filter: Variable::new(init.he(
                DType::F32,
                &[kernel.0, kernel.1, in_channels, out_channels],
                kernel.0 * kernel.1 * in_channels,
            )),
            bias: use_bias.then(|| Variable::new(TensorData::zeros(DType::F32, [out_channels]))),
            strides,
            padding,
            activation,
        }
    }
}

impl Layer for Conv2d {
    fn call(&self, x: &Tensor, _training: bool) -> Result<Tensor> {
        let f = self.filter.read()?;
        let mut y = api::conv2d(x, &f, self.strides, self.padding)?;
        if let Some(b) = &self.bias {
            y = api::add(&y, &b.read()?)?;
        }
        self.activation.apply(&y)
    }

    fn variables(&self) -> Vec<Variable> {
        let mut v = vec![self.filter.clone()];
        if let Some(b) = &self.bias {
            v.push(b.clone());
        }
        v
    }

    fn trackable(&self) -> Arc<dyn Trackable> {
        let mut g = TrackableGroup::new().with_variable("filter", &self.filter);
        if let Some(b) = &self.bias {
            g = g.with_variable("bias", b);
        }
        Arc::new(g)
    }
}

/// Batch normalization over the channel (last) axis.
///
/// Uses batch statistics while training and exponential moving averages at
/// inference, stored in non-trainable variables.
pub struct BatchNorm {
    gamma: Variable,
    beta: Variable,
    moving_mean: Variable,
    moving_var: Variable,
    momentum: f64,
    epsilon: f64,
}

impl BatchNorm {
    /// Create for `channels` features.
    pub fn new(channels: usize) -> BatchNorm {
        BatchNorm {
            gamma: Variable::new(TensorData::ones(DType::F32, [channels])),
            beta: Variable::new(TensorData::zeros(DType::F32, [channels])),
            moving_mean: Variable::new(TensorData::zeros(DType::F32, [channels])),
            moving_var: Variable::new(TensorData::ones(DType::F32, [channels])),
            momentum: 0.99,
            epsilon: 1e-5,
        }
    }

    fn normalize(&self, x: &Tensor, mean: &Tensor, var: &Tensor) -> Result<Tensor> {
        let eps =
            api::constant_data(TensorData::fill_f64(x.dtype(), Shape::scalar(), self.epsilon));
        let inv = api::rsqrt(&api::add(var, &eps)?)?;
        let centered = api::sub(x, mean)?;
        let g = self.gamma.read()?;
        let b = self.beta.read()?;
        api::add(&api::mul(&api::mul(&centered, &inv)?, &g)?, &b)
    }
}

impl Layer for BatchNorm {
    fn call(&self, x: &Tensor, training: bool) -> Result<Tensor> {
        let rank = x.rank() as i64;
        let axes: Vec<i64> = (0..rank - 1).collect();
        if training {
            let mean = api::reduce_mean(x, &axes, false)?;
            let centered = api::sub(x, &mean)?;
            let var = api::reduce_mean(&api::square(&centered)?, &axes, false)?;
            // Update moving statistics (stateful ops; they stage fine).
            let one_minus = api::constant_data(TensorData::fill_f64(
                x.dtype(),
                Shape::scalar(),
                1.0 - self.momentum,
            ));
            let mm = self.moving_mean.read()?;
            self.moving_mean.assign_sub(&api::mul(&api::sub(&mm, &mean)?, &one_minus)?)?;
            let mv = self.moving_var.read()?;
            self.moving_var.assign_sub(&api::mul(&api::sub(&mv, &var)?, &one_minus)?)?;
            self.normalize(x, &mean, &var)
        } else {
            let mean = self.moving_mean.read()?;
            let var = self.moving_var.read()?;
            self.normalize(x, &mean, &var)
        }
    }

    fn variables(&self) -> Vec<Variable> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn trackable(&self) -> Arc<dyn Trackable> {
        Arc::new(
            TrackableGroup::new()
                .with_variable("gamma", &self.gamma)
                .with_variable("beta", &self.beta)
                .with_variable("moving_mean", &self.moving_mean)
                .with_variable("moving_variance", &self.moving_var),
        )
    }
}

/// Max-pooling layer.
pub struct MaxPool2d {
    ksize: (usize, usize),
    strides: (usize, usize),
    padding: &'static str,
}

impl MaxPool2d {
    /// Create a pool layer.
    pub fn new(ksize: (usize, usize), strides: (usize, usize), padding: &'static str) -> MaxPool2d {
        MaxPool2d { ksize, strides, padding }
    }
}

impl Layer for MaxPool2d {
    fn call(&self, x: &Tensor, _training: bool) -> Result<Tensor> {
        api::max_pool(x, self.ksize, self.strides, self.padding)
    }

    fn variables(&self) -> Vec<Variable> {
        Vec::new()
    }

    fn trackable(&self) -> Arc<dyn Trackable> {
        Arc::new(TrackableGroup::new())
    }
}

/// Global average pooling over the spatial axes of NHWC input.
pub struct GlobalAvgPool;

impl Layer for GlobalAvgPool {
    fn call(&self, x: &Tensor, _training: bool) -> Result<Tensor> {
        api::reduce_mean(x, &[1, 2], false)
    }

    fn variables(&self) -> Vec<Variable> {
        Vec::new()
    }

    fn trackable(&self) -> Arc<dyn Trackable> {
        Arc::new(TrackableGroup::new())
    }
}

/// Dropout layer (active only in training mode).
pub struct Dropout {
    keep_prob: f64,
}

impl Dropout {
    /// Create with the probability of *keeping* an activation.
    pub fn new(keep_prob: f64) -> Dropout {
        Dropout { keep_prob }
    }
}

impl Layer for Dropout {
    fn call(&self, x: &Tensor, training: bool) -> Result<Tensor> {
        if training {
            api::dropout(x, self.keep_prob)
        } else {
            Ok(x.clone())
        }
    }

    fn variables(&self) -> Vec<Variable> {
        Vec::new()
    }

    fn trackable(&self) -> Arc<dyn Trackable> {
        Arc::new(TrackableGroup::new())
    }
}

/// Flatten everything but the leading (batch) axis.
pub struct Flatten;

impl Layer for Flatten {
    fn call(&self, x: &Tensor, _training: bool) -> Result<Tensor> {
        let dims = x.sym_shape();
        let batch = dims.dims()[0].map(|d| d as i64).unwrap_or(-1);
        if batch == -1 {
            api::reshape(x, &[-1, flat_inner(&dims)?])
        } else {
            api::reshape(x, &[batch, -1])
        }
    }

    fn variables(&self) -> Vec<Variable> {
        Vec::new()
    }

    fn trackable(&self) -> Arc<dyn Trackable> {
        Arc::new(TrackableGroup::new())
    }
}

fn flat_inner(dims: &tfe_ops::SymShape) -> Result<i64> {
    dims.dims()[1..].iter().try_fold(1i64, |acc, d| d.map(|v| acc * v as i64)).ok_or_else(|| {
        RuntimeError::SymbolicValue("flatten requires known non-batch dimensions".to_string())
    })
}

/// A sequential stack of layers.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty stack.
    pub fn new() -> Sequential {
        Sequential { layers: Vec::new() }
    }

    /// Append a layer.
    pub fn push(mut self, layer: impl Layer + 'static) -> Sequential {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Default for Sequential {
    fn default() -> Sequential {
        Sequential::new()
    }
}

impl Layer for Sequential {
    fn call(&self, x: &Tensor, training: bool) -> Result<Tensor> {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.call(&cur, training)?;
        }
        Ok(cur)
    }

    fn variables(&self) -> Vec<Variable> {
        self.layers.iter().flat_map(|l| l.variables()).collect()
    }

    fn trackable(&self) -> Arc<dyn Trackable> {
        let mut g = TrackableGroup::new();
        for (i, layer) in self.layers.iter().enumerate() {
            g = g.with_node(&format!("layer{i}"), layer.trackable());
        }
        Arc::new(g)
    }
}

/// Count total parameters across a layer's variables.
pub fn num_parameters(layer: &dyn Layer) -> usize {
    layer.variables().iter().map(|v| v.shape().num_elements()).sum()
}

/// The paper's Listing 3 model: `out(softplus(x * v))` with a dense layer —
/// used by the checkpointing tests and docs.
pub struct Net {
    /// The scalar variable `v`.
    pub v: Variable,
    /// The dense output layer.
    pub out: Dense,
}

impl Net {
    /// Build with a fresh initializer.
    pub fn new(init: &mut Initializer) -> Net {
        Net {
            v: Variable::new(TensorData::scalar(1.0f32)),
            out: Dense::new(1, 1, Activation::Linear, init),
        }
    }
}

impl Layer for Net {
    fn call(&self, x: &Tensor, training: bool) -> Result<Tensor> {
        let v = self.v.read()?;
        let h = api::softplus(&api::mul(x, &v)?)?;
        self.out.call(&h, training)
    }

    fn variables(&self) -> Vec<Variable> {
        let mut vars = vec![self.v.clone()];
        vars.extend(self.out.variables());
        vars
    }

    fn trackable(&self) -> Arc<dyn Trackable> {
        Arc::new(
            TrackableGroup::new()
                .with_variable("v", &self.v)
                .with_node("out", self.out.trackable()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init() -> Initializer {
        Initializer::seeded(7)
    }

    #[test]
    fn dense_shapes_and_variables() {
        let d = Dense::new(4, 3, Activation::Relu, &mut init());
        let x = api::zeros(DType::F32, [2, 4]);
        let y = d.call(&x, false).unwrap();
        assert_eq!(y.shape().unwrap().dims(), &[2, 3]);
        assert_eq!(d.variables().len(), 2);
        assert_eq!(num_parameters(&d), 4 * 3 + 3);
    }

    #[test]
    fn conv_and_pool_shapes() {
        let c = Conv2d::new(3, 8, (3, 3), (1, 1), "SAME", Activation::Relu, true, &mut init());
        let x = api::zeros(DType::F32, [2, 8, 8, 3]);
        let y = c.call(&x, false).unwrap();
        assert_eq!(y.shape().unwrap().dims(), &[2, 8, 8, 8]);
        let p = MaxPool2d::new((2, 2), (2, 2), "VALID");
        let z = p.call(&y, false).unwrap();
        assert_eq!(z.shape().unwrap().dims(), &[2, 4, 4, 8]);
        let g = GlobalAvgPool;
        let q = g.call(&z, false).unwrap();
        assert_eq!(q.shape().unwrap().dims(), &[2, 8]);
    }

    #[test]
    fn batchnorm_normalizes_in_training() {
        let bn = BatchNorm::new(2);
        let x = api::constant(vec![1.0f32, 10.0, 3.0, 30.0, 5.0, 50.0, 7.0, 70.0], [4, 2]).unwrap();
        let y = bn.call(&x, true).unwrap();
        let v = y.to_f64_vec().unwrap();
        // Each channel should be ~zero-mean.
        let c0: f64 = v.iter().step_by(2).sum::<f64>() / 4.0;
        let c1: f64 = v.iter().skip(1).step_by(2).sum::<f64>() / 4.0;
        assert!(c0.abs() < 1e-5);
        assert!(c1.abs() < 1e-5);
        // Moving stats moved toward batch stats.
        assert!(bn.moving_mean.peek().to_f64_vec()[0] > 0.0);
    }

    #[test]
    fn batchnorm_inference_uses_moving_stats() {
        let bn = BatchNorm::new(1);
        let x = api::constant(vec![5.0f32, 5.0], [2, 1]).unwrap();
        // With default moving stats (mean 0, var 1): y ~= gamma*5 + beta = 5.
        let y = bn.call(&x, false).unwrap();
        assert!((y.to_f64_vec().unwrap()[0] - 5.0).abs() < 1e-3);
    }

    #[test]
    fn dropout_modes() {
        let _rng = crate::rng_lock();
        tfe_runtime::context::set_random_seed(3);
        let d = Dropout::new(0.5);
        let x = api::ones(DType::F32, [100]);
        let train = d.call(&x, true).unwrap();
        assert!(train.to_f64_vec().unwrap().contains(&0.0));
        let infer = d.call(&x, false).unwrap();
        assert_eq!(infer.to_f64_vec().unwrap(), vec![1.0; 100]);
    }

    #[test]
    fn flatten_and_sequential() {
        let model = Sequential::new()
            .push(Flatten)
            .push(Dense::new(12, 4, Activation::Relu, &mut init()))
            .push(Dense::new(4, 2, Activation::Linear, &mut init()));
        assert_eq!(model.len(), 3);
        let x = api::zeros(DType::F32, [5, 2, 3, 2]);
        let y = model.call(&x, false).unwrap();
        assert_eq!(y.shape().unwrap().dims(), &[5, 2]);
        assert_eq!(model.variables().len(), 4);
    }

    #[test]
    fn listing3_net_runs_and_tracks() {
        let net = Net::new(&mut init());
        let x = api::constant(vec![1.0f32, -2.0], [2, 1]).unwrap();
        let y = net.call(&x, false).unwrap();
        assert_eq!(y.shape().unwrap().dims(), &[2, 1]);
        // Trackable graph has edges v and out{kernel,bias} like Figure 1.
        let snapshot = tfe_state::checkpoint::save_to_value(net.trackable().as_ref());
        let text = snapshot.to_json();
        assert!(text.contains("\"v\""));
        assert!(text.contains("\"out\""));
        assert!(text.contains("\"kernel\""));
        assert!(text.contains("\"bias\""));
    }

    #[test]
    fn layers_work_under_tracing() {
        let d = Arc::new(Dense::new(3, 2, Activation::Relu, &mut init()));
        let f = {
            let d = d.clone();
            tfe_core::function1("dense_fn", move |x| d.call(x, false))
        };
        let x = api::ones(DType::F32, [1, 3]);
        let eager = d.call(&x, false).unwrap();
        let staged = f.call1(&x).unwrap();
        assert_eq!(eager.to_f64_vec().unwrap(), staged.to_f64_vec().unwrap());
    }
}
