//! Residual block composed of arbitrary inner layers.

use crate::layer::{ForwardMode, Layer, ParamRefMut};
use crate::Result;
use ff_tensor::Tensor;

/// A residual block `y = relu(main(x) + shortcut(x))`.
///
/// `main` is an arbitrary stack of layers; `shortcut` is either the identity
/// (empty) or a projection stack (e.g. a 1×1 strided convolution) when the
/// main path changes shape. This is the structure the FF-INT8 paper singles
/// out as problematic for the vanilla Forward-Forward algorithm (Section V-B,
/// Fig. 6b) and the reason the look-ahead scheme exists.
///
/// # Examples
///
/// ```
/// use ff_nn::{Conv2d, ForwardMode, Layer, ResidualBlock};
/// use ff_tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), ff_nn::NnError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let main: Vec<Box<dyn Layer>> = vec![
///     Box::new(Conv2d::new(4, 4, 3, 1, 1, true, &mut rng)?),
///     Box::new(Conv2d::new(4, 4, 3, 1, 1, false, &mut rng)?),
/// ];
/// let mut block = ResidualBlock::new(main, Vec::new());
/// let y = block.forward(&Tensor::ones(&[1, 4, 6, 6]), ForwardMode::Fp32)?;
/// assert_eq!(y.shape(), &[1, 4, 6, 6]);
/// # Ok(())
/// # }
/// ```
pub struct ResidualBlock {
    main: Vec<Box<dyn Layer>>,
    shortcut: Vec<Box<dyn Layer>>,
    cached_mask: Option<Tensor>,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidualBlock")
            .field("main_layers", &self.main.len())
            .field("shortcut_layers", &self.shortcut.len())
            .finish()
    }
}

impl ResidualBlock {
    /// Creates a residual block. An empty `shortcut` means an identity skip.
    pub fn new(main: Vec<Box<dyn Layer>>, shortcut: Vec<Box<dyn Layer>>) -> Self {
        ResidualBlock {
            main,
            shortcut,
            cached_mask: None,
        }
    }

    /// Number of layers on the main path.
    pub fn main_depth(&self) -> usize {
        self.main.len()
    }

    /// `true` when the skip connection is a projection rather than identity.
    pub fn has_projection(&self) -> bool {
        !self.shortcut.is_empty()
    }

    /// `grad_output` gated by the block's output ReLU.
    fn masked(&self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self
            .cached_mask
            .as_ref()
            .ok_or(crate::NnError::MissingForwardState {
                layer: "residual_block",
            })?;
        Ok(grad_output.mul_elem(mask)?)
    }
}

impl Layer for ResidualBlock {
    fn name(&self) -> &'static str {
        "residual_block"
    }

    fn forward(&mut self, input: &Tensor, mode: ForwardMode) -> Result<Tensor> {
        let mut main_out = input.clone();
        for layer in &mut self.main {
            main_out = layer.forward(&main_out, mode)?;
        }
        let mut skip_out = input.clone();
        for layer in &mut self.shortcut {
            skip_out = layer.forward(&skip_out, mode)?;
        }
        let pre = main_out.add(&skip_out)?;
        let mask = pre.relu_grad_mask();
        let out = pre.relu();
        self.cached_mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut grad = self.masked(grad_output)?;
        // main path
        let mut grad_main = grad.clone();
        for layer in self.main.iter_mut().rev() {
            grad_main = layer.backward(&grad_main)?;
        }
        // shortcut path
        for layer in self.shortcut.iter_mut().rev() {
            grad = layer.backward(&grad)?;
        }
        grad_main.add_assign(&grad)?;
        Ok(grad_main)
    }

    /// Nobody reads the gradient that leaves the first layer of either
    /// path, so those two take `backward_params_only`; everything downstream
    /// of them runs exactly as in `backward`, main path first.
    fn backward_params_only(&mut self, grad_output: &Tensor) -> Result<()> {
        let grad = self.masked(grad_output)?;
        for path in [&mut self.main, &mut self.shortcut] {
            let Some((first, rest)) = path.split_first_mut() else {
                continue;
            };
            let mut relayed: Option<Tensor> = None;
            for layer in rest.iter_mut().rev() {
                relayed = Some(layer.backward(relayed.as_ref().unwrap_or(&grad))?);
            }
            first.backward_params_only(relayed.as_ref().unwrap_or(&grad))?;
        }
        Ok(())
    }

    fn params_mut(&mut self) -> Vec<ParamRefMut<'_>> {
        let mut params = Vec::new();
        for layer in &mut self.main {
            params.extend(layer.params_mut());
        }
        for layer in &mut self.shortcut {
            params.extend(layer.params_mut());
        }
        params
    }

    fn param_count(&self) -> usize {
        self.main
            .iter()
            .map(|l| l.param_count())
            .chain(self.shortcut.iter().map(|l| l.param_count()))
            .sum()
    }

    fn forward_macs(&self, batch: usize) -> u64 {
        self.main
            .iter()
            .map(|l| l.forward_macs(batch))
            .chain(self.shortcut.iter().map(|l| l.forward_macs(batch)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Dense};
    use ff_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn identity_skip_forward_shape() {
        let mut r = rng();
        let main: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(2, 2, 3, 1, 1, true, &mut r).unwrap()),
            Box::new(Conv2d::new(2, 2, 3, 1, 1, false, &mut r).unwrap()),
        ];
        let mut block = ResidualBlock::new(main, Vec::new());
        let y = block
            .forward(&Tensor::ones(&[1, 2, 5, 5]), ForwardMode::Fp32)
            .unwrap();
        assert_eq!(y.shape(), &[1, 2, 5, 5]);
        assert!(!block.has_projection());
        assert_eq!(block.main_depth(), 2);
    }

    #[test]
    fn projection_skip_changes_shape() {
        let mut r = rng();
        let main: Vec<Box<dyn Layer>> =
            vec![Box::new(Conv2d::new(2, 4, 3, 2, 1, false, &mut r).unwrap())];
        let shortcut: Vec<Box<dyn Layer>> =
            vec![Box::new(Conv2d::new(2, 4, 1, 2, 0, false, &mut r).unwrap())];
        let mut block = ResidualBlock::new(main, shortcut);
        let y = block
            .forward(&Tensor::ones(&[1, 2, 6, 6]), ForwardMode::Fp32)
            .unwrap();
        assert_eq!(y.shape(), &[1, 4, 3, 3]);
        assert!(block.has_projection());
    }

    #[test]
    fn backward_propagates_through_both_paths() {
        let mut r = rng();
        let main: Vec<Box<dyn Layer>> = vec![Box::new(Dense::new(4, 4, true, &mut r))];
        let mut block = ResidualBlock::new(main, Vec::new());
        let x = init::uniform(&[2, 4], -1.0, 1.0, &mut r);
        let y = block.forward(&x, ForwardMode::Fp32).unwrap();
        let gi = block.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(gi.shape(), x.shape());
        // identity path contributes at least the masked gradient
        assert!(gi.max_abs() > 0.0);
        assert!(block.param_count() > 0);
    }

    #[test]
    fn skip_gradient_matches_finite_difference() {
        let mut r = rng();
        let main: Vec<Box<dyn Layer>> = vec![Box::new(Dense::new(3, 3, false, &mut r))];
        let mut block = ResidualBlock::new(main, Vec::new());
        let x = init::uniform(&[1, 3], -0.5, 0.5, &mut r);
        let y = block.forward(&x, ForwardMode::Fp32).unwrap();
        let gi = block.backward(&Tensor::ones(y.shape())).unwrap();
        let idx = 1;
        let eps = 1e-3f32;
        let mut xp = x.clone();
        xp.data_mut()[idx] += eps;
        let mut xm = x.clone();
        xm.data_mut()[idx] -= eps;
        let lp = block.forward(&xp, ForwardMode::Fp32).unwrap().sum();
        let lm = block.forward(&xm, ForwardMode::Fp32).unwrap().sum();
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((gi.data()[idx] - numeric).abs() < 2e-2);
    }

    #[test]
    fn backward_params_only_matches_backward_on_parameter_gradients() {
        // A fixed seed makes every `build()` the same block.
        let block = |projection: bool| {
            move || {
                let mut r = rng();
                let (out_ch, stride) = if projection { (4, 2) } else { (2, 1) };
                let main: Vec<Box<dyn Layer>> = vec![
                    Box::new(Conv2d::new(2, out_ch, 3, stride, 1, true, &mut r).unwrap()),
                    Box::new(Conv2d::new(out_ch, out_ch, 3, 1, 1, false, &mut r).unwrap()),
                ];
                let shortcut: Vec<Box<dyn Layer>> = if projection {
                    vec![Box::new(
                        Conv2d::new(2, out_ch, 1, stride, 0, false, &mut r).unwrap(),
                    )]
                } else {
                    Vec::new()
                };
                ResidualBlock::new(main, shortcut)
            }
        };
        let mut r = rng();
        let x = init::uniform(&[2, 2, 6, 6], -1.0, 1.0, &mut r);
        for (projection, out_shape) in [(false, [2, 2, 6, 6]), (true, [2, 4, 3, 3])] {
            let g1 = init::uniform(&out_shape, -1.0, 1.0, &mut r);
            let g2 = init::uniform(&out_shape, -0.1, 0.1, &mut r);
            crate::layer::assert_params_only_matches_backward(block(projection), &x, &[&g1, &g2]);
        }
    }

    #[test]
    fn backward_requires_forward() {
        let mut block = ResidualBlock::new(Vec::new(), Vec::new());
        assert!(block.backward(&Tensor::ones(&[1, 2])).is_err());
    }
}
