//! # ff-models
//!
//! The DNN architectures evaluated by the FF-INT8 paper (Table II): a
//! multi-layer perceptron, ResNet-18, MobileNetV2 and EfficientNet-B0.
//!
//! Each architecture exists in two forms:
//!
//! * a **full-scale [`ModelSpec`]** describing every layer's dimensions.
//!   Parameter counts reproduce the paper's Table II; the analytic cost model
//!   in `ff-edge` consumes these specs to regenerate Table IV and the
//!   time/energy/memory columns of Table V.
//! * a **runnable scaled-down builder** returning an `ff_nn::Sequential`
//!   network small enough to train on a CPU within the test budget, used by
//!   the paper-claim tests (Table I, Figs. 2, 3 and 6) and the accuracy
//!   column of Table V.
//!
//! # Examples
//!
//! ```
//! use ff_models::specs;
//!
//! let mlp = specs::mlp_spec(&[1000, 1000]);
//! // Paper Table II: 1.79M parameters for the 2-hidden-layer MLP.
//! assert!((mlp.param_count() as f64 / 1.0e6 - 1.79).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod specs;

pub use builders::{small_cnn, small_mlp, small_resnet, SmallModelConfig};
pub use specs::{LayerSpec, ModelSpec};
