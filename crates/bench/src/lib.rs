//! Experiment harness for the BLEND reproduction.
//!
//! One module (and one binary) per table/figure of the paper's evaluation
//! section; see DESIGN.md §5 for the experiment index and EXPERIMENTS.md
//! for paper-vs-measured results. Every experiment accepts a scale factor
//! from the `BLEND_SCALE` environment variable so the same harness runs as
//! a quick smoke test or a longer, more faithful sweep.

pub mod data;
pub mod federated;
pub mod harness;
pub mod loc;
pub mod user_study;

pub mod experiments {
    //! One submodule per paper table/figure.
    pub mod fig5;
    pub mod fig6;
    pub mod fig7;
    pub mod table2;
    pub mod table3;
    pub mod table4;
    pub mod table5;
    pub mod table6;
    pub mod table7;
    pub mod table8;
}

pub use data::synthetic_rows;
pub use harness::{obs_overhead_ns, scale_from_env, simd_ab_ns, write_bench_json, Timer};
