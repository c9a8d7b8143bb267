//! [`kernel_bench`], the tracked throughput measurement behind
//! `bpsim bench`: the fused-vs-unfused predictor race and the batched
//! three-C race.

pub mod kernel_bench;
