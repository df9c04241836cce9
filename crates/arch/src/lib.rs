//! `reason-arch` — the REASON hardware architecture model (paper Sec. V).
//!
//! REASON is a reconfigurable co-processor built from *tree-structured
//! processing elements*: each PE is a bidirectional binary tree of
//! two-input compute nodes fed by a banked register file through a Benes
//! input crossbar, with a watched-literal memory unit and a BCP FIFO for
//! symbolic (SAT) execution. This crate models that microarchitecture at
//! cycle granularity and layers an event-based energy/area model on top,
//! calibrated to the paper's physical design (TSMC 28 nm, 6 mm², 2.12 W,
//! 1.25 MB SRAM, 12 PEs / 80 tree nodes, 500 MHz — Fig. 10 / Table III).
//!
//! Modules:
//!
//! * [`config`] — architectural parameters (tree depth D, banks B,
//!   registers per bank R, PE count) with the paper's chosen design point
//!   and ablation switches.
//! * [`energy`] — per-event energy constants, technology scaling
//!   (28 → 12 → 8 nm, reproducing Table III), power/area reporting.
//! * [`benes`] — a real Benes network: recursive construction and the
//!   looping route-assignment algorithm, so operand-to-leaf routing is
//!   *computed*, not assumed (paper Sec. V-C "flexible interconnect").
//! * [`tree`] — the reconfigurable tree engine: broadcast and reduction
//!   pipelines with per-level latency (paper Fig. 8, Fig. 9).
//! * [`mem`] — banked SRAM/register-file model with dual-port conflict
//!   accounting, scratchpad, and DMA/prefetch latency.
//! * [`vliw`] — the VLIW program format emitted by `reason-compiler` and
//!   a cycle-accurate executor (functional + timing + energy) for
//!   probabilistic/DAG mode.
//! * [`bcp`] — symbolic mode: the watched-literal unit over a linked-list
//!   SRAM layout, the BCP FIFO, and a timing engine that replays CDCL
//!   solver events through the hardware pipeline (paper Fig. 6(e), Fig. 9).
//! * [`noc`] — interconnect scalability models (tree vs. mesh vs.
//!   all-to-one) behind Fig. 8.
//! * [`dse`] — design-space exploration over (D, B, R) as in Sec. V-F.

pub mod bcp;
pub mod benes;
pub mod config;
pub mod dse;
pub mod energy;
pub mod mem;
pub mod noc;
pub mod tree;
pub mod vliw;

pub use bcp::{BcpFifo, SymbolicEngine, SymbolicReport, WatchedLiteralUnit};
pub use benes::{BenesNetwork, BenesRouting, RouteError};
pub use config::{AblationConfig, ArchConfig};
pub use dse::{explore_design_space, DesignPoint};
pub use energy::{EnergyEvents, EnergyModel, EnergyReport, TechNode};
pub use mem::{BankAddr, MemoryStats, RegisterBanks};
pub use noc::{broadcast_latency_cycles, noc_latency_breakdown, NocTopology};
pub use tree::{TreeEngine, TreeOp};
pub use vliw::{BlockNode, BlockOperand, ExecutionReport, Instruction, VliwExecutor, VliwProgram};
