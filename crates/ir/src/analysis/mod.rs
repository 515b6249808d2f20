//! CFG analyses: generic graphs, dominators, loops, liveness.

pub mod dom;
pub mod graph;
pub mod liveness;
pub mod loops;

pub use dom::{BlockDoms, DomTree};
pub use graph::Graph;
pub use liveness::{Liveness, RegUniverse};
pub use loops::{sccs, CyclicRegion, LoopInfo, NaturalLoop};
