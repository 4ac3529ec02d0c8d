//! Columnar in-memory execution engine for the algebra DAG — the stand-in
//! for the paper's MonetDB back-end.
//!
//! Design goals mirror what makes the paper's cost model tick:
//!
//! * the narrow `iter|pos|item` tables are stored column-wise
//!   ([`Column`]), with `Arc`-shared columns so projection/rename is free
//!   (MonetDB "operates on table descriptors rather than individual rows");
//! * `#` ([`exrquy_algebra::Op::RowId`]) materializes a dense integer
//!   column in one `memcpy`-class pass — "negligible cost or even free";
//! * `%` ([`exrquy_algebra::Op::RowNum`]) performs a real sort — the
//!   blocking operator whose elimination the whole paper is about;
//! * the step operator `⬡` is evaluated with staircase join
//!   (`exrquy-xml::axis`), per iteration group and fragment;
//! * every operator's wall-clock time is recorded per operator *kind*
//!   ([`Profile`]), which is exactly the granularity of the paper's
//!   Table 2 breakdown.
//!
//! Execution runs the shared DAG lowered into a flattened slot program:
//! an operator reachable via ten paths owns one slot and is evaluated
//! once (§3's sharing).

pub mod bits;
pub mod column;
pub mod eval;
pub mod funs;
pub mod item;
mod kernels;
mod par;
pub mod profile;
pub mod table;
mod vec;

pub use bits::BitVec;
pub use column::{Column, ColumnBuilder, ColumnError};
pub use eval::{Engine, EngineOptions, EvalError, StepAlgo};
pub use item::Item;
pub use profile::{Profile, VecStats};
pub use table::{ColView, SelVec, Table};
