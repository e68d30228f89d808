//@path: crates/workloads/src/probe.rs
use audb_native::sort_native;
pub fn run() {
    let a = sort_native();
    let b = rewr_sort();
    let c = window_columns_native();
    (a, b, c)
}
