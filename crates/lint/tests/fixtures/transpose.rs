//@path: crates/engine/src/exec/run.rs
pub fn after_breaker(rows: AuRelation) -> AuColumns {
    rows.to_columns()
}
pub fn closing(cols: AuColumns) -> AuRelation {
    cols.to_rows()
}
pub fn reference_fallback(cols: &AuColumns) -> AuRelation {
    // lint: allow(no-transpose-between-operators) -- Def. 3 is defined over rows
    window_ref(&cols.to_rows())
}
#[cfg(test)]
mod tests {
    fn compare(cols: &AuColumns) -> AuRelation {
        cols.to_rows()
    }
}
