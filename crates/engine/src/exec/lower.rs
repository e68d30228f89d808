//! The lowering pass: `Plan → Vec<Pipeline>`.
//!
//! A [`Pipeline`] is a maximal run of streamable operators (selection and
//! projection — they look at one tuple at a time) terminated by at most one
//! *pipeline breaker* (sort / top-k / window — they need the whole input
//! before emitting anything). Lowering never reorders operators, so the
//! fused chain applies them in exactly the logical plan's order and the
//! result is bag-identical to operator-at-a-time execution.

use crate::plan::Plan;

/// One physical pipeline: a fused chain of streamable operators feeding an
/// optional breaker. Operators are referenced by index into
/// [`Plan::ops`] so the executor and `explain` share one lowered form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pipeline {
    /// Indices of the fused `select`/`project` operators,
    /// in plan order (possibly empty: a breaker directly after the scan or
    /// after another breaker).
    pub fused: Vec<usize>,
    /// Index of the terminating breaker (`sort`/`topk`/`window`), or
    /// `None` for the final pipeline that streams straight to the output.
    pub breaker: Option<usize>,
}

/// The stable label of a fused stage, e.g. `fuse(select · project)` — the
/// single source for both [`Pipeline::describe`] (explain output) and the
/// executor's [`OpTiming`](super::OpTiming) labels, which are
/// golden-tested to match.
pub(super) fn fuse_label<'a>(op_names: impl Iterator<Item = &'a str>) -> String {
    format!("fuse({})", op_names.collect::<Vec<_>>().join(" · "))
}

impl Pipeline {
    /// Render this pipeline against its plan, in the stable format
    /// `explain` prints: `fuse(select · project) ⇒ breaker sort` or
    /// `passthrough ⇒ output`.
    pub fn describe(&self, plan: &Plan) -> String {
        let stage = if self.fused.is_empty() {
            "passthrough".to_string()
        } else {
            fuse_label(self.fused.iter().map(|&i| plan.ops()[i].name()))
        };
        match self.breaker {
            Some(b) => format!("{stage} ⇒ breaker {}", plan.ops()[b].name()),
            None => format!("{stage} ⇒ output"),
        }
    }
}

/// Split a plan's operator chain into pipelines: streamable operators
/// accumulate into the current pipeline's fused chain; each breaker closes
/// the pipeline it terminates. A plan with no operators lowers to no
/// pipelines (the scan alone is the result).
pub fn lower(plan: &Plan) -> Vec<Pipeline> {
    let mut out = Vec::new();
    let mut fused: Vec<usize> = Vec::new();
    for (i, op) in plan.ops().iter().enumerate() {
        if op.is_breaker() {
            out.push(Pipeline {
                fused: std::mem::take(&mut fused),
                breaker: Some(i),
            });
        } else {
            fused.push(i);
        }
    }
    if !fused.is_empty() {
        out.push(Pipeline {
            fused,
            breaker: None,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Agg, Query, WindowSpec};
    use audb_core::{AuRelation, AuTuple, Mult3, RangeExpr, RangeValue};
    use audb_rel::Schema;

    fn rel() -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["a", "b"]),
            [(
                AuTuple::new([RangeValue::certain(1i64), RangeValue::new(1, 2, 3)]),
                Mult3::ONE,
            )],
        )
    }

    /// The satellite fusion-order contract: adjacent select/project fuse
    /// into one chain **in plan order**, breakers terminate pipelines, and
    /// trailing streamable operators form a final output pipeline.
    #[test]
    fn fuses_adjacent_streamables_in_order() {
        let plan = Query::scan(rel())
            .select(RangeExpr::col(1).lt(RangeExpr::lit(9)))
            .project(["b", "a"])
            .sort_by(["b"])
            .select(RangeExpr::col(2).lt(RangeExpr::lit(2)))
            .window(
                WindowSpec::rows(-1, 0)
                    .order_by(["b"])
                    .aggregate(Agg::sum("b"))
                    .output("s"),
            )
            .project(["s"])
            .build()
            .unwrap();
        let pipelines = lower(&plan);
        assert_eq!(
            pipelines,
            vec![
                Pipeline {
                    fused: vec![0, 1],
                    breaker: Some(2)
                },
                Pipeline {
                    fused: vec![3],
                    breaker: Some(4)
                },
                Pipeline {
                    fused: vec![5],
                    breaker: None
                },
            ]
        );
        assert_eq!(
            pipelines[0].describe(&plan),
            "fuse(select · project) ⇒ breaker sort"
        );
        assert_eq!(pipelines[2].describe(&plan), "fuse(project) ⇒ output");
    }

    #[test]
    fn breaker_only_and_empty_plans() {
        let plan = Query::scan(rel()).sort_by(["a"]).topk(2).build().unwrap();
        let pipelines = lower(&plan);
        assert_eq!(
            pipelines,
            vec![Pipeline {
                fused: vec![],
                breaker: Some(0)
            }]
        );
        assert_eq!(pipelines[0].describe(&plan), "passthrough ⇒ breaker topk");

        let scan_only = Query::scan(rel()).build().unwrap();
        assert!(lower(&scan_only).is_empty());
    }

    #[test]
    fn consecutive_breakers_get_empty_stages() {
        let plan = Query::scan(rel())
            .sort_by_as(["a"], "p1")
            .sort_by_as(["b"], "p2")
            .build()
            .unwrap();
        assert_eq!(
            lower(&plan),
            vec![
                Pipeline {
                    fused: vec![],
                    breaker: Some(0)
                },
                Pipeline {
                    fused: vec![],
                    breaker: Some(1)
                },
            ]
        );
    }
}
