//! # vcaml-bench — experiment harness
//!
//! Regenerates every table and figure of the paper from simulated corpora.
//! The `repro` binary dispatches to [`experiments`]; [`ctx`] caches the
//! generated corpora and fitted sample sets so one invocation can run the
//! whole suite without recomputation; [`report`] renders paper-style
//! tables and CDFs and holds the [`report::Json`] tree each experiment
//! returns as its artifact. Experiments do no file IO: `repro` alone
//! writes the artifacts, through [`report::write_artifact`].
//!
//! The evaluation itself lives here too, not in the `vcaml` product:
//! [`pipeline`] cross-validates and scores models on `vcaml`'s window
//! samples, [`errors`] is the heuristic error taxonomy of Fig. 4, and
//! [`modes`] the application-mode analysis of §7.

pub mod ctx;
pub mod errors;
pub mod experiments;
pub mod modes;
pub mod pipeline;
pub mod report;

#[cfg(test)]
mod tests {
    use crate::report::Json;

    #[test]
    fn pretty_prints_nested() {
        let v = Json::object([
            ("a", Json::from(1u64)),
            ("b", Json::Arr(vec![1.5.into(), "x".into()])),
            ("c", Json::object([("d", Json::from(f64::NAN))])),
        ]);
        let s = v.to_string();
        assert!(s.contains("\"a\": 1"));
        assert!(s.contains("\"b\": ["));
        assert!(s.contains("1.5"));
        assert!(s.contains("\"d\": null"));
    }

    #[test]
    fn exprs_embed_via_serialize() {
        let xs = vec![(1.0f64, 0.5f64)];
        let v = Json::object([("cdf", Json::from(xs))]);
        assert_eq!(
            v.to_string(),
            "{\n  \"cdf\": [\n    [\n      1,\n      0.5\n    ]\n  ]\n}"
        );
    }

    #[test]
    fn integers_render_without_decimal() {
        assert_eq!(Json::from(30.0).to_string(), "30");
        assert_eq!(Json::from(30u32).to_string(), "30");
    }

    #[test]
    fn map_insert_replaces() {
        let m = Json::object([("a", Json::from(1.0)), ("b", 3.0.into()), ("a", 2.0.into())]);
        assert_eq!(
            m,
            Json::Obj(vec![
                ("a".into(), Json::Num(2.0)),
                ("b".into(), Json::Num(3.0))
            ])
        );
    }

    #[test]
    fn tuples_serialize_as_arrays() {
        assert_eq!(
            Json::from((1.0f64, 2.0f64)),
            Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])
        );
    }
}
