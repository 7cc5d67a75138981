//! Experiment context: corpus/sample caching and global configuration.

use crate::pipeline::EvalOpts;
use std::collections::HashMap;
use std::rc::Rc;
use vcaml::{build_samples, SampleSet, Trace};
use vcaml_datasets::{inlab_corpus, realworld_corpus, CorpusConfig};
use vcaml_mlcore::RandomForestParams;
use vcaml_rtp::VcaKind;

/// How large the generated corpora are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Quick smoke-test corpora (seconds of compute).
    Small,
    /// The full reproduction scale used for EXPERIMENTS.md.
    Full,
}

/// Which corpus an experiment draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corpus {
    /// NDT-driven lab conditions.
    InLab,
    /// Household deployment model.
    RealWorld,
}

/// Lazily generated, cached corpora and window samples.
pub struct Ctx {
    /// Corpus scale.
    pub scale: Scale,
    traces: HashMap<(Corpus, VcaKind), Rc<[Trace]>>,
    samples: HashMap<(Corpus, VcaKind, u32), Rc<SampleSet>>,
}

impl Ctx {
    /// Creates an empty context.
    pub fn new(scale: Scale) -> Self {
        Ctx {
            scale,
            traces: HashMap::new(),
            samples: HashMap::new(),
        }
    }

    fn corpus_config(&self, corpus: Corpus, vca: VcaKind) -> CorpusConfig {
        let seed = 0xbead + vca as u64 * 101;
        match (corpus, self.scale) {
            (Corpus::InLab, Scale::Full) => CorpusConfig::inlab_default(seed),
            (Corpus::RealWorld, Scale::Full) => {
                // Paper: 320 Meet / 178 Teams / 417 Webex calls; keep the
                // proportions at reduced scale.
                let n_calls = match vca {
                    VcaKind::Meet => 64,
                    VcaKind::Teams => 36,
                    VcaKind::Webex => 80,
                };
                CorpusConfig {
                    n_calls,
                    ..CorpusConfig::realworld_default(seed)
                }
            }
            (Corpus::InLab, Scale::Small) => CorpusConfig {
                n_calls: 8,
                min_secs: 25,
                max_secs: 40,
                seed,
            },
            (Corpus::RealWorld, Scale::Small) => CorpusConfig {
                n_calls: 12,
                min_secs: 15,
                max_secs: 25,
                seed,
            },
        }
    }

    /// The evaluation options used everywhere (paper §4.3), with a forest
    /// sized to the scale.
    pub fn opts(&self, vca: VcaKind) -> EvalOpts {
        let mut o = EvalOpts::paper(vca);
        o.forest = match self.scale {
            Scale::Full => RandomForestParams {
                n_trees: 40,
                seed: 7,
                ..Default::default()
            },
            Scale::Small => RandomForestParams {
                n_trees: 15,
                seed: 7,
                ..Default::default()
            },
        };
        o
    }

    /// The traces of a corpus (generated on first use), shared like
    /// [`Ctx::samples`].
    pub fn traces(&mut self, corpus: Corpus, vca: VcaKind) -> Rc<[Trace]> {
        if !self.traces.contains_key(&(corpus, vca)) {
            let cfg = self.corpus_config(corpus, vca);
            let traces = match corpus {
                Corpus::InLab => inlab_corpus(vca, &cfg),
                Corpus::RealWorld => realworld_corpus(vca, &cfg),
            };
            self.traces.insert((corpus, vca), traces.into());
        }
        Rc::clone(&self.traces[&(corpus, vca)])
    }

    /// Window samples for a corpus at a window size (built on first use).
    /// The set is shared, not copied: the handle leaves the context free
    /// for the caller's next borrow.
    pub fn samples(&mut self, corpus: Corpus, vca: VcaKind, window_secs: u32) -> Rc<SampleSet> {
        if !self.samples.contains_key(&(corpus, vca, window_secs)) {
            let mut config = self.opts(vca).engine;
            config.window_secs = window_secs;
            let set = build_samples(&self.traces(corpus, vca), &config);
            self.samples
                .insert((corpus, vca, window_secs), Rc::new(set));
        }
        Rc::clone(&self.samples[&(corpus, vca, window_secs)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_are_reused() {
        let mut ctx = Ctx::new(Scale::Small);
        let n1 = ctx.traces(Corpus::InLab, VcaKind::Webex).len();
        let p1 = ctx.traces(Corpus::InLab, VcaKind::Webex).as_ptr();
        let p2 = ctx.traces(Corpus::InLab, VcaKind::Webex).as_ptr();
        assert_eq!(p1, p2);
        assert_eq!(n1, 8);
        let s1 = ctx.samples(Corpus::InLab, VcaKind::Webex, 1).samples.len();
        assert!(s1 > 100);
        let shared = ctx.samples(Corpus::InLab, VcaKind::Webex, 1);
        assert!(
            Rc::ptr_eq(&shared, &ctx.samples(Corpus::InLab, VcaKind::Webex, 1)),
            "a sample set is built once and shared"
        );
    }

    #[test]
    fn realworld_scale_keeps_paper_proportions() {
        let ctx = Ctx::new(Scale::Full);
        let meet = ctx.corpus_config(Corpus::RealWorld, VcaKind::Meet).n_calls;
        let teams = ctx.corpus_config(Corpus::RealWorld, VcaKind::Teams).n_calls;
        let webex = ctx.corpus_config(Corpus::RealWorld, VcaKind::Webex).n_calls;
        assert!(webex > meet && meet > teams);
    }
}
