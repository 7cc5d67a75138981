//! Resolution class schemes (§5.1.5): Meet and Webex are classified
//! per observed frame-height value; Teams' 11 heights are binned into
//! low (≤ 240), medium ((240, 480]), and high (> 480).
//!
//! ```
//! use vcaml::ResolutionScheme;
//! use vcaml_rtp::VcaKind;
//!
//! // Teams always uses the paper's three bins…
//! let teams = ResolutionScheme::for_vca(VcaKind::Teams, &[]);
//! assert_eq!(teams.class_of(240), Some(0)); // Low
//! assert_eq!(teams.class_of(360), Some(1)); // Medium
//! assert_eq!(teams.class_of(720), Some(2)); // High
//!
//! // …while Meet gets one class per height observed in the corpus.
//! let meet = ResolutionScheme::for_vca(VcaKind::Meet, &[360, 180, 360]);
//! assert_eq!(meet.n_classes(), 2);
//! assert_eq!(meet.labels(), vec!["180p", "360p"]);
//! assert_eq!(meet.class_of(540), None); // never observed → no class
//! ```

use vcaml_rtp::VcaKind;

/// Maps frame heights to class ids and back to labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolutionScheme {
    /// One class per distinct height (sorted ascending).
    PerValue {
        /// The distinct heights, ascending; class id = index.
        heights: Vec<u32>,
    },
    /// The paper's Teams bins.
    LowMediumHigh,
}

impl ResolutionScheme {
    /// Builds the scheme the paper uses for a VCA, given the heights
    /// observed in the corpus (needed for Meet, whose real-world data adds
    /// 540/720).
    pub fn for_vca(vca: VcaKind, observed_heights: &[u32]) -> Self {
        match vca {
            VcaKind::Teams => ResolutionScheme::LowMediumHigh,
            VcaKind::Meet | VcaKind::Webex => {
                let mut hs: Vec<u32> = observed_heights
                    .iter()
                    .copied()
                    .filter(|&h| h > 0)
                    .collect();
                hs.sort_unstable();
                hs.dedup();
                ResolutionScheme::PerValue { heights: hs }
            }
        }
    }

    /// Class id for a height; `None` if the height has no class (height 0
    /// = no decoded frames, excluded from resolution evaluation).
    pub fn class_of(&self, height: u32) -> Option<usize> {
        if height == 0 {
            return None;
        }
        match self {
            ResolutionScheme::PerValue { heights } => heights.iter().position(|&h| h == height),
            ResolutionScheme::LowMediumHigh => Some(if height <= 240 {
                0
            } else if height <= 480 {
                1
            } else {
                2
            }),
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        match self {
            ResolutionScheme::PerValue { heights } => heights.len(),
            ResolutionScheme::LowMediumHigh => 3,
        }
    }

    /// Human-readable class labels.
    pub fn labels(&self) -> Vec<String> {
        match self {
            ResolutionScheme::PerValue { heights } => {
                heights.iter().map(|h| format!("{h}p")).collect()
            }
            ResolutionScheme::LowMediumHigh => {
                vec!["Low".into(), "Medium".into(), "High".into()]
            }
        }
    }

    /// True when classification is meaningful (more than one class —
    /// the paper skips Webex real-world, which shows a single height).
    pub fn is_classifiable(&self) -> bool {
        self.n_classes() >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teams_bins_match_paper() {
        let s = ResolutionScheme::for_vca(VcaKind::Teams, &[90, 720]);
        assert_eq!(s.n_classes(), 3);
        assert_eq!(s.class_of(90), Some(0));
        assert_eq!(s.class_of(240), Some(0));
        assert_eq!(s.class_of(270), Some(1));
        assert_eq!(s.class_of(404), Some(1));
        assert_eq!(s.class_of(480), Some(1));
        assert_eq!(s.class_of(540), Some(2));
        assert_eq!(s.class_of(720), Some(2));
        assert_eq!(s.labels(), vec!["Low", "Medium", "High"]);
    }

    #[test]
    fn meet_per_value_sorted_dedup() {
        let s = ResolutionScheme::for_vca(VcaKind::Meet, &[360, 180, 360, 270, 0]);
        assert_eq!(s.n_classes(), 3);
        assert_eq!(s.class_of(180), Some(0));
        assert_eq!(s.class_of(270), Some(1));
        assert_eq!(s.class_of(360), Some(2));
        assert_eq!(s.class_of(540), None);
        assert_eq!(s.labels(), vec!["180p", "270p", "360p"]);
    }

    #[test]
    fn zero_height_unclassified() {
        let s = ResolutionScheme::for_vca(VcaKind::Webex, &[180, 360]);
        assert_eq!(s.class_of(0), None);
        let t = ResolutionScheme::LowMediumHigh;
        assert_eq!(t.class_of(0), None);
    }

    #[test]
    fn single_height_not_classifiable() {
        let s = ResolutionScheme::for_vca(VcaKind::Webex, &[360, 360]);
        assert!(!s.is_classifiable());
        let s2 = ResolutionScheme::for_vca(VcaKind::Webex, &[180, 360]);
        assert!(s2.is_classifiable());
    }
}
