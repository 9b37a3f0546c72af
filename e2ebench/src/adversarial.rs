//! The pathological page set: four families, each at a size n and 2n.
//! Typical pages never nest deeply, so these are the inputs on which a
//! super-linear tree builder shows.

use std::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `<div>` opened and never closed: the open-element stack only grows.
    DeepNesting,
    /// A distinct formatting element per paragraph, never closed: every
    /// new paragraph reconstructs all of them (the adoption-agency list).
    Formatting,
    /// Tables holding `<div>`s, each foster-parented out of its table,
    /// each holding the next table.
    FosterTable,
    /// One start tag carrying thousands of copies of the same attribute.
    DupAttrs,
}

impl Family {
    pub const ALL: [Family; 4] =
        [Family::DeepNesting, Family::Formatting, Family::FosterTable, Family::DupAttrs];

    pub fn name(self) -> &'static str {
        match self {
            Family::DeepNesting => "deep_nesting",
            Family::Formatting => "formatting",
            Family::FosterTable => "foster_table",
            Family::DupAttrs => "dup_attrs",
        }
    }

    /// The page of this family whose markup is `bytes` long, give or take
    /// one repeated unit.
    pub fn page(self, bytes: usize) -> String {
        let mut s = String::from("<!DOCTYPE html><html><head><title>x</title></head><body>");
        if self == Family::DupAttrs {
            s.push_str("<div");
        }
        let mut i = 0usize;
        while s.len() < bytes {
            match self {
                Family::DeepNesting => s.push_str("<div>"),
                Family::Formatting => {
                    let _ = write!(s, "<i class=c{i}><p>x");
                }
                Family::FosterTable => s.push_str("<table><div>"),
                Family::DupAttrs => s.push_str(" a=1"),
            }
            i += 1;
        }
        if self == Family::DupAttrs {
            s.push('>');
        }
        s
    }
}

/// One member of the set.
pub struct Case {
    pub family: Family,
    /// Whether this is the 2n member.
    pub doubled: bool,
    pub html: String,
}

/// The set: every family at n and 2n, with n chosen per family so that
/// each family costs tens of milliseconds at n on the seed code.
pub fn cases(sizes: &[(Family, usize)]) -> Vec<Case> {
    let mut out = Vec::new();
    for &(family, n) in sizes {
        for doubled in [false, true] {
            let bytes = if doubled { 2 * n } else { n };
            out.push(Case { family, doubled, html: family.page(bytes) });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_hit_their_size_and_double() {
        for f in Family::ALL {
            let small = f.page(4000);
            let big = f.page(8000);
            assert!(small.len() >= 4000 && small.len() < 4100, "{} {}", f.name(), small.len());
            assert!(big.len() >= 8000 && big.len() < 8100, "{} {}", f.name(), big.len());
        }
    }

    #[test]
    fn the_set_pairs_every_family() {
        let set = cases(&[(Family::DeepNesting, 1000), (Family::DupAttrs, 500)]);
        assert_eq!(set.len(), 4);
        assert!(set[1].doubled && !set[0].doubled);
        assert_eq!(set[3].family, Family::DupAttrs);
    }

    /// The families are what they claim: the parser sees deep nesting, a
    /// duplicate-attribute finding, and foster-parented content.
    #[test]
    fn families_trigger_their_constructs() {
        let mut battery = hv_core::Battery::full();
        let dup = Family::DupAttrs.page(2000);
        let cx = hv_core::CheckContext::new(&dup);
        let report = battery.run_ref(&cx);
        assert!(report.kinds().iter().any(|k| k.id() == "DM3"), "duplicate attributes fire DM3");
        let deep = Family::DeepNesting.page(2000);
        let cx = hv_core::CheckContext::new(&deep);
        assert!(cx.parse.dom.all_elements().count() > 300);
    }
}
