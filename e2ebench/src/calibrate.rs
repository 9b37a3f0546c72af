//! The host's pace: a fixed reference computation timed throughout a run.
//!
//! The benchmark shares a few cores of a host whose speed drifts by up to
//! 2x over minutes, on every kind of work alike, while the run itself
//! lasts under a minute. Medians over a run remove short stalls but not
//! that drift, so the untraced run also times a reference kernel between
//! its stages and states each stage's sample at a reference pace: a time
//! divided by the stretch's slowdown (the kernel's time around the stage
//! over `NOMINAL_S`), a rate multiplied by it. The check p50 is divided by
//! the square root of the run's slowdown instead (see `workload::run`).
//! The figures as measured go with the provenance.
//!
//! The kernel and its input are the benchmark's own code and constants,
//! independent of the workspace crates and of `--seed`, so it does the same
//! work on every commit and every seed: a change in its time is a change in
//! the host. It does the kind of work the program does on a page: a byte
//! scan for tags and attributes, lower-cased names hashed into a map, and
//! a text buffer.

use std::collections::HashMap;
use std::time::Instant;

/// The kernel's time, in seconds, that defines the reference pace: about
/// its median on the 2-vCPU Xeon guest (2.0 GHz) the benchmark was first
/// run on, so that figures at the reference pace read close to measured
/// ones there.
pub const NOMINAL_S: f64 = 0.015;

/// Kernel passes per sample point.
const PASSES: usize = 5;

/// The kernel's input: 128 pages of about 8 KB of tag soup, from a fixed
/// xorshift generator.
pub fn corpus() -> Vec<String> {
    const TAGS: [&str; 20] = [
        "div", "p", "span", "a", "li", "ul", "table", "tr", "td", "img", "script", "svg", "math",
        "b", "i", "em", "section", "article", "header", "footer",
    ];
    const ATTRS: [&str; 9] =
        ["class", "id", "href", "src", "style", "data-x", "onclick", "alt", "title"];
    const WORDS: [&str; 8] = ["violation", "the", "HTML", "of", "snapshot", "page", "and", "web"];
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = |n: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as usize
    };
    (0..128)
        .map(|_| {
            let mut page = String::with_capacity(8 << 10);
            while page.len() < 8 << 10 {
                let tag = TAGS[next(TAGS.len())];
                page.push('<');
                if next(4) == 0 {
                    page.push_str(&tag.to_ascii_uppercase());
                } else {
                    page.push_str(tag);
                }
                for _ in 0..next(4) {
                    page.push(' ');
                    page.push_str(ATTRS[next(ATTRS.len())]);
                    page.push_str("=\"");
                    for _ in 0..3 + next(10) {
                        page.push((b'a' + next(26) as u8) as char);
                    }
                    page.push('"');
                }
                page.push('>');
                for _ in 0..next(12) {
                    page.push_str(WORDS[next(WORDS.len())]);
                    page.push(' ');
                }
                if next(3) > 0 {
                    page.push_str("</");
                    page.push_str(&tag.to_ascii_uppercase());
                    page.push('>');
                }
            }
            page
        })
        .collect()
}

/// One pass of the kernel over `pages`; returns a checksum so the work
/// cannot be optimized away.
pub fn kernel(pages: &[String]) -> u64 {
    let mut names: HashMap<String, u32> = HashMap::new();
    let mut name = String::new();
    let mut text = Vec::new();
    let mut sum = 0u64;
    for page in pages {
        let b = page.as_bytes();
        text.clear();
        let mut i = 0;
        while i < b.len() {
            if b[i] != b'<' {
                text.push(b[i]);
                i += 1;
                continue;
            }
            i += 1;
            // The tag name, then every attribute name up to `>`.
            while i < b.len() && b[i] != b'>' {
                name.clear();
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'-') {
                    name.push(b[i].to_ascii_lowercase() as char);
                    i += 1;
                }
                if name.is_empty() {
                    i += 1;
                } else if let Some(n) = names.get_mut(name.as_str()) {
                    *n += 1;
                } else {
                    names.insert(name.clone(), 1);
                }
            }
            i += 1;
        }
        sum = sum.wrapping_mul(31).wrapping_add(text.iter().map(|&c| u64::from(c)).sum::<u64>());
    }
    let mut counts: Vec<(&String, &u32)> = names.iter().collect();
    counts.sort();
    counts
        .iter()
        .fold(sum, |h, (k, &n)| h.wrapping_mul(1_000_003) ^ (k.len() as u64 * 977 + u64::from(n)))
}

/// Kernel times taken through a run, a few passes at each point between
/// two stages.
pub struct Pace {
    pages: Vec<String>,
    samples: Vec<f64>,
    /// The kernel's time at the latest point.
    last: f64,
}

impl Pace {
    /// Takes the first point.
    pub fn new() -> Pace {
        Pace::over(corpus())
    }

    fn over(pages: Vec<String>) -> Pace {
        let mut pace = Pace { pages, samples: Vec::new(), last: f64::NAN };
        pace.last = pace.point();
        pace
    }

    /// The median of a few kernel passes now, so one stall does not count.
    fn point(&mut self) -> f64 {
        let start = self.samples.len();
        for _ in 0..PASSES {
            let t = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(&self.pages)));
            self.samples.push(t.elapsed().as_secs_f64());
        }
        crate::stats::median(&self.samples[start..])
    }

    /// Take the next point and return how much slower than the reference
    /// pace the host ran since the previous one: the mean of the two
    /// points' kernel times over `NOMINAL_S`, above 1 when slower. A time
    /// measured in between is divided by it, a rate multiplied.
    pub fn lap(&mut self) -> f64 {
        let now = self.point();
        let slowdown = (self.last + now) / 2.0 / NOMINAL_S;
        self.last = now;
        slowdown
    }

    /// Kernel passes timed so far.
    pub fn passes(&self) -> usize {
        self.samples.len()
    }

    /// The kernel's median time over the whole run, in seconds.
    pub fn kernel_s(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// How much slower than the reference pace the host ran over the whole
    /// run.
    pub fn slowdown(&self) -> f64 {
        self.kernel_s() / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_never_changes() {
        let pages = corpus();
        assert_eq!(pages.len(), 128);
        let bytes: usize = pages.iter().map(String::len).sum();
        assert!((128 * 8192..128 * 8400).contains(&bytes), "{bytes} bytes");
        // Pinned: the kernel and its input are the same on every commit.
        assert_eq!(kernel(&pages), kernel(&corpus()));
        assert_eq!(kernel(&pages), 12_602_850_784_515_492_422);
    }

    #[test]
    fn a_lap_is_the_mean_of_its_two_points_over_nominal() {
        let mut pace = Pace::over(vec!["<p a=1>x</p>".to_owned()]);
        assert_eq!(pace.passes(), PASSES);
        pace.last = 3.0 * NOMINAL_S;
        let slowdown = pace.lap();
        assert_eq!(pace.passes(), 2 * PASSES);
        let now = pace.last;
        assert!((slowdown - (3.0 * NOMINAL_S + now) / 2.0 / NOMINAL_S).abs() < 1e-12);
        assert!(slowdown > 1.5);
        assert!((pace.slowdown() - pace.kernel_s() / NOMINAL_S).abs() < 1e-12);
    }
}
