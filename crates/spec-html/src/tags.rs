//! Element-name classification tables used by the tree builder, serializer,
//! and violation checkers.
//!
//! Names are kept as lowercase strings (HTML tag names are ASCII
//! case-insensitive; the tokenizer lowercases them), and this module provides
//! the membership sets the specification keys its algorithms on: the
//! *special* category, void elements, the foreign-content breakout list,
//! implied-end-tag sets, and the table/select scoping sets.
//!
//! The string predicates (`is_void(&str)` & friends) are the source of
//! truth. For the hot paths, each predicate also has an [`Atom`] form
//! (`is_void_atom` &c.) that answers in O(1): on first use the string
//! predicate is evaluated over every entry of [`STATIC_ATOMS`] into a
//! bitset, and a static atom probes one bit. Dynamic atoms (names outside
//! the static table) fall back to the string predicate, so the two forms
//! are equivalent *by construction* — and `tests/atom_semantics.rs` pins
//! the equivalence exhaustively anyway.

use crate::atoms::{Atom, STATIC_ATOMS};
use std::sync::OnceLock;

/// A bitset keyed by static-atom id.
struct AtomSet {
    words: Box<[u64]>,
}

impl AtomSet {
    fn build(pred: fn(&str) -> bool) -> AtomSet {
        let mut words = vec![0u64; STATIC_ATOMS.len().div_ceil(64)].into_boxed_slice();
        for (id, name) in STATIC_ATOMS.iter().enumerate() {
            if pred(name) {
                words[id >> 6] |= 1 << (id & 63);
            }
        }
        AtomSet { words }
    }

    #[inline]
    fn contains(&self, id: usize) -> bool {
        self.words[id >> 6] & (1 << (id & 63)) != 0
    }
}

/// All classification bitsets, derived once from the string predicates.
struct ClassSets {
    void: AtomSet,
    special: AtomSet,
    formatting: AtomSet,
    head_content: AtomSet,
    closes_p: AtomSet,
    implied_end: AtomSet,
    rcdata: AtomSet,
    rawtext: AtomSet,
    foreign_breakout: AtomSet,
    mathml_text_integration: AtomSet,
    svg_html_integration: AtomSet,
    svg_only: AtomSet,
    mathml_only: AtomSet,
    url_attribute: AtomSet,
    /// Static-id → static-id maps for the SVG camelCase tag and attribute
    /// fixups (both spellings are in the table by construction).
    svg_fixup: Box<[u16]>,
    svg_attr_fixup: Box<[u16]>,
}

/// The static-id → static-id map of a fixup table: each name's adjusted
/// spelling, or the name itself.
fn fixup_map(fixup: fn(&str) -> Option<&'static str>) -> Box<[u16]> {
    STATIC_ATOMS
        .iter()
        .enumerate()
        .map(|(id, name)| match fixup(name) {
            Some(fixed) => match Atom::from_name(fixed).static_id() {
                Some(fixed_id) => fixed_id as u16,
                None => unreachable!("fixup target {fixed:?} missing from STATIC_ATOMS"),
            },
            None => id as u16,
        })
        .collect()
}

/// Apply a fixup through its map: a lookup for a static atom. A dynamic
/// atom falls back to the string table (every fixup source is in
/// [`STATIC_ATOMS`], so it comes back unchanged).
fn fixup_atom(map: &[u16], fixup: fn(&str) -> Option<&'static str>, name: &Atom) -> Atom {
    match name.static_id() {
        Some(id) => {
            let fixed = map[id];
            if fixed as usize == id {
                name.clone()
            } else {
                Atom::from_static_id(fixed)
            }
        }
        None => match fixup(name.as_str()) {
            Some(fixed) => Atom::from_name(fixed),
            None => name.clone(),
        },
    }
}

fn sets() -> &'static ClassSets {
    static SETS: OnceLock<ClassSets> = OnceLock::new();
    SETS.get_or_init(|| ClassSets {
        void: AtomSet::build(is_void),
        special: AtomSet::build(is_special),
        formatting: AtomSet::build(is_formatting),
        head_content: AtomSet::build(is_head_content),
        closes_p: AtomSet::build(closes_p),
        implied_end: AtomSet::build(implied_end_tag),
        rcdata: AtomSet::build(is_rcdata),
        rawtext: AtomSet::build(is_rawtext),
        foreign_breakout: AtomSet::build(is_foreign_breakout),
        mathml_text_integration: AtomSet::build(is_mathml_text_integration),
        svg_html_integration: AtomSet::build(is_svg_html_integration),
        svg_only: AtomSet::build(is_svg_only),
        mathml_only: AtomSet::build(is_mathml_only),
        url_attribute: AtomSet::build(is_url_attribute),
        svg_fixup: fixup_map(svg_tag_fixup),
        svg_attr_fixup: fixup_map(svg_attr_fixup),
    })
}

macro_rules! atom_predicate {
    ($(#[$doc:meta])* $atom_fn:ident, $set:ident, $str_fn:ident) => {
        $(#[$doc])*
        #[inline]
        pub fn $atom_fn(name: &Atom) -> bool {
            match name.static_id() {
                Some(id) => sets().$set.contains(id),
                None => $str_fn(name.as_str()),
            }
        }
    };
}

atom_predicate!(
    /// O(1) form of [`is_void`].
    is_void_atom, void, is_void
);
atom_predicate!(
    /// O(1) form of [`is_special`].
    is_special_atom, special, is_special
);
atom_predicate!(
    /// O(1) form of [`is_formatting`].
    is_formatting_atom, formatting, is_formatting
);
atom_predicate!(
    /// O(1) form of [`is_head_content`].
    is_head_content_atom, head_content, is_head_content
);
atom_predicate!(
    /// O(1) form of [`closes_p`].
    closes_p_atom, closes_p, closes_p
);
atom_predicate!(
    /// O(1) form of [`implied_end_tag`].
    implied_end_tag_atom, implied_end, implied_end_tag
);
atom_predicate!(
    /// O(1) form of [`is_rcdata`].
    is_rcdata_atom, rcdata, is_rcdata
);
atom_predicate!(
    /// O(1) form of [`is_rawtext`].
    is_rawtext_atom, rawtext, is_rawtext
);
atom_predicate!(
    /// O(1) form of [`is_foreign_breakout`].
    is_foreign_breakout_atom, foreign_breakout, is_foreign_breakout
);
atom_predicate!(
    /// O(1) form of [`is_mathml_text_integration`].
    is_mathml_text_integration_atom, mathml_text_integration, is_mathml_text_integration
);
atom_predicate!(
    /// O(1) form of [`is_svg_html_integration`].
    is_svg_html_integration_atom, svg_html_integration, is_svg_html_integration
);
atom_predicate!(
    /// O(1) form of [`is_svg_only`].
    is_svg_only_atom, svg_only, is_svg_only
);
atom_predicate!(
    /// O(1) form of [`is_mathml_only`].
    is_mathml_only_atom, mathml_only, is_mathml_only
);
atom_predicate!(
    /// O(1) form of [`is_url_attribute`].
    is_url_attribute_atom, url_attribute, is_url_attribute
);

/// O(1) form of [`svg_tag_fixup`]: the adjusted atom for a lowercased SVG
/// tag name, or a clone of the input when no fixup applies.
pub fn svg_tag_fixup_atom(name: &Atom) -> Atom {
    fixup_atom(&sets().svg_fixup, svg_tag_fixup, name)
}

/// O(1) form of [`svg_attr_fixup`]: the adjusted atom for a lowercased
/// attribute name on an SVG element, or a clone of the input.
pub fn svg_attr_fixup_atom(name: &Atom) -> Atom {
    fixup_atom(&sets().svg_attr_fixup, svg_attr_fixup, name)
}

/// Elements with no end tag at all (§13.1.2 "void elements").
pub fn is_void(name: &str) -> bool {
    matches!(
        name,
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

/// The spec's "special" element category (§13.2.4.2), which controls end-tag
/// matching in "in body".
pub fn is_special(name: &str) -> bool {
    matches!(
        name,
        "address"
            | "applet"
            | "area"
            | "article"
            | "aside"
            | "base"
            | "basefont"
            | "bgsound"
            | "blockquote"
            | "body"
            | "br"
            | "button"
            | "caption"
            | "center"
            | "col"
            | "colgroup"
            | "dd"
            | "details"
            | "dir"
            | "div"
            | "dl"
            | "dt"
            | "embed"
            | "fieldset"
            | "figcaption"
            | "figure"
            | "footer"
            | "form"
            | "frame"
            | "frameset"
            | "h1"
            | "h2"
            | "h3"
            | "h4"
            | "h5"
            | "h6"
            | "head"
            | "header"
            | "hgroup"
            | "hr"
            | "html"
            | "iframe"
            | "img"
            | "input"
            | "keygen"
            | "li"
            | "link"
            | "listing"
            | "main"
            | "marquee"
            | "menu"
            | "meta"
            | "nav"
            | "noembed"
            | "noframes"
            | "noscript"
            | "object"
            | "ol"
            | "p"
            | "param"
            | "plaintext"
            | "pre"
            | "script"
            | "search"
            | "section"
            | "select"
            | "source"
            | "style"
            | "summary"
            | "table"
            | "tbody"
            | "td"
            | "template"
            | "textarea"
            | "tfoot"
            | "th"
            | "thead"
            | "title"
            | "tr"
            | "track"
            | "ul"
            | "wbr"
            | "xmp"
    )
}

/// Formatting elements tracked in the list of active formatting elements.
pub fn is_formatting(name: &str) -> bool {
    matches!(
        name,
        "a" | "b"
            | "big"
            | "code"
            | "em"
            | "font"
            | "i"
            | "nobr"
            | "s"
            | "small"
            | "strike"
            | "strong"
            | "tt"
            | "u"
    )
}

/// Elements allowed as metadata content in `head` (§4.2.1). `noscript` and
/// `template` are permitted by the parser's "in head" mode as well.
pub fn is_head_content(name: &str) -> bool {
    matches!(
        name,
        "base"
            | "basefont"
            | "bgsound"
            | "link"
            | "meta"
            | "title"
            | "noscript"
            | "noframes"
            | "style"
            | "script"
            | "template"
    )
}

/// Elements that close an open `p` element when they start (§13.2.6.4.7,
/// "close a p element" list).
pub fn closes_p(name: &str) -> bool {
    matches!(
        name,
        "address"
            | "article"
            | "aside"
            | "blockquote"
            | "center"
            | "details"
            | "dialog"
            | "dir"
            | "div"
            | "dl"
            | "fieldset"
            | "figcaption"
            | "figure"
            | "footer"
            | "header"
            | "hgroup"
            | "main"
            | "menu"
            | "nav"
            | "ol"
            | "p"
            | "search"
            | "section"
            | "summary"
            | "ul"
            | "h1"
            | "h2"
            | "h3"
            | "h4"
            | "h5"
            | "h6"
            | "pre"
            | "listing"
            | "form"
            | "plaintext"
            | "table"
            | "hr"
            | "xmp"
            | "li"
            | "dd"
            | "dt"
    )
}

/// The "generate implied end tags" set (§13.2.6.3).
pub fn implied_end_tag(name: &str) -> bool {
    matches!(name, "dd" | "dt" | "li" | "optgroup" | "option" | "p" | "rb" | "rp" | "rt" | "rtc")
}

/// Elements whose start tag switches the tokenizer to RCDATA.
pub fn is_rcdata(name: &str) -> bool {
    matches!(name, "title" | "textarea")
}

/// Elements whose start tag switches the tokenizer to RAWTEXT.
pub fn is_rawtext(name: &str) -> bool {
    matches!(name, "style" | "xmp" | "iframe" | "noembed" | "noframes" | "noscript")
}

/// The foreign-content breakout list (§13.2.6.5): an HTML start tag with one
/// of these names, while in foreign (SVG/MathML) content, pops the foreign
/// elements and is reprocessed using HTML rules. This is the machinery behind
/// the paper's HF5 violations and the Figure-1 mXSS.
pub fn is_foreign_breakout(name: &str) -> bool {
    matches!(
        name,
        "b" | "big"
            | "blockquote"
            | "body"
            | "br"
            | "center"
            | "code"
            | "dd"
            | "div"
            | "dl"
            | "dt"
            | "em"
            | "embed"
            | "h1"
            | "h2"
            | "h3"
            | "h4"
            | "h5"
            | "h6"
            | "head"
            | "hr"
            | "i"
            | "img"
            | "li"
            | "listing"
            | "menu"
            | "meta"
            | "nobr"
            | "ol"
            | "p"
            | "pre"
            | "ruby"
            | "s"
            | "small"
            | "span"
            | "strong"
            | "strike"
            | "sub"
            | "sup"
            | "table"
            | "tt"
            | "u"
            | "ul"
            | "var"
    )
}

/// MathML text integration points (§13.2.6.5): inside these, HTML rules apply
/// to most tokens.
pub fn is_mathml_text_integration(name: &str) -> bool {
    matches!(name, "mi" | "mo" | "mn" | "ms" | "mtext")
}

/// SVG elements that are HTML integration points.
pub fn is_svg_html_integration(name: &str) -> bool {
    matches!(name, "foreignObject" | "desc" | "title")
}

/// Element names that exist only in the SVG namespace (used by the HF5_1
/// checker to spot foreign-only elements parsed as HTML).
pub fn is_svg_only(name: &str) -> bool {
    matches!(
        name,
        "circle"
            | "clippath"
            | "defs"
            | "ellipse"
            | "fegaussianblur"
            | "filter"
            | "g"
            | "lineargradient"
            | "marker"
            | "mask"
            | "path"
            | "pattern"
            | "polygon"
            | "polyline"
            | "radialgradient"
            | "rect"
            | "stop"
            | "symbol"
            | "tspan"
            | "use"
    )
}

/// Element names that exist only in the MathML namespace.
pub fn is_mathml_only(name: &str) -> bool {
    matches!(
        name,
        "annotation"
            | "annotation-xml"
            | "maction"
            | "merror"
            | "mfrac"
            | "mglyph"
            | "mi"
            | "mmultiscripts"
            | "mn"
            | "mo"
            | "mover"
            | "mpadded"
            | "mphantom"
            | "mroot"
            | "mrow"
            | "ms"
            | "mspace"
            | "msqrt"
            | "mstyle"
            | "msub"
            | "msubsup"
            | "msup"
            | "mtable"
            | "mtd"
            | "mtext"
            | "mtr"
            | "munder"
            | "munderover"
            | "semantics"
    )
}

/// The SVG camelCase tag-name fixups of §13.2.6.5 ("Any other start tag" in
/// foreign content): the tokenizer lowercases names; inside SVG the parser
/// restores the canonical mixed-case spelling.
pub fn svg_tag_fixup(lower: &str) -> Option<&'static str> {
    Some(match lower {
        "altglyph" => "altGlyph",
        "altglyphdef" => "altGlyphDef",
        "altglyphitem" => "altGlyphItem",
        "animatecolor" => "animateColor",
        "animatemotion" => "animateMotion",
        "animatetransform" => "animateTransform",
        "clippath" => "clipPath",
        "feblend" => "feBlend",
        "fecolormatrix" => "feColorMatrix",
        "fecomponenttransfer" => "feComponentTransfer",
        "fecomposite" => "feComposite",
        "feconvolvematrix" => "feConvolveMatrix",
        "fediffuselighting" => "feDiffuseLighting",
        "fedisplacementmap" => "feDisplacementMap",
        "fedistantlight" => "feDistantLight",
        "fedropshadow" => "feDropShadow",
        "feflood" => "feFlood",
        "fefunca" => "feFuncA",
        "fefuncb" => "feFuncB",
        "fefuncg" => "feFuncG",
        "fefuncr" => "feFuncR",
        "fegaussianblur" => "feGaussianBlur",
        "feimage" => "feImage",
        "femerge" => "feMerge",
        "femergenode" => "feMergeNode",
        "femorphology" => "feMorphology",
        "feoffset" => "feOffset",
        "fepointlight" => "fePointLight",
        "fespecularlighting" => "feSpecularLighting",
        "fespotlight" => "feSpotLight",
        "fetile" => "feTile",
        "feturbulence" => "feTurbulence",
        "foreignobject" => "foreignObject",
        "glyphref" => "glyphRef",
        "lineargradient" => "linearGradient",
        "radialgradient" => "radialGradient",
        "textpath" => "textPath",
        _ => return None,
    })
}

/// The "adjust SVG attributes" table of §13.2.6.5: the tokenizer lowercases
/// attribute names; on an SVG element the parser restores these 58
/// mixed-case spellings.
pub fn svg_attr_fixup(lower: &str) -> Option<&'static str> {
    Some(match lower {
        "attributename" => "attributeName",
        "attributetype" => "attributeType",
        "basefrequency" => "baseFrequency",
        "baseprofile" => "baseProfile",
        "calcmode" => "calcMode",
        "clippathunits" => "clipPathUnits",
        "diffuseconstant" => "diffuseConstant",
        "edgemode" => "edgeMode",
        "filterunits" => "filterUnits",
        "glyphref" => "glyphRef",
        "gradienttransform" => "gradientTransform",
        "gradientunits" => "gradientUnits",
        "kernelmatrix" => "kernelMatrix",
        "kernelunitlength" => "kernelUnitLength",
        "keypoints" => "keyPoints",
        "keysplines" => "keySplines",
        "keytimes" => "keyTimes",
        "lengthadjust" => "lengthAdjust",
        "limitingconeangle" => "limitingConeAngle",
        "markerheight" => "markerHeight",
        "markerunits" => "markerUnits",
        "markerwidth" => "markerWidth",
        "maskcontentunits" => "maskContentUnits",
        "maskunits" => "maskUnits",
        "numoctaves" => "numOctaves",
        "pathlength" => "pathLength",
        "patterncontentunits" => "patternContentUnits",
        "patterntransform" => "patternTransform",
        "patternunits" => "patternUnits",
        "pointsatx" => "pointsAtX",
        "pointsaty" => "pointsAtY",
        "pointsatz" => "pointsAtZ",
        "preservealpha" => "preserveAlpha",
        "preserveaspectratio" => "preserveAspectRatio",
        "primitiveunits" => "primitiveUnits",
        "refx" => "refX",
        "refy" => "refY",
        "repeatcount" => "repeatCount",
        "repeatdur" => "repeatDur",
        "requiredextensions" => "requiredExtensions",
        "requiredfeatures" => "requiredFeatures",
        "specularconstant" => "specularConstant",
        "specularexponent" => "specularExponent",
        "spreadmethod" => "spreadMethod",
        "startoffset" => "startOffset",
        "stddeviation" => "stdDeviation",
        "stitchtiles" => "stitchTiles",
        "surfacescale" => "surfaceScale",
        "systemlanguage" => "systemLanguage",
        "tablevalues" => "tableValues",
        "targetx" => "targetX",
        "targety" => "targetY",
        "textlength" => "textLength",
        "viewbox" => "viewBox",
        "viewtarget" => "viewTarget",
        "xchannelselector" => "xChannelSelector",
        "ychannelselector" => "yChannelSelector",
        "zoomandpan" => "zoomAndPan",
        _ => return None,
    })
}

/// Attribute names the paper's DE3_1 / mitigation analyses treat as URLs
/// (§4.5 and Mike West's dangling-markup mitigation).
pub fn is_url_attribute(name: &str) -> bool {
    matches!(
        name,
        "href"
            | "src"
            | "action"
            | "formaction"
            | "data"
            | "poster"
            | "background"
            | "cite"
            | "longdesc"
            | "usemap"
            | "srcset"
            | "ping"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn void_elements() {
        assert!(is_void("img"));
        assert!(is_void("br"));
        assert!(!is_void("div"));
        assert!(!is_void("textarea"));
    }

    #[test]
    fn breakout_contains_figure1_actors() {
        // The DOMPurify bypass relies on <img> (and <table>) being breakout
        // elements while <style> and <mglyph> are not.
        assert!(is_foreign_breakout("img"));
        assert!(is_foreign_breakout("table"));
        assert!(!is_foreign_breakout("style"));
        assert!(!is_foreign_breakout("mglyph"));
        assert!(!is_foreign_breakout("svg"));
    }

    #[test]
    fn integration_points() {
        assert!(is_mathml_text_integration("mtext"));
        assert!(!is_mathml_text_integration("mglyph"));
        assert!(is_svg_html_integration("foreignObject"));
    }

    #[test]
    fn svg_case_fixups() {
        assert_eq!(svg_tag_fixup("clippath"), Some("clipPath"));
        assert_eq!(svg_tag_fixup("foreignobject"), Some("foreignObject"));
        assert_eq!(svg_tag_fixup("rect"), None);
    }

    #[test]
    fn svg_attr_map_matches_the_table_for_every_static_name() {
        let mut renamed = 0;
        for name in STATIC_ATOMS {
            let expected = svg_attr_fixup(name).unwrap_or(name);
            assert_eq!(svg_attr_fixup_atom(&Atom::from_name(name)).as_str(), expected, "{name}");
            renamed += usize::from(expected != *name);
        }
        // Every one of the spec's 58 source spellings is a static name.
        assert_eq!(renamed, 58);
        assert_eq!(svg_attr_fixup("clippath"), None);
        assert_eq!(svg_attr_fixup_atom(&Atom::from_name("x-unknown")).as_str(), "x-unknown");
    }

    #[test]
    fn url_attributes() {
        assert!(is_url_attribute("href"));
        assert!(is_url_attribute("formaction"));
        assert!(!is_url_attribute("title"));
    }

    #[test]
    fn head_content() {
        assert!(is_head_content("meta"));
        assert!(is_head_content("base"));
        assert!(!is_head_content("div"));
        assert!(!is_head_content("h1"));
    }
}
