//! Interned tag/attribute names (**atoms**) and cheap shared strings.
//!
//! Tokenizing archived pages used to materialize three heap `String`s per
//! attribute and two per tag, then clone them again into the DOM. At corpus
//! scale the allocator dominated the attribute-heavy profile. This module
//! removes those allocations structurally:
//!
//! * [`Atom`] — a tag/attribute *name*. Every name the HTML/SVG/MathML
//!   specs know about (plus the common attribute vocabulary) lives in one
//!   static table, [`STATIC_ATOMS`]; a static atom is a `u16` index —
//!   `Clone` is a copy, equality is an integer compare, and classification
//!   queries (`tags::is_void` & friends) become bitset probes. Unknown
//!   names fall back to a per-parse [`Interner`] that hands out shared
//!   `Arc<str>` atoms, so author-invented names (`<wibble x-data=…>`) cost
//!   one allocation per *distinct* name per parse instead of one per use.
//! * [`SharedStr`] — an immutable attribute *value*. Values ≤ 22 bytes
//!   (the overwhelming majority in real markup) are stored inline with no
//!   heap allocation at all; longer values are a shared `Arc<str>` so the
//!   token → DOM handoff is a refcount bump, not a copy.
//!
//! Invariant (load-bearing for `Atom`'s fast equality): a dynamic atom
//! never holds text that is present in the static table. Both constructors
//! ([`Atom::from`] and [`Interner::intern`]) consult the static table
//! first, and the `Repr` enum is private, so the invariant cannot be
//! violated from outside this module. Given that, `Static(a) == Dyn(b)` is
//! always false and static-vs-static equality is `a == b` on the indices.
//!
//! Interner lifecycle: the tokenizer owns one `Interner` per parse; it is
//! constructed fresh in `Tokenizer::new`, so dynamic atoms never leak
//! between documents and the set stays small (bounded by the number of
//! distinct unknown names in one page). Atoms themselves remain valid
//! after the parse — they share ownership via `Arc` — only the dedup set
//! is per-parse.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Every known HTML, SVG, and MathML element name, the SVG/MathML
/// mixed-case *adjusted* spellings the tree builder produces in foreign
/// content (§13.2.6.5), and the common attribute vocabulary. Grouped for
/// review; looked up through a hash index built at compile time, so order
/// here is free. Names must be unique (a duplicate fails the build).
///
/// This table is deliberately generous: membership is *only* a perf
/// optimization. A name missing from the table still works — it becomes a
/// dynamic atom with identical semantics.
pub static STATIC_ATOMS: &[&str] = ATOMS;

/// The table behind [`STATIC_ATOMS`], as a constant so that [`atom!`] can
/// resolve literal names at compile time.
#[rustfmt::skip]
const ATOMS: &[&str] = &[
    // The empty name: Atom::default(), placeholder tags.
    "",
    // HTML elements (current + obsolete — archived pages use both).
    "a", "abbr", "acronym", "address", "applet", "area", "article", "aside", "audio", "b", "base",
    "basefont", "bdi", "bdo", "bgsound", "big", "blink", "blockquote", "body", "br", "button",
    "canvas", "caption", "center", "cite", "code", "col", "colgroup", "data", "datalist", "dd",
    "del", "details", "dfn", "dialog", "dir", "div", "dl", "dt", "em", "embed", "fieldset",
    "figcaption", "figure", "font", "footer", "form", "frame", "frameset", "h1", "h2", "h3", "h4",
    "h5", "h6", "head", "header", "hgroup", "hr", "html", "i", "iframe", "image", "img", "input",
    "ins", "isindex", "kbd", "keygen", "label", "legend", "li", "link", "listing", "main", "map",
    "mark", "marquee", "menu", "menuitem", "meta", "meter", "nav", "nobr", "noembed", "noframes",
    "noscript", "object", "ol", "optgroup", "option", "output", "p", "param", "picture",
    "plaintext", "pre", "progress", "q", "rb", "rp", "rt", "rtc", "ruby", "s", "samp", "script",
    "search", "section", "select", "slot", "small", "source", "spacer", "span", "strike",
    "strong", "style", "sub", "summary", "sup", "table", "tbody", "td", "template", "textarea",
    "tfoot", "th", "thead", "time", "title", "tr", "track", "tt", "u", "ul", "var", "video",
    "wbr", "xmp",
    // SVG elements: lowercase (as tokenized) and the §13.2.6.5 camelCase
    // fixup spellings (as stored in the DOM inside <svg>).
    "svg", "altglyph", "altGlyph", "altglyphdef", "altGlyphDef", "altglyphitem", "altGlyphItem",
    "animate", "animatecolor", "animateColor", "animatemotion", "animateMotion",
    "animatetransform", "animateTransform", "circle", "clippath", "clipPath", "defs", "desc",
    "ellipse", "feblend", "feBlend", "fecolormatrix", "feColorMatrix", "fecomponenttransfer",
    "feComponentTransfer", "fecomposite", "feComposite", "feconvolvematrix", "feConvolveMatrix",
    "fediffuselighting", "feDiffuseLighting", "fedisplacementmap", "feDisplacementMap",
    "fedistantlight", "feDistantLight", "fedropshadow", "feDropShadow", "feflood", "feFlood",
    "fefunca", "feFuncA", "fefuncb", "feFuncB", "fefuncg", "feFuncG", "fefuncr", "feFuncR",
    "fegaussianblur", "feGaussianBlur", "feimage", "feImage", "femerge", "feMerge", "femergenode",
    "feMergeNode", "femorphology", "feMorphology", "feoffset", "feOffset", "fepointlight",
    "fePointLight", "fespecularlighting", "feSpecularLighting", "fespotlight", "feSpotLight",
    "fetile", "feTile", "feturbulence", "feTurbulence", "filter", "foreignobject",
    "foreignObject", "g", "glyphref", "glyphRef", "line", "lineargradient", "linearGradient",
    "marker", "mask", "metadata", "mpath", "path", "pattern", "polygon", "polyline",
    "radialgradient", "radialGradient", "rect", "set", "stop", "switch", "symbol", "text",
    "textpath", "textPath", "tspan", "use", "view",
    // MathML elements.
    "math", "annotation", "annotation-xml", "maction", "malignmark", "merror", "mfrac", "mglyph",
    "mi", "mmultiscripts", "mn", "mo", "mover", "mpadded", "mphantom", "mroot", "mrow", "ms",
    "mspace", "msqrt", "mstyle", "msub", "msubsup", "msup", "mtable", "mtd", "mtext", "mtr",
    "munder", "munderover", "semantics",
    // Common attribute names (HTML). Names that double as element names
    // (abbr, cite, data, form, label, span, style, summary, title, …) are
    // already present above — the table is one namespace.
    "accept", "accept-charset", "accesskey", "action", "align",
    "allow", "allowfullscreen", "alt", "archive", "aria-controls", "aria-describedby",
    "aria-expanded", "aria-hidden", "aria-label", "aria-labelledby", "async", "autocomplete",
    "autofocus", "autoplay", "background", "bgcolor", "border", "cellpadding", "cellspacing",
    "char", "charset", "checked", "class", "classid", "clear", "codebase", "codetype", "color",
    "cols", "colspan", "content", "contenteditable", "controls", "coords", "crossorigin",
    "data-id", "data-key", "data-name", "data-rank", "data-role", "data-src", "data-target",
    "data-toggle", "data-type", "data-value", "datetime", "declare", "default", "defer",
    "disabled", "download", "draggable", "enctype", "face", "for", "formaction", "frameborder",
    "headers", "height", "hidden", "high", "href", "hreflang", "hspace", "http-equiv", "icon",
    "id", "integrity", "is", "ismap", "itemid", "itemprop", "itemref", "itemscope", "itemtype",
    "kind", "lang", "language", "list", "longdesc", "loop", "low", "manifest", "marginheight",
    "marginwidth", "max", "maxlength", "media", "method", "min", "minlength", "multiple", "muted",
    "name", "nohref", "nonce", "noresize", "noshade", "novalidate", "nowrap", "onblur",
    "onchange", "onclick", "ondblclick", "onerror", "onfocus", "onkeydown", "onkeypress",
    "onkeyup", "onload", "onmousedown", "onmousemove", "onmouseout", "onmouseover", "onmouseup",
    "onsubmit", "onunload", "open", "optimum", "ping", "placeholder", "playsinline", "poster",
    "preload", "profile", "readonly", "referrerpolicy", "rel", "required", "rev", "reversed",
    "role", "rows", "rowspan", "rules", "sandbox", "scheme", "scope", "scrolling", "selected",
    "shape", "size", "sizes", "spellcheck", "src", "srcdoc", "srclang", "srcset", "standby",
    "start", "step", "tabindex", "target", "translate", "type", "usemap", "valign", "value",
    "valuetype", "version", "vlink", "vspace", "width", "wrap", "xmlns", "xmlns:xlink",
    // Foreign-content adjusted attribute spellings (§13.2.6.5 "adjust
    // SVG/MathML attributes") and their lowercase tokenized forms.
    "definitionurl", "definitionURL", "attributename", "attributeName", "attributetype",
    "attributeType", "basefrequency", "baseFrequency", "baseprofile", "baseProfile", "calcmode",
    "calcMode", "clippathunits", "clipPathUnits", "diffuseconstant", "diffuseConstant",
    "edgemode", "edgeMode", "filterunits", "filterUnits", "gradienttransform",
    "gradientTransform", "gradientunits", "gradientUnits", "kernelmatrix", "kernelMatrix",
    "kernelunitlength", "kernelUnitLength", "keypoints", "keyPoints", "keysplines", "keySplines",
    "keytimes", "keyTimes", "lengthadjust", "lengthAdjust", "limitingconeangle",
    "limitingConeAngle", "markerheight", "markerHeight", "markerunits", "markerUnits",
    "markerwidth", "markerWidth", "maskcontentunits", "maskContentUnits", "maskunits",
    "maskUnits", "numoctaves", "numOctaves", "pathlength", "pathLength", "patterncontentunits",
    "patternContentUnits", "patterntransform", "patternTransform", "patternunits",
    "patternUnits", "pointsatx", "pointsAtX", "pointsaty", "pointsAtY", "pointsatz", "pointsAtZ",
    "preservealpha", "preserveAlpha", "preserveaspectratio", "preserveAspectRatio",
    "primitiveunits", "primitiveUnits", "refx", "refX", "refy", "refY", "repeatcount",
    "repeatCount", "repeatdur", "repeatDur", "requiredextensions", "requiredExtensions",
    "requiredfeatures", "requiredFeatures", "specularconstant", "specularConstant",
    "specularexponent", "specularExponent", "spreadmethod", "spreadMethod", "startoffset",
    "startOffset", "stddeviation", "stdDeviation", "stitchtiles", "stitchTiles", "surfacescale",
    "surfaceScale", "systemlanguage", "systemLanguage", "tablevalues", "tableValues", "targetx",
    "targetX", "targety", "targetY", "textlength", "textLength", "viewbox", "viewBox",
    "viewtarget", "viewTarget", "xchannelselector", "xChannelSelector", "ychannelselector",
    "yChannelSelector", "zoomandpan", "zoomAndPan",
];

/// Byte-slice equality usable in `const fn`.
const fn const_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Index of `name` in [`STATIC_ATOMS`], for use in constants; a name
/// missing from the table fails the build.
pub(crate) const fn known_id(name: &str) -> u16 {
    let mut i = 0;
    while i < ATOMS.len() {
        if const_eq(ATOMS[i].as_bytes(), name.as_bytes()) {
            return i as u16;
        }
        i += 1;
    }
    panic!("name missing from STATIC_ATOMS");
}

/// The static-table [`Atom`] for a literal name, resolved at compile time
/// (no table lookup at run time). Crate-internal: hot paths that compare
/// against a fixed name use it instead of [`Atom::from_name`].
macro_rules! atom {
    ($name:literal) => {{
        const ATOM: $crate::atoms::Atom = $crate::atoms::Atom::known($name);
        ATOM
    }};
}
pub(crate) use atom;

/// Slots in [`STATIC_INDEX`]: a power of two at least twice the table
/// size, so most probes end at the name's home slot.
const INDEX_SLOTS: usize = (ATOMS.len() * 2).next_power_of_two();

/// An unused [`STATIC_INDEX`] slot (no table holds `u16::MAX` names).
const EMPTY_SLOT: u16 = u16::MAX;

/// Where the probe for `name` starts: FNV-1a over its bytes.
const fn home_slot(name: &[u8]) -> usize {
    let mut hash: u32 = 0x811c_9dc5;
    let mut i = 0;
    while i < name.len() {
        hash ^= name[i] as u32;
        hash = hash.wrapping_mul(0x0100_0193);
        i += 1;
    }
    hash as usize & (INDEX_SLOTS - 1)
}

/// Open-addressing hash index into [`STATIC_ATOMS`] (linear probing):
/// each slot holds a table index or [`EMPTY_SLOT`].
static STATIC_INDEX: [u16; INDEX_SLOTS] = build_index();

const fn build_index() -> [u16; INDEX_SLOTS] {
    assert!(ATOMS.len() < EMPTY_SLOT as usize);
    let mut slots = [EMPTY_SLOT; INDEX_SLOTS];
    let mut id = 0;
    while id < ATOMS.len() {
        let name = ATOMS[id].as_bytes();
        let mut slot = home_slot(name);
        while slots[slot] != EMPTY_SLOT {
            // Equal names share a home slot, so a duplicate meets its twin
            // on this walk.
            assert!(!const_eq(ATOMS[slots[slot] as usize].as_bytes(), name), "duplicate name");
            slot = (slot + 1) & (INDEX_SLOTS - 1);
        }
        slots[slot] = id as u16;
        id += 1;
    }
    slots
}

/// Look up a name in the static table: walk from its home slot to the
/// first empty one, comparing the full text of each name met.
fn lookup_static(name: &str) -> Option<u16> {
    let mut slot = home_slot(name.as_bytes());
    loop {
        let id = STATIC_INDEX[slot];
        if id == EMPTY_SLOT {
            return None;
        }
        if STATIC_ATOMS[id as usize] == name {
            return Some(id);
        }
        slot = (slot + 1) & (INDEX_SLOTS - 1);
    }
}

/// An interned tag or attribute name. See the module docs for the
/// representation invariant that makes equality cheap.
#[derive(Clone)]
pub struct Atom(Repr);

#[derive(Clone)]
enum Repr {
    /// Index into [`STATIC_ATOMS`].
    Static(u16),
    /// A name outside the static table, shared via the per-parse interner.
    Dyn(Arc<str>),
}

impl Atom {
    /// Intern a name without an [`Interner`] (cold paths: tests, checker
    /// literals, fragment contexts). Unknown names allocate a fresh `Arc`.
    pub fn from_name(name: &str) -> Atom {
        match lookup_static(name) {
            Some(i) => Atom(Repr::Static(i)),
            None => Atom(Repr::Dyn(Arc::from(name))),
        }
    }

    /// The static atom for a name in [`STATIC_ATOMS`], for constants
    /// (`const META: Atom = Atom::known("meta");`): comparing an atom
    /// against one is an integer compare. Panics on a name missing from
    /// the table, which in a constant fails the build.
    pub const fn known(name: &str) -> Atom {
        Atom(Repr::Static(known_id(name)))
    }

    /// Construct from a known static-table index (crate-internal: used by
    /// precomputed id→id maps like the SVG tag fixups).
    #[inline]
    pub(crate) fn from_static_id(id: u16) -> Atom {
        debug_assert!((id as usize) < STATIC_ATOMS.len());
        Atom(Repr::Static(id))
    }

    /// The atom's text.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(i) => STATIC_ATOMS[*i as usize],
            Repr::Dyn(s) => s,
        }
    }

    /// Index into [`STATIC_ATOMS`] for known names, and `u16::MAX` (an
    /// index no table name has, see `build_index`) for dynamic atoms. A
    /// `match` over constant ids (`tree_builder::names`) is one integer
    /// switch, and by the module invariant a dynamic atom can never equal
    /// a listed name, so it takes the default arm.
    #[inline]
    pub(crate) fn id(&self) -> u16 {
        match &self.0 {
            Repr::Static(i) => *i,
            Repr::Dyn(_) => u16::MAX,
        }
    }

    /// Index into [`STATIC_ATOMS`] for known names, `None` for dynamic
    /// atoms. Classification bitsets key on this.
    #[inline]
    pub fn static_id(&self) -> Option<usize> {
        match &self.0 {
            Repr::Static(i) => Some(*i as usize),
            Repr::Dyn(_) => None,
        }
    }
}

impl Default for Atom {
    /// The empty name (`STATIC_ATOMS[0]`).
    fn default() -> Self {
        Atom(Repr::Static(0))
    }
}

impl Deref for Atom {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Atom {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Atom {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Atom {
    #[inline]
    fn eq(&self, other: &Atom) -> bool {
        match (&self.0, &other.0) {
            (Repr::Static(a), Repr::Static(b)) => a == b,
            // Module invariant: dynamic text is never in the static table,
            // so mixed comparisons are always unequal.
            (Repr::Static(_), Repr::Dyn(_)) | (Repr::Dyn(_), Repr::Static(_)) => false,
            (Repr::Dyn(a), Repr::Dyn(b)) => Arc::ptr_eq(a, b) || a == b,
        }
    }
}

impl Eq for Atom {}

impl PartialEq<str> for Atom {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Atom {
    #[inline]
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Atom> for str {
    fn eq(&self, other: &Atom) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Atom> for &str {
    fn eq(&self, other: &Atom) -> bool {
        *self == other.as_str()
    }
}

impl Hash for Atom {
    /// Hash the text (not the representation) so `Borrow<str>`-keyed maps
    /// and mixed static/dynamic sets behave like string keys.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Atom {
    fn from(name: &str) -> Atom {
        Atom::from_name(name)
    }
}

impl From<&String> for Atom {
    fn from(name: &String) -> Atom {
        Atom::from_name(name)
    }
}

impl From<&Atom> for Atom {
    /// Cheap: an integer copy for static atoms, an `Arc` bump otherwise.
    fn from(atom: &Atom) -> Atom {
        atom.clone()
    }
}

/// Per-parse dedup set for names outside the static table. One lives in
/// the tokenizer; fresh per parse (see module docs).
pub struct Interner {
    dynamic: std::collections::HashSet<Arc<str>>,
    /// Direct-mapped memo over *all* intern results. Documents repeat the
    /// same handful of tag and attribute names over and over, so most
    /// interns become one string compare and a cheap clone instead of a
    /// hash over the whole name (and, for unknown names, a set probe).
    /// Collisions just evict; correctness comes from the full-string
    /// compare on hit.
    cache: [Atom; CACHE_SLOTS],
}

const CACHE_SLOTS: usize = 64;

/// Slot for `name`: mixes first byte and length, which tell most of a
/// page's names apart without reading the rest.
#[inline]
fn cache_slot(name: &str) -> usize {
    let first = name.as_bytes().first().copied().unwrap_or(0) as usize;
    (first ^ (name.len().wrapping_mul(37))) & (CACHE_SLOTS - 1)
}

impl Default for Interner {
    fn default() -> Interner {
        Interner {
            dynamic: std::collections::HashSet::new(),
            cache: std::array::from_fn(|_| Atom::default()),
        }
    }
}

impl Interner {
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern `name`: memo hit, then static-table hit, then per-parse
    /// dedup, then a fresh shared allocation.
    pub fn intern(&mut self, name: &str) -> Atom {
        if name.is_empty() {
            return Atom::default();
        }
        let slot = cache_slot(name);
        if self.cache[slot].as_str() == name {
            return self.cache[slot].clone();
        }
        let atom = self.intern_uncached(name);
        self.cache[slot] = atom.clone();
        atom
    }

    fn intern_uncached(&mut self, name: &str) -> Atom {
        if let Some(i) = lookup_static(name) {
            return Atom(Repr::Static(i));
        }
        if let Some(existing) = self.dynamic.get(name) {
            return Atom(Repr::Dyn(existing.clone()));
        }
        let arc: Arc<str> = Arc::from(name);
        self.dynamic.insert(arc.clone());
        Atom(Repr::Dyn(arc))
    }
}

/// Max bytes stored inline in a [`SharedStr`]. 22 + length byte + enum tag
/// keeps the whole value at 24 bytes — the same size as the `String` it
/// replaces, with no heap behind it.
const INLINE_CAP: usize = 22;

/// An immutable, cheaply clonable string for attribute values: inline for
/// short text, shared (`Arc<str>`) beyond [`INLINE_CAP`].
#[derive(Clone)]
pub struct SharedStr(SRepr);

#[derive(Clone)]
enum SRepr {
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Heap(Arc<str>),
}

impl SharedStr {
    pub fn new(s: &str) -> SharedStr {
        if s.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            SharedStr(SRepr::Inline { len: s.len() as u8, buf })
        } else {
            SharedStr(SRepr::Heap(Arc::from(s)))
        }
    }

    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            SRepr::Inline { len, buf } => {
                // SAFETY: `buf[..len]` was copied verbatim from a `&str` in
                // `SharedStr::new` and never mutated afterwards (there is no
                // mutating API), so it is valid UTF-8.
                unsafe { std::str::from_utf8_unchecked(&buf[..*len as usize]) }
            }
            SRepr::Heap(s) => s,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.as_str().is_empty()
    }

    pub fn len(&self) -> usize {
        self.as_str().len()
    }
}

impl Default for SharedStr {
    fn default() -> Self {
        SharedStr(SRepr::Inline { len: 0, buf: [0u8; INLINE_CAP] })
    }
}

impl Deref for SharedStr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for SharedStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for SharedStr {
    fn eq(&self, other: &SharedStr) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for SharedStr {}

impl PartialEq<str> for SharedStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for SharedStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<SharedStr> for str {
    fn eq(&self, other: &SharedStr) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<SharedStr> for &str {
    fn eq(&self, other: &SharedStr) -> bool {
        *self == other.as_str()
    }
}

impl Hash for SharedStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for SharedStr {
    fn from(s: &str) -> SharedStr {
        SharedStr::new(s)
    }
}

impl From<String> for SharedStr {
    fn from(s: String) -> SharedStr {
        if s.len() <= INLINE_CAP {
            SharedStr::new(&s)
        } else {
            // Reuses the String's buffer when capacity allows.
            SharedStr(SRepr::Heap(Arc::from(s)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_table_is_unique() {
        let mut sorted: Vec<&str> = STATIC_ATOMS.to_vec();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert_ne!(w[0], w[1], "duplicate static atom {:?}", w[0]);
        }
    }

    /// The hash index answers what a linear scan of the table answers, for
    /// every name and its near misses: each proper prefix, the name plus
    /// one byte, the ASCII-uppercased name, and the empty name.
    #[test]
    fn static_lookup_matches_a_linear_scan() {
        let check = |x: &str| {
            let reference = STATIC_ATOMS.iter().position(|&n| n == x);
            assert_eq!(Atom::from_name(x).static_id(), reference, "{x:?}");
        };
        check("");
        let mut longer = String::new();
        for &name in STATIC_ATOMS {
            check(name);
            for end in 0..name.len() {
                check(&name[..end]);
            }
            for extra in ' '..='~' {
                longer.clear();
                longer.push_str(name);
                longer.push(extra);
                check(&longer);
            }
            check(&name.to_ascii_uppercase());
        }
    }

    /// Two names whose probes start at the same slot both resolve: the
    /// second one in the table sits further along the probe sequence.
    #[test]
    fn names_sharing_a_home_slot_both_resolve() {
        let mut first_at = std::collections::HashMap::new();
        let (a, b) = (0..STATIC_ATOMS.len())
            .find_map(|id| {
                let prev = first_at.insert(home_slot(STATIC_ATOMS[id].as_bytes()), id);
                prev.map(|prev| (prev, id))
            })
            .expect("some two names share a home slot");
        assert_ne!(STATIC_INDEX[home_slot(STATIC_ATOMS[b].as_bytes())], b as u16);
        for id in [a, b] {
            assert_eq!(Atom::from_name(STATIC_ATOMS[id]).static_id(), Some(id));
        }
    }

    #[test]
    fn known_names_are_static() {
        for name in ["div", "img", "svg", "foreignObject", "annotation-xml", "href", "viewBox"] {
            let atom = Atom::from_name(name);
            assert!(atom.static_id().is_some(), "{name} should be static");
            assert_eq!(atom, name);
        }
    }

    #[test]
    fn unknown_names_are_dynamic_and_roundtrip() {
        let atom = Atom::from_name("x-custom-widget");
        assert!(atom.static_id().is_none());
        assert_eq!(atom.as_str(), "x-custom-widget");
        assert_eq!(atom, "x-custom-widget");
    }

    #[test]
    fn equality_static_vs_dynamic_text() {
        // A dynamic atom can only hold non-static text, so this is about
        // distinct names comparing unequal and same-name dynamic atoms
        // comparing equal.
        let mut interner = Interner::new();
        let a = interner.intern("frobnicate");
        let b = interner.intern("frobnicate");
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(
            match &a.0 {
                Repr::Dyn(s) => s,
                _ => panic!(),
            },
            match &b.0 {
                Repr::Dyn(s) => s,
                _ => panic!(),
            }
        ));
        assert_ne!(a, Atom::from_name("div"));
    }

    #[test]
    fn interner_static_first() {
        let mut interner = Interner::new();
        assert!(interner.intern("div").static_id().is_some());
        assert!(interner.intern("DIV").static_id().is_none(), "lookup is case-sensitive");
    }

    #[test]
    fn hash_matches_str_hash() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: impl Hash) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(Atom::from_name("div")), h("div"));
        assert_eq!(h(Atom::from_name("x-unknown")), h("x-unknown"));
    }

    #[test]
    fn shared_str_inline_and_heap() {
        let short = SharedStr::new("hello");
        assert!(matches!(short.0, SRepr::Inline { .. }));
        assert_eq!(short, "hello");

        let exactly = SharedStr::new("0123456789012345678901"); // 22 bytes
        assert!(matches!(exactly.0, SRepr::Inline { .. }));
        assert_eq!(exactly.len(), 22);

        let long = SharedStr::new("this string is longer than twenty-two bytes");
        assert!(matches!(long.0, SRepr::Heap(_)));
        assert_eq!(long, "this string is longer than twenty-two bytes");

        // Multi-byte UTF-8 survives the inline path.
        let uni = SharedStr::new("héllo ✓");
        assert_eq!(uni.as_str(), "héllo ✓");
    }

    #[test]
    fn shared_str_equality_across_reprs() {
        let s = "0123456789012345678901x"; // 23 bytes -> heap
        let heap = SharedStr::new(s);
        let trimmed = SharedStr::new(&s[..22]);
        assert_ne!(heap, trimmed);
        assert_eq!(heap.clone(), heap);
    }
}
