//! Request routing and endpoint logic.
//!
//! One [`Handler`] lives on each worker thread and owns that worker's
//! [`Battery`] — constructed once at startup, reused for every request, so
//! the hot path allocates nothing per request beyond the response body.
//! Everything shared and read-only (the loaded [`IndexedStore`], the
//! metrics registry, limits) sits behind one [`Shared`] Arc. The
//! aggregate index is built **once** at startup; report endpoints render
//! from it with no per-request re-aggregation. The side studies behind
//! `aux` and `all` are run by the first request that needs them and kept
//! in the store ([`IndexedStore::aux`]).
//!
//! Every handler runs inside a `catch_unwind` boundary: a panic on a
//! hostile document becomes a `500 internal_panic` response and a fresh
//! battery, never a dead worker — the page-level quarantine philosophy of
//! the scan engine (§7), applied to a network service.

use crate::api::v1;
use crate::http::{Request, Response};
use crate::metrics::Metrics;
use hv_core::{autofix, Battery, CheckContext, HvError, InputError, ViolationKind};
use hv_pipeline::IndexedStore;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// State shared by every worker.
pub struct Shared {
    /// Result store loaded and indexed at startup (`--store`); report
    /// endpoints 409 without one.
    pub store: Option<IndexedStore>,
    pub metrics: Metrics,
    /// Byte budget for request bodies — the §7 `OversizedBody` guard,
    /// enforced both pre-read (Content-Length) and pre-parse.
    pub max_body: usize,
}

/// The outcome of dispatching one request.
pub struct Handled {
    pub response: Response,
    /// Route pattern for metrics (`POST /v1/check`, not the raw path).
    pub route: &'static str,
    /// Whether the handler panicked (already mapped to a 500).
    pub panicked: bool,
}

/// Per-worker handler: shared state + a worker-owned battery.
pub struct Handler {
    shared: Arc<Shared>,
    battery: Battery,
}

impl Handler {
    pub fn new(shared: Arc<Shared>) -> Self {
        Handler { shared, battery: Battery::full() }
    }

    /// Route and execute one request inside the panic boundary.
    pub fn handle(&mut self, req: &Request) -> Handled {
        let (route, known) = route_of(req);
        if !known {
            let response = if route_exists(&req.path) {
                Response::error(
                    405,
                    "method_not_allowed",
                    format!("{} not allowed here", req.method),
                )
            } else {
                Response::error(404, "not_found", format!("no such endpoint: {}", req.path))
            };
            return Handled { response, route, panicked: false };
        }
        let result = catch_unwind(AssertUnwindSafe(|| self.dispatch(route, req)));
        match result {
            Ok(response) => Handled { response, route, panicked: false },
            Err(_) => {
                // The battery's scratch state is suspect after an unwind;
                // rebuild it. Costs one construction, keeps the worker.
                self.battery = Battery::full();
                let response = Response::error(
                    500,
                    "internal_panic",
                    "the handler panicked on this input; the worker recovered",
                );
                Handled { response, route, panicked: true }
            }
        }
    }

    fn dispatch(&mut self, route: &'static str, req: &Request) -> Response {
        match route {
            "GET /healthz" => Response::text(200, "ok\n"),
            "GET /metricsz" => Response::json(200, &self.shared.metrics.snapshot()),
            "POST /v1/check" => self.check(req),
            "POST /v1/fix" => self.fix(req),
            "GET /v1/explain/{kind}" => explain(&req.path),
            "GET /v1/report/{experiment}" => self.report(&req.path),
            "GET /v1/store/summary" => self.store_summary(),
            _ => unreachable!("route_of returned an unhandled route"),
        }
    }

    /// `POST /v1/check`: JSON `{"html": …}` or a raw `text/html` body.
    fn check(&mut self, req: &Request) -> Response {
        let html = match self.request_html(req) {
            Ok(html) => html,
            Err(resp) => return resp,
        };
        let cx = CheckContext::new(&html);
        let report = self.battery.run_ref(&cx);
        Response::json(200, &v1::CheckResponse::from(report))
    }

    /// `POST /v1/fix`: same request shape, returns the §4.4 repair.
    fn fix(&mut self, req: &Request) -> Response {
        let html = match self.request_html(req) {
            Ok(html) => html,
            Err(resp) => return resp,
        };
        let outcome = autofix::auto_fix(&html);
        Response::json(200, &v1::FixResponse::from(&outcome))
    }

    /// Extract the document from either request encoding, applying the
    /// byte budget and the §4.1 UTF-8 filter uniformly.
    fn request_html(&self, req: &Request) -> Result<String, Response> {
        if req.body.len() > self.shared.max_body {
            return Err(error_response(&HvError::from(InputError::TooLarge {
                len: req.body.len(),
                budget: self.shared.max_body,
            })));
        }
        if req.content_type().as_deref() == Some("text/html") {
            return match std::str::from_utf8(&req.body) {
                Ok(text) => Ok(text.to_owned()),
                Err(e) => Err(error_response(&HvError::from(InputError::NotUtf8 {
                    valid_up_to: e.valid_up_to(),
                }))),
            };
        }
        let parsed: v1::CheckRequest = serde_json::from_slice(&req.body)
            .map_err(|e| error_response(&HvError::parse("CheckRequest", e.to_string())))?;
        if parsed.html.len() > self.shared.max_body {
            return Err(error_response(&HvError::from(InputError::TooLarge {
                len: parsed.html.len(),
                budget: self.shared.max_body,
            })));
        }
        Ok(parsed.html)
    }

    /// `GET /v1/explain/{kind}` — see free fn [`explain`].
    /// `GET /v1/report/{experiment}`: render one experiment as text.
    fn report(&self, path: &str) -> Response {
        let name = path.trim_start_matches("/v1/report/");
        let Some(store) = &self.shared.store else {
            return Response::error(
                409,
                "store_not_loaded",
                "this server was started without --store; report endpoints are unavailable",
            );
        };
        match hv_report::render(name, store) {
            Some(text) => Response::text(200, text),
            None => Response::error(
                404,
                "not_found",
                format!(
                    "unknown experiment: {name} (known: {})",
                    hv_report::EXPERIMENTS.join(", ")
                ),
            ),
        }
    }

    /// `GET /v1/store/summary`: provenance of the loaded store.
    fn store_summary(&self) -> Response {
        match &self.shared.store {
            Some(store) => Response::json(200, &v1::StoreSummary::from(store)),
            None => Response::error(
                409,
                "store_not_loaded",
                "this server was started without --store; report endpoints are unavailable",
            ),
        }
    }
}

/// `GET /v1/explain/{kind}`: one taxonomy entry, case-insensitive id.
fn explain(path: &str) -> Response {
    let id = path.trim_start_matches("/v1/explain/");
    match ViolationKind::from_id(&id.to_ascii_uppercase()) {
        Some(kind) => Response::json(200, &v1::ExplainResponse::from(kind)),
        None => Response::error(
            404,
            "not_found",
            format!("unknown violation: {id} (try FB2, DM3, HF5.1, … or `hva explain all`)"),
        ),
    }
}

/// Map a request to its route pattern. The bool says whether the
/// (method, path) pair is an actual endpoint; `false` yields 404/405.
fn route_of(req: &Request) -> (&'static str, bool) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("GET /healthz", true),
        ("GET", "/metricsz") => ("GET /metricsz", true),
        ("POST", "/v1/check") => ("POST /v1/check", true),
        ("POST", "/v1/fix") => ("POST /v1/fix", true),
        ("GET", "/v1/store/summary") => ("GET /v1/store/summary", true),
        ("GET", p) if p.starts_with("/v1/explain/") => ("GET /v1/explain/{kind}", true),
        ("GET", p) if p.starts_with("/v1/report/") => ("GET /v1/report/{experiment}", true),
        _ => ("other", false),
    }
}

/// Whether the path names a known endpoint under *some* method — the
/// 405-vs-404 distinction.
fn route_exists(path: &str) -> bool {
    matches!(path, "/healthz" | "/metricsz" | "/v1/check" | "/v1/fix" | "/v1/store/summary")
        || path.starts_with("/v1/explain/")
        || path.starts_with("/v1/report/")
}

/// The one place an [`HvError`] becomes an HTTP response. Startup errors
/// never get here (they abort `serve`); everything else maps onto the v1
/// error codes.
pub fn error_response(e: &HvError) -> Response {
    let (status, code) = match e {
        HvError::Parse { .. } => (400, "bad_request"),
        HvError::Input(InputError::TooLarge { .. }) => (413, "body_too_large"),
        HvError::Input(InputError::NotUtf8 { .. }) => (400, "body_not_utf8"),
        HvError::Store { .. } => (500, "store_error"),
        HvError::StoreCorrupt { .. } => (500, "store_error"),
        HvError::Io { .. } => (500, "io_error"),
        HvError::Server { .. } => (500, "server_error"),
        // `HvError` is #[non_exhaustive]: future variants degrade to 500
        // instead of breaking the build.
        _ => (500, "server_error"),
    };
    Response::error(status, code, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str, body: &[u8], content_type: Option<&str>) -> Request {
        let mut headers = Vec::new();
        if let Some(ct) = content_type {
            headers.push(("content-type".to_owned(), ct.to_owned()));
        }
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            headers,
            body: body.to_vec(),
            keep_alive: true,
        }
    }

    fn handler(store: Option<hv_pipeline::ResultStore>) -> Handler {
        let store = store.map(IndexedStore::new);
        Handler::new(Arc::new(Shared { store, metrics: Metrics::new(), max_body: 1 << 20 }))
    }

    fn body_str(resp: &Response) -> String {
        String::from_utf8(resp.body.clone()).unwrap()
    }

    #[test]
    fn check_json_and_raw_html_agree() {
        let mut h = handler(None);
        let doc = r#"<img src="x.png"onerror="alert(1)">"#;
        let json_req = request(
            "POST",
            "/v1/check",
            serde_json::to_string(&v1::CheckRequest { html: doc.into() }).unwrap().as_bytes(),
            Some("application/json"),
        );
        let raw_req = request("POST", "/v1/check", doc.as_bytes(), Some("text/html"));
        let a = h.handle(&json_req);
        let b = h.handle(&raw_req);
        assert_eq!(a.response.status, 200);
        assert_eq!(body_str(&a.response), body_str(&b.response));
        let parsed: v1::CheckResponse = serde_json::from_str(&body_str(&a.response)).unwrap();
        assert!(parsed.findings.iter().any(|f| f.kind == "FB2"));
    }

    #[test]
    fn malformed_json_is_bad_request() {
        let mut h = handler(None);
        let r = h.handle(&request("POST", "/v1/check", b"{not json", Some("application/json")));
        assert_eq!(r.response.status, 400);
        let e: v1::ErrorBody = serde_json::from_str(&body_str(&r.response)).unwrap();
        assert_eq!(e.code, "bad_request");
    }

    #[test]
    fn non_utf8_raw_body_is_rejected() {
        let mut h = handler(None);
        let r = h.handle(&request("POST", "/v1/check", &[0xff, 0xfe, 0x80], Some("text/html")));
        assert_eq!(r.response.status, 400);
        let e: v1::ErrorBody = serde_json::from_str(&body_str(&r.response)).unwrap();
        assert_eq!(e.code, "body_not_utf8");
    }

    #[test]
    fn fix_round_trips() {
        let mut h = handler(None);
        let doc = r#"<img src=a src=b>"#;
        let r = h.handle(&request("POST", "/v1/fix", doc.as_bytes(), Some("text/html")));
        assert_eq!(r.response.status, 200);
        let fix: v1::FixResponse = serde_json::from_str(&body_str(&r.response)).unwrap();
        assert!(fix.before.contains(&"DM3".to_owned()));
        assert!(fix.eliminated.contains(&"DM3".to_owned()));
    }

    #[test]
    fn explain_known_and_unknown() {
        let mut h = handler(None);
        let ok = h.handle(&request("GET", "/v1/explain/fb2", b"", None));
        assert_eq!(ok.response.status, 200);
        let dto: v1::ExplainResponse = serde_json::from_str(&body_str(&ok.response)).unwrap();
        assert_eq!(dto.kind, "FB2");
        let bad = h.handle(&request("GET", "/v1/explain/XX9", b"", None));
        assert_eq!(bad.response.status, 404);
    }

    #[test]
    fn report_without_store_conflicts() {
        let mut h = handler(None);
        let r = h.handle(&request("GET", "/v1/report/table1", b"", None));
        assert_eq!(r.response.status, 409);
        let e: v1::ErrorBody = serde_json::from_str(&body_str(&r.response)).unwrap();
        assert_eq!(e.code, "store_not_loaded");
        let s = h.handle(&request("GET", "/v1/store/summary", b"", None));
        assert_eq!(s.response.status, 409);
    }

    #[test]
    fn report_with_store_renders() {
        // Scale 0.0 is the one-domain universe, so the side studies behind
        // `aux` stay small.
        let store = hv_pipeline::ResultStore::new(7, 0.0, 1);
        let mut h = handler(Some(store));
        let r = h.handle(&request("GET", "/v1/report/table1", b"", None));
        assert_eq!(r.response.status, 200);
        assert!(body_str(&r.response).contains("Table 1"));
        let aux = h.handle(&request("GET", "/v1/report/aux", b"", None));
        assert_eq!(aux.response.status, 200);
        let all = h.handle(&request("GET", "/v1/report/all", b"", None));
        assert_eq!(all.response.status, 200);
        assert!(body_str(&all.response).ends_with(&body_str(&aux.response)));
        let unknown = h.handle(&request("GET", "/v1/report/fig99", b"", None));
        assert_eq!(unknown.response.status, 404);
        let s = h.handle(&request("GET", "/v1/store/summary", b"", None));
        let dto: v1::StoreSummary = serde_json::from_str(&body_str(&s.response)).unwrap();
        assert_eq!(dto.seed, 7);
        assert!(dto.experiments.contains(&"fig8".to_owned()));
    }

    #[test]
    fn unknown_path_404_wrong_method_405() {
        let mut h = handler(None);
        assert_eq!(h.handle(&request("GET", "/nope", b"", None)).response.status, 404);
        assert_eq!(h.handle(&request("DELETE", "/v1/check", b"", None)).response.status, 405);
        assert_eq!(h.handle(&request("POST", "/healthz", b"", None)).response.status, 405);
    }

    #[test]
    fn oversized_json_html_is_413() {
        let mut h =
            Handler::new(Arc::new(Shared { store: None, metrics: Metrics::new(), max_body: 64 }));
        let big = "x".repeat(100);
        let r = h.handle(&request("POST", "/v1/check", big.as_bytes(), Some("text/html")));
        assert_eq!(r.response.status, 413);
        let e: v1::ErrorBody = serde_json::from_str(&body_str(&r.response)).unwrap();
        assert_eq!(e.code, "body_too_large");
    }

    #[test]
    fn hv_error_mapping_is_total() {
        let cases: Vec<(HvError, u16)> = vec![
            (HvError::parse("x", "y"), 400),
            (HvError::from(InputError::TooLarge { len: 2, budget: 1 }), 413),
            (HvError::from(InputError::NotUtf8 { valid_up_to: 0 }), 400),
            (HvError::store(std::path::Path::new("/s"), "z"), 500),
            (HvError::store_corrupt(std::path::Path::new("/s"), Some(1), 64, "bad crc"), 500),
            (HvError::io("ctx", std::io::Error::other("e")), 500),
            (HvError::server("boom"), 500),
        ];
        for (e, status) in cases {
            assert_eq!(error_response(&e).status, status, "{e}");
        }
    }
}
