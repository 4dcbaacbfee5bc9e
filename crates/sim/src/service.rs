//! The multi-campaign coordinator service: `POST /campaigns` over the
//! readiness loop.
//!
//! [`transport::serve_with`](crate::transport::serve_with) runs exactly
//! one campaign and exits; this module runs the same single-threaded
//! `poll(2)` loop as a **long-lived service** that outlives any one
//! campaign. HTTP clients submit campaign descriptions
//! ([`CampaignRequest`], validated against the scenario registry),
//! each submission moves through the lifecycle
//!
//! ```text
//! queued → serving → complete → fetched
//!            ↓ (admission failure)
//!          failed
//! ```
//!
//! and workers are handed leases from whichever campaign is currently
//! serving. One campaign serves at a time — determinism and the
//! fingerprint handshake stay exactly as strong as the single-campaign
//! coordinator's — while submissions queue behind it, so a single
//! coordinator process accepts and completes any number of campaigns
//! without restarting.
//!
//! **Same admission path.** Every record enters a campaign through
//! [`ServeState::admit`] — the identical verify/dedup/write-ahead path
//! the single-campaign loop uses — whether it arrives as a live worker
//! frame, a per-campaign journal replay, or a `--cache` pre-fill at
//! promotion time. Results fetched from the service are therefore
//! byte-identical to an in-process run of the same description
//! (asserted end-to-end in `crates/bench/tests/service.rs` and the CI
//! `service` job).
//!
//! **Endpoints.**
//!
//! | Method + path | Purpose |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /status` | service overview: campaign table + worker roster |
//! | `POST /campaigns` | submit a campaign description (JSON body) |
//! | `GET /campaigns/<id>` | one campaign's lifecycle + progress |
//! | `GET /campaigns/<id>/results` | assembled reports (text/CSV/JSON) |
//!
//! Malformed descriptions get a `400` with the reason, oversized bodies
//! a `413`, unknown ids a `404`, and premature result fetches a `409` —
//! none of which disturb an in-flight campaign.
//!
//! **Workers between campaigns.** A worker that connects while nothing
//! is serving receives a [`Frame::Retry`] instead of a hello and
//! reconnects after the suggested delay ([`transport::work`] honors it
//! within its connect window), so idle periods cannot wedge a worker in
//! a handshake that will never progress.

use crate::cache::Cache;
use crate::conn::{ActiveLease, HttpConn, WorkerConn, WorkerPhase};
use crate::executor::ExecutorError;
use crate::http;
use crate::json;
use crate::metrics_codec::{CampaignHeader, Frame, ShardRecord};
use crate::readiness::{listener_fd, stream_fd, PollSet};
use crate::run::{campaign_fingerprint, RunSpec, UniquePlan};
use crate::scenario::{self, CampaignRequest, Registry, ScenarioReport};
use crate::transport::{
    worker_roster_json, JournalWriter, ServeOptions, ServeSignals, ServeState, DRAIN_WINDOW,
    HANDSHAKE_DEADLINE, HTTP_CLIENT_WINDOW, READ_TICK,
};
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Reconnect delay suggested to workers that arrive between campaigns.
pub const RETRY_AFTER_MS: u64 = 500;

/// Everything [`serve_service`] needs, bundled like
/// [`transport::ServeConfig`](crate::transport::ServeConfig).
pub struct ServiceConfig<'a> {
    /// The already-bound listener workers connect to.
    pub listener: &'a TcpListener,
    /// The already-bound HTTP listener (mandatory here: a submission
    /// service without a submission endpoint is useless).
    pub http: &'a TcpListener,
    /// Lease policy applied to every campaign (`expect` is ignored —
    /// the quorum gate is a single-campaign start-up optimisation).
    pub opts: &'a ServeOptions,
    /// Out-of-band abort/finished signalling shared with the caller.
    pub signals: &'a ServeSignals,
    /// Optional result cache: consulted at each campaign's promotion
    /// (pre-fill through the admission path) and fed by every live
    /// record, so one campaign's results warm the next submission's.
    pub cache: Option<&'a Cache>,
    /// Optional journal *directory*: each campaign write-ahead journals
    /// to `campaign-<id>.journal` inside it.
    pub journal_dir: Option<&'a Path>,
    /// `sync_data` interval for campaign journals (records per sync;
    /// 0 = only at completion).
    pub journal_sync: usize,
    /// Exit cleanly once this many campaigns reach `fetched` (`None` =
    /// serve forever). This is how CI and tests get a deterministic
    /// shutdown without killing the process.
    pub max_campaigns: Option<usize>,
}

/// What a finished [`serve_service`] session did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceSummary {
    /// Campaigns accepted via `POST /campaigns`.
    pub submitted: usize,
    /// Campaigns served to completion (fetched ones included).
    pub completed: usize,
    /// Campaigns whose results were fetched at least once.
    pub fetched: usize,
    /// Campaigns that failed admission or serving.
    pub failed: usize,
}

/// Where a submitted campaign stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lifecycle {
    /// Accepted; waiting for the coordinator to finish earlier work.
    Queued,
    /// The campaign workers are currently leased from.
    Serving,
    /// Every index has a verified result; reports are assembled.
    Complete,
    /// Results have been fetched at least once (they stay fetchable).
    Fetched,
    /// Admission or serving failed; `failure` has the reason.
    Failed,
}

impl Lifecycle {
    fn as_str(self) -> &'static str {
        match self {
            Lifecycle::Queued => "queued",
            Lifecycle::Serving => "serving",
            Lifecycle::Complete => "complete",
            Lifecycle::Fetched => "fetched",
            Lifecycle::Failed => "failed",
        }
    }

    fn done(self) -> bool {
        matches!(self, Lifecycle::Complete | Lifecycle::Fetched)
    }
}

/// One submitted campaign, from POST body to fetched results.
struct Campaign {
    id: u64,
    request: CampaignRequest,
    /// The namespace the request's names resolve in: built-ins plus
    /// any sweep definitions embedded in the submission.
    registry: Registry,
    header: CampaignHeader,
    plans: Vec<Vec<RunSpec>>,
    /// The distinct specs of `plans` ([`UniquePlan::specs`]), owned:
    /// what is leased, journaled, cached and fingerprinted.
    specs: Vec<RunSpec>,
    fingerprint: u64,
    state: ServeState,
    lifecycle: Lifecycle,
    failure: Option<String>,
    /// Indices satisfied from the cache at promotion.
    cached: usize,
    submitted: Instant,
    /// The rendered results document, built once at completion.
    results: Option<String>,
}

impl Campaign {
    /// Builds a queued campaign from a validated description.
    ///
    /// # Errors
    ///
    /// Returns the reason when an embedded sweep definition is invalid
    /// or a requested scenario is unknown — a `400` for the submitter,
    /// never a service panic.
    fn new(id: u64, request: CampaignRequest, opts: &ServeOptions) -> Result<Campaign, String> {
        let registry = request.registry()?;
        let scenarios = registry.resolve(&request.scenarios)?;
        let plans: Vec<Vec<RunSpec>> = scenarios.iter().map(|s| s.plan(&request.opts)).collect();
        let unique = UniquePlan::from_plans(&plans);
        let runs = unique.specs.len();
        let fingerprint = campaign_fingerprint(&unique.specs);
        let specs = unique.specs.into_iter().cloned().collect();
        let header = CampaignHeader::new(request.scenarios.clone(), &request.opts, 0, 1, runs)
            .with_sweeps(request.sweeps.clone());
        Ok(Campaign {
            id,
            request,
            registry,
            header,
            plans,
            specs,
            fingerprint,
            state: ServeState::new(runs, opts.chunk, opts.lease_timeout),
            lifecycle: Lifecycle::Queued,
            failure: None,
            cached: 0,
            submitted: Instant::now(),
            results: None,
        })
    }

    fn runs(&self) -> usize {
        self.header.runs
    }

    /// Runs the scenarios plan, duplicates included.
    fn planned(&self) -> usize {
        self.plans.iter().map(Vec::len).sum()
    }

    /// Marks the campaign failed (first reason wins) — unlike the
    /// single-campaign coordinator, where these conditions are fatal to
    /// the process, a service isolates the failure to the one campaign.
    fn fail(&mut self, reason: String) {
        if self.failure.is_none() {
            eprintln!("[service: campaign {} failed: {reason}]", self.id);
            self.failure = Some(reason);
        }
        self.lifecycle = Lifecycle::Failed;
    }

    /// Promotes a queued campaign to serving: create its journal, then
    /// pre-fill from the cache — both through [`ServeState::admit`], the
    /// same admission path live records use.
    fn promote(&mut self, cfg: &ServiceConfig<'_>) {
        debug_assert_eq!(self.lifecycle, Lifecycle::Queued);
        if let Some(dir) = cfg.journal_dir {
            match open_campaign_journal(dir, self, cfg.journal_sync) {
                Ok(writer) => self.state.journal = Some(writer),
                Err(e) => {
                    self.fail(format!("cannot create the campaign journal: {e}"));
                    return;
                }
            }
        }
        if let Some(cache) = cfg.cache {
            let flat: Vec<&RunSpec> = self.specs.iter().collect();
            let mut lookups = 0u64;
            for index in 0..flat.len() {
                if self.state.table.is_filled(index) {
                    continue;
                }
                lookups += 1;
                let Some(result) = cache.lookup(flat[index]) else { continue };
                let record = ShardRecord::from_result(index, flat[index].fingerprint(), &result);
                match self.state.admit(&flat, record, true) {
                    Ok(true) => self.cached += 1,
                    Ok(false) => {}
                    Err(e) => {
                        self.fail(format!("cache pre-fill rejected: {e}"));
                        return;
                    }
                }
            }
            self.state.table.prune_pending();
            let session =
                crate::cache::CacheSession::now("service", lookups, self.cached as u64, 0);
            if let Err(e) = cache.record_session(&session) {
                eprintln!("[service: warning: cannot record the cache session: {e}]");
            }
        }
        self.lifecycle = Lifecycle::Serving;
        eprintln!(
            "[service: campaign {} serving: {} planned, {} unique run(s), {} from cache, \
             fingerprint {:016x}]",
            self.id,
            self.planned(),
            self.runs(),
            self.cached,
            self.fingerprint
        );
    }

    /// Completes a serving campaign: sync the journal, assemble the
    /// reports, and render the results document clients will fetch.
    fn finish(&mut self) {
        debug_assert!(self.state.table.complete());
        if let Some(writer) = &mut self.state.journal {
            if let Err(e) = writer.sync() {
                eprintln!("[service: warning: cannot sync campaign {} journal: {e}]", self.id);
            }
        }
        let results: Vec<_> = std::mem::take(&mut self.state.slots)
            .into_iter()
            .map(|slot| slot.expect("complete table implies full slots"))
            .collect();
        // The names resolved at admission; a registry that no longer
        // resolves them here would be a logic bug, but a service fails
        // the one campaign instead of panicking.
        let scenarios = match self.registry.resolve(&self.request.scenarios) {
            Ok(scenarios) => scenarios,
            Err(e) => {
                self.fail(format!("cannot re-resolve scenarios at completion: {e}"));
                return;
            }
        };
        let results = UniquePlan::from_plans(&self.plans).fan_out(results);
        let reports =
            scenario::run_campaign_from_parts(&scenarios, &self.request.opts, &self.plans, results);
        self.results = Some(render_results(self, &reports));
        self.lifecycle = Lifecycle::Complete;
        eprintln!("[service: campaign {} complete ({} run(s))]", self.id, self.runs());
    }

    /// The per-campaign status document (`GET /campaigns/<id>`).
    fn status_json(&self) -> String {
        let (completed, leased, pending) = self.state.table.counts();
        let names: Vec<String> =
            self.request.scenarios.iter().map(|s| format!("\"{}\"", json::escape(s))).collect();
        let failure = self
            .failure
            .as_ref()
            .map_or("null".to_string(), |f| format!("\"{}\"", json::escape(f)));
        let journal = self.state.journal.as_ref().map_or("null".to_string(), |writer| {
            let (records, bytes) = writer.position();
            format!("{{\"records\": {records}, \"bytes\": {bytes}}}")
        });
        format!(
            "{{\"schema\": \"rfcache-service-campaign/v1\", \"id\": {}, \"state\": \"{}\", \
             \"scenarios\": [{}], \"insts\": {}, \"warmup\": {}, \"seed\": {}, \"quick\": {}, \
             \"planned\": {}, \"runs\": {}, \"completed\": {completed}, \"leased\": {leased}, \
             \"pending\": {pending}, \"cached\": {}, \"fingerprint\": \"{:016x}\", \
             \"failure\": {failure}, \"journal\": {journal}, \"age_secs\": {:.3}}}\n",
            self.id,
            self.lifecycle.as_str(),
            names.join(", "),
            self.request.opts.insts,
            self.request.opts.warmup,
            self.request.opts.seed,
            self.request.opts.quick,
            self.planned(),
            self.runs(),
            self.cached,
            self.fingerprint,
            self.submitted.elapsed().as_secs_f64()
        )
    }

    /// The short row this campaign contributes to `GET /status`.
    fn brief_json(&self) -> String {
        let (completed, _, _) = self.state.table.counts();
        let names: Vec<String> =
            self.request.scenarios.iter().map(|s| format!("\"{}\"", json::escape(s))).collect();
        format!(
            "{{\"id\": {}, \"state\": \"{}\", \"scenarios\": [{}], \"planned\": {}, \
             \"runs\": {}, \"completed\": {completed}, \"cached\": {}}}",
            self.id,
            self.lifecycle.as_str(),
            names.join(", "),
            self.planned(),
            self.runs(),
            self.cached
        )
    }
}

fn open_campaign_journal(dir: &Path, c: &Campaign, sync_every: usize) -> io::Result<JournalWriter> {
    std::fs::create_dir_all(dir)?;
    let path: PathBuf = dir.join(format!("campaign-{}.journal", c.id));
    JournalWriter::create(&path, &c.header, c.fingerprint, sync_every)
}

/// Renders the results document (`GET /campaigns/<id>/results`): one
/// entry per scenario carrying the rendered report text, the CSV the
/// `--csv` exporter would write, and the JSON table the `--json`
/// exporter would write — as strings, so a fetching client reproduces
/// the exact bytes an in-process run of the same description emits.
fn render_results(c: &Campaign, reports: &[Box<dyn ScenarioReport>]) -> String {
    let entries: Vec<String> = c
        .request
        .scenarios
        .iter()
        .zip(reports)
        .map(|(name, report)| {
            let table = report.to_table();
            format!(
                "{{\"name\": \"{}\", \"report\": \"{}\", \"csv\": \"{}\", \"json\": \"{}\"}}",
                json::escape(name),
                json::escape(&format!("{report}")),
                json::escape(&table.to_csv()),
                json::escape(&table.to_json())
            )
        })
        .collect();
    format!(
        "{{\"schema\": \"rfcache-campaign-results/v1\", \"id\": {}, \
         \"fingerprint\": \"{:016x}\", \"scenarios\": [{}]}}\n",
        c.id,
        c.fingerprint,
        entries.join(", ")
    )
}

/// The service overview document (`GET /status`).
fn service_status_json(campaigns: &[Campaign], workers: &[WorkerConn], started: Instant) -> String {
    let serving = campaigns
        .iter()
        .find(|c| c.lifecycle == Lifecycle::Serving)
        .map_or("null".to_string(), |c| c.id.to_string());
    let briefs: Vec<String> = campaigns.iter().map(Campaign::brief_json).collect();
    let roster = worker_roster_json(workers);
    format!(
        "{{\"schema\": \"rfcache-service/v1\", \"elapsed_secs\": {:.3}, \"serving\": {serving}, \
         \"submitted\": {}, \"campaigns\": [{}], \"workers_connected\": {}, \"workers\": [{}]}}\n",
        started.elapsed().as_secs_f64(),
        campaigns.len(),
        briefs.join(", "),
        workers.iter().filter(|c| c.dead.is_none()).count(),
        roster.join(", ")
    )
}

/// Routes one parsed control-plane request against the campaign table.
/// Mutates it only on `POST /campaigns` (new entry) and on the first
/// successful results fetch (`complete → fetched`).
fn route_request(
    req: &http::Request,
    campaigns: &mut Vec<Campaign>,
    next_id: &mut u64,
    cfg: &ServiceConfig<'_>,
    workers: &[WorkerConn],
    started: Instant,
) -> Vec<u8> {
    match (req.method.as_str(), req.path()) {
        ("POST", "/campaigns") => {
            let body = match std::str::from_utf8(&req.body) {
                Ok(body) => body,
                Err(_) => {
                    return http::respond(
                        400,
                        "Bad Request",
                        "text/plain",
                        "campaign description is not UTF-8\n",
                    )
                }
            };
            let request = match CampaignRequest::from_json(body) {
                Ok(request) => request,
                Err(reason) => {
                    return http::respond(400, "Bad Request", "text/plain", &format!("{reason}\n"))
                }
            };
            let id = *next_id;
            *next_id += 1;
            let campaign = match Campaign::new(id, request, cfg.opts) {
                Ok(campaign) => campaign,
                Err(reason) => {
                    return http::respond(400, "Bad Request", "text/plain", &format!("{reason}\n"))
                }
            };
            eprintln!(
                "[service: campaign {id} queued: {} ({} planned, {} unique run(s))]",
                campaign.request.scenarios.join(" "),
                campaign.planned(),
                campaign.runs()
            );
            let body = format!(
                "{{\"id\": {id}, \"state\": \"queued\", \"planned\": {}, \"runs\": {}, \
                 \"fingerprint\": \"{:016x}\"}}\n",
                campaign.planned(),
                campaign.runs(),
                campaign.fingerprint
            );
            campaigns.push(campaign);
            http::respond(201, "Created", "application/json", &body)
        }
        ("GET", "/healthz") => http::json_ok("{\"status\": \"ok\"}\n"),
        ("GET", "/status") => http::json_ok(&service_status_json(campaigns, workers, started)),
        ("GET", path) => match parse_campaign_path(path) {
            Some((id, want_results)) => {
                let Some(campaign) = campaigns.iter_mut().find(|c| c.id == id) else {
                    return http::respond(
                        404,
                        "Not Found",
                        "text/plain",
                        &format!("no campaign {id}\n"),
                    );
                };
                if !want_results {
                    return http::json_ok(&campaign.status_json());
                }
                match &campaign.results {
                    Some(doc) => {
                        let response = http::json_ok(doc);
                        if campaign.lifecycle == Lifecycle::Complete {
                            campaign.lifecycle = Lifecycle::Fetched;
                            eprintln!("[service: campaign {id} fetched]");
                        }
                        response
                    }
                    None => http::respond(
                        409,
                        "Conflict",
                        "text/plain",
                        &format!(
                            "campaign {id} is {}; results exist once it is complete\n",
                            campaign.lifecycle.as_str()
                        ),
                    ),
                }
            }
            None => http::respond(
                404,
                "Not Found",
                "text/plain",
                "unknown path; try /status, /campaigns/<id> or /campaigns/<id>/results\n",
            ),
        },
        _ => http::respond(
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET, and POST /campaigns, are supported\n",
        ),
    }
}

/// Splits `/campaigns/<id>` / `/campaigns/<id>/results` into the id and
/// whether results were asked for (`None` = not a campaign path).
fn parse_campaign_path(path: &str) -> Option<(u64, bool)> {
    let rest = path.strip_prefix("/campaigns/")?;
    let (id, want_results) = match rest.strip_suffix("/results") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    id.parse().ok().map(|id: u64| (id, want_results))
}

/// Runs the multi-campaign coordinator service until aborted (via
/// `cfg.signals`) or until `cfg.max_campaigns` campaigns have been
/// fetched. See the module docs for the lifecycle and endpoints.
///
/// # Errors
///
/// Returns [`ExecutorError::Io`] when a listener or the readiness poll
/// fails — infrastructure trouble that dooms the whole service.
/// Campaign-level failures (bad submissions, drifting workers, journal
/// trouble) are isolated to the affected campaign and reported through
/// its lifecycle instead.
pub fn serve_service(cfg: ServiceConfig<'_>) -> Result<ServiceSummary, ExecutorError> {
    cfg.listener
        .set_nonblocking(true)
        .map_err(|e| ExecutorError::io("cannot poll the campaign listener", e))?;
    cfg.http
        .set_nonblocking(true)
        .map_err(|e| ExecutorError::io("cannot poll the control-plane listener", e))?;

    let started = Instant::now();
    let mut campaigns: Vec<Campaign> = Vec::new();
    let mut next_id: u64 = 1;
    let mut workers: Vec<WorkerConn> = Vec::new();
    let mut https: Vec<HttpConn> = Vec::new();
    let mut poll = PollSet::new();
    let mut fatal: Option<ExecutorError> = None;

    loop {
        if fatal.is_some() || cfg.signals.aborted() {
            break;
        }
        if let Some(max) = cfg.max_campaigns {
            if campaigns.iter().filter(|c| c.lifecycle == Lifecycle::Fetched).count() >= max {
                eprintln!("[service: {max} campaign(s) fetched; shutting down]");
                break;
            }
        }

        // Promote the oldest queued campaign when nothing is serving
        // (admission failures just move on to the next submission).
        while !campaigns.iter().any(|c| c.lifecycle == Lifecycle::Serving) {
            let Some(campaign) = campaigns.iter_mut().find(|c| c.lifecycle == Lifecycle::Queued)
            else {
                break;
            };
            campaign.promote(&cfg);
            if campaign.lifecycle == Lifecycle::Serving && campaign.state.table.complete() {
                // Fully satisfied by journal/cache pre-fill: no worker
                // needs to connect at all.
                campaign.finish();
            }
        }

        // Lease issue: idle handshaked workers of the serving campaign.
        let now = Instant::now();
        if let Some(campaign) = campaigns.iter_mut().find(|c| c.lifecycle == Lifecycle::Serving) {
            for conn in workers.iter_mut() {
                if conn.dead.is_some()
                    || conn.campaign != Some(campaign.id)
                    || conn.phase != WorkerPhase::Ready
                {
                    continue;
                }
                let Some(lease) = campaign.state.table.grab(now) else { break };
                conn.lease = Some(ActiveLease { id: lease.id, issued: now });
                conn.out.queue_frame(&Frame::Lease { id: lease.id, indices: lease.indices });
                conn.phase = WorkerPhase::Streaming;
            }
        }

        // Declare interest, then block until something is ready (or a
        // tick passes).
        poll.clear();
        let listener_slot = poll.register(listener_fd(cfg.listener), true, false);
        let control_slot = poll.register(listener_fd(cfg.http), true, false);
        let worker_slots: Vec<usize> = workers
            .iter()
            .map(|c| poll.register(stream_fd(&c.stream), true, c.out.pending()))
            .collect();
        let http_slots: Vec<usize> = https
            .iter()
            .map(|c| poll.register(stream_fd(&c.stream), !c.responded, c.out.pending()))
            .collect();
        if let Err(e) = poll.poll(READ_TICK) {
            fatal.get_or_insert(ExecutorError::io("readiness poll failed", e));
            break;
        }

        // Accept workers: hand them the serving campaign's hello, or a
        // retry frame when nothing is serving (the satellite fix — a
        // worker must never block in a handshake that cannot progress).
        if poll.readable(listener_slot) {
            let serving = campaigns
                .iter()
                .find(|c| c.lifecycle == Lifecycle::Serving)
                .map(|c| (c.id, c.header.clone(), c.fingerprint));
            loop {
                match cfg.listener.accept() {
                    Ok((stream, peer)) => {
                        let peer = peer.to_string();
                        let deadline = Instant::now() + HANDSHAKE_DEADLINE;
                        let greeting = match &serving {
                            Some((_, header, fingerprint)) => Frame::Hello {
                                campaign: Some(header.clone()),
                                fingerprint: *fingerprint,
                            },
                            None => Frame::Retry { after_ms: RETRY_AFTER_MS },
                        };
                        match WorkerConn::start(stream, peer.clone(), &greeting, deadline) {
                            Ok(mut conn) => {
                                match &serving {
                                    Some((id, _, _)) => conn.campaign = Some(*id),
                                    // Nothing to handshake against: the
                                    // connection only drains its retry
                                    // frame, then the sweep closes it.
                                    None => conn.phase = WorkerPhase::Closing,
                                }
                                workers.push(conn);
                            }
                            Err(e) => eprintln!("[service: worker {peer} dropped: {e}]"),
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        fatal.get_or_insert(ExecutorError::io("campaign listener failed", e));
                        break;
                    }
                }
            }
        }

        // Accept control-plane clients.
        if poll.readable(control_slot) {
            loop {
                match cfg.http.accept() {
                    Ok((stream, _)) => {
                        if let Ok(conn) = HttpConn::start(stream) {
                            https.push(conn);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // Worker I/O: flush queued frames, then process arrived ones.
        // Only the registered prefix — connections accepted *this*
        // iteration have no poll slot until the next tick.
        for (at, conn) in workers.iter_mut().take(worker_slots.len()).enumerate() {
            if conn.dead.is_some() {
                continue;
            }
            if conn.out.pending() && poll.writable(worker_slots[at]) {
                if let Err(e) = conn.out.flush(&mut conn.stream) {
                    conn.kill(e.to_string());
                    continue;
                }
            }
            if !poll.readable(worker_slots[at]) {
                continue;
            }
            let eof = match conn.fill() {
                Ok(more) => !more,
                Err(e) => {
                    conn.kill(e.to_string());
                    continue;
                }
            };
            while let Some(line) = conn.inbuf.next_line() {
                if line.trim().is_empty() {
                    continue;
                }
                let frame = match Frame::parse(&line) {
                    Ok(frame) => frame,
                    Err(e) => {
                        conn.kill(e.to_string());
                        break;
                    }
                };
                let campaign =
                    conn.campaign.and_then(|id| campaigns.iter_mut().find(|c| c.id == id));
                match (conn.phase, frame) {
                    (WorkerPhase::Handshake { .. }, Frame::Hello { fingerprint: echoed, .. }) => {
                        // Unlike the single-campaign coordinator, a
                        // fingerprint mismatch is not fatal to the
                        // service: it rejects the one worker and the
                        // campaign keeps serving through the rest.
                        match campaign {
                            Some(c) if echoed == c.fingerprint => {
                                conn.phase = WorkerPhase::Ready;
                                eprintln!(
                                    "[service: worker {} joined campaign {}]",
                                    conn.peer, c.id
                                );
                            }
                            Some(c) => conn.kill(format!(
                                "planned campaign fingerprint {echoed:016x}, campaign {} is \
                                 {:016x} (mismatched binaries or options)",
                                c.id, c.fingerprint
                            )),
                            None => conn.kill("handshake for a vanished campaign"),
                        }
                    }
                    (WorkerPhase::Streaming, Frame::Record(record)) => {
                        conn.records += 1;
                        let Some(c) = campaign else {
                            conn.kill("record for a vanished campaign");
                            break;
                        };
                        if c.lifecycle != Lifecycle::Serving {
                            continue; // straggler record after failure
                        }
                        let index = record.index;
                        let flat: Vec<&RunSpec> = c.specs.iter().collect();
                        match c.state.admit(&flat, *record, true) {
                            Ok(true) => {
                                if let Some(cache) = cfg.cache {
                                    let result = c.state.slots[index]
                                        .as_ref()
                                        .expect("admitted slot is filled");
                                    if let Err(e) = cache.store(flat[index], result) {
                                        eprintln!(
                                            "[service: warning: cannot cache result {index}: {e}]"
                                        );
                                    }
                                }
                            }
                            Ok(false) => {}
                            Err(e) => c.fail(e.to_string()),
                        }
                    }
                    (WorkerPhase::Streaming, Frame::Done) => {
                        if let (Some(active), Some(c)) = (conn.lease.take(), campaign) {
                            let requeued = c.state.table.release(active.id);
                            if requeued > 0 {
                                eprintln!(
                                    "[service: re-queued {requeued} index(es) from worker {}]",
                                    conn.peer
                                );
                            }
                        }
                        conn.leases_done += 1;
                        conn.phase = WorkerPhase::Ready;
                    }
                    (WorkerPhase::Closing, _) => {} // late straggler frames
                    (_, frame) => conn.kill(format!("unexpected frame {frame:?}")),
                }
                if conn.dead.is_some() {
                    break;
                }
            }
            if eof {
                conn.kill("connection closed");
            }
        }

        // Completion check: the serving campaign may have just filled
        // its last slot. Its workers get the final `done` and wind
        // down; the next queued campaign is promoted on the next pass.
        if let Some(campaign) = campaigns
            .iter_mut()
            .find(|c| c.lifecycle == Lifecycle::Serving && c.state.table.complete())
        {
            campaign.finish();
            for conn in workers.iter_mut() {
                if conn.dead.is_none() && conn.campaign == Some(campaign.id) {
                    conn.out.queue_frame(&Frame::Done);
                    conn.phase = WorkerPhase::Closing;
                }
            }
        }

        // Sweep: handshake deadlines, workers of failed campaigns,
        // drained between-campaign rejections, and dead connections
        // (releasing their leases back to their campaign).
        let now = Instant::now();
        workers.retain_mut(|conn| {
            if conn.dead.is_none() {
                if let WorkerPhase::Handshake { deadline } = conn.phase {
                    if now >= deadline {
                        conn.kill("no hello before deadline");
                    }
                }
                if conn.campaign.is_none()
                    && conn.phase == WorkerPhase::Closing
                    && !conn.out.pending()
                {
                    conn.kill("no campaign to serve (retry sent)");
                }
                if let Some(id) = conn.campaign {
                    let failed = campaigns
                        .iter()
                        .find(|c| c.id == id)
                        .is_none_or(|c| c.lifecycle == Lifecycle::Failed);
                    if failed {
                        conn.kill("campaign failed");
                    }
                }
            }
            let Some(reason) = conn.dead.take() else { return true };
            if let Some(active) = conn.lease.take() {
                if let Some(c) =
                    conn.campaign.and_then(|id| campaigns.iter_mut().find(|c| c.id == id))
                {
                    if c.lifecycle == Lifecycle::Serving {
                        let requeued = c.state.table.release(active.id);
                        if requeued > 0 {
                            eprintln!(
                                "[service: re-queued {requeued} index(es) from worker {}]",
                                conn.peer
                            );
                        }
                    }
                }
            }
            eprintln!("[service: worker {} dropped: {reason}]", conn.peer);
            false
        });

        // HTTP control plane: one request, one response, close.
        for (at, conn) in https.iter_mut().take(http_slots.len()).enumerate() {
            if conn.dead {
                continue;
            }
            if conn.out.pending()
                && poll.writable(http_slots[at])
                && conn.out.flush(&mut conn.stream).is_err()
            {
                conn.dead = true;
                continue;
            }
            if !conn.responded && poll.readable(http_slots[at]) {
                let eof = match conn.fill() {
                    Ok(more) => !more,
                    Err(_) => {
                        conn.dead = true;
                        continue;
                    }
                };
                let response = match http::parse_request(&conn.inbuf) {
                    http::Parse::Incomplete => {
                        if eof {
                            conn.dead = true; // hung up mid-request
                        }
                        continue;
                    }
                    http::Parse::Ready(req) => {
                        route_request(&req, &mut campaigns, &mut next_id, &cfg, &workers, started)
                    }
                    http::Parse::Invalid(detail) => {
                        http::respond(400, "Bad Request", "text/plain", &format!("{detail}\n"))
                    }
                    http::Parse::TooLarge(detail) => http::respond(
                        413,
                        "Payload Too Large",
                        "text/plain",
                        &format!("{detail}\n"),
                    ),
                };
                conn.out.queue_bytes(&response);
                conn.responded = true;
                if conn.out.flush(&mut conn.stream).is_err() {
                    conn.dead = true;
                }
            }
            if conn.responded && !conn.out.pending() {
                conn.dead = true; // response fully sent: close
            }
        }
        https.retain(|c| !c.dead && c.opened.elapsed() < HTTP_CLIENT_WINDOW);
    }

    // Wind-down: give backpressured worker/HTTP sockets a bounded
    // window to drain their final frames and responses.
    let deadline = Instant::now() + DRAIN_WINDOW;
    while Instant::now() < deadline {
        let unsent = workers.iter().any(|c| c.dead.is_none() && c.out.pending())
            || https.iter().any(|c| !c.dead && c.out.pending());
        if !unsent {
            break;
        }
        poll.clear();
        let worker_slots: Vec<usize> = workers
            .iter()
            .map(|c| {
                poll.register(stream_fd(&c.stream), false, c.dead.is_none() && c.out.pending())
            })
            .collect();
        let http_slots: Vec<usize> = https
            .iter()
            .map(|c| poll.register(stream_fd(&c.stream), false, !c.dead && c.out.pending()))
            .collect();
        if poll.poll(READ_TICK).is_err() {
            break;
        }
        for (at, conn) in workers.iter_mut().enumerate() {
            if conn.dead.is_none()
                && conn.out.pending()
                && poll.writable(worker_slots[at])
                && conn.out.flush(&mut conn.stream).is_err()
            {
                conn.kill("closed during wind-down");
            }
        }
        for (at, conn) in https.iter_mut().enumerate() {
            if !conn.dead
                && conn.out.pending()
                && poll.writable(http_slots[at])
                && conn.out.flush(&mut conn.stream).is_err()
            {
                conn.dead = true;
            }
        }
    }
    cfg.signals.mark_finished();

    if let Some(e) = fatal {
        return Err(e);
    }
    Ok(ServiceSummary {
        submitted: campaigns.len(),
        completed: campaigns.iter().filter(|c| c.lifecycle.done()).count(),
        fetched: campaigns.iter().filter(|c| c.lifecycle == Lifecycle::Fetched).count(),
        failed: campaigns.iter().filter(|c| c.lifecycle == Lifecycle::Failed).count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_paths_parse_ids_and_results_suffixes() {
        assert_eq!(parse_campaign_path("/campaigns/7"), Some((7, false)));
        assert_eq!(parse_campaign_path("/campaigns/12/results"), Some((12, true)));
        assert_eq!(parse_campaign_path("/campaigns/"), None);
        assert_eq!(parse_campaign_path("/campaigns/x"), None);
        assert_eq!(parse_campaign_path("/campaigns/7/logs"), None);
        assert_eq!(parse_campaign_path("/status"), None);
    }

    #[test]
    fn lifecycle_names_are_the_wire_strings() {
        assert_eq!(Lifecycle::Queued.as_str(), "queued");
        assert_eq!(Lifecycle::Serving.as_str(), "serving");
        assert_eq!(Lifecycle::Complete.as_str(), "complete");
        assert_eq!(Lifecycle::Fetched.as_str(), "fetched");
        assert_eq!(Lifecycle::Failed.as_str(), "failed");
        assert!(Lifecycle::Fetched.done() && Lifecycle::Complete.done());
        assert!(!Lifecycle::Serving.done() && !Lifecycle::Failed.done());
    }
}
