//! Serve-side observability: the `serve.*` counter names, the cache
//! probe/put instrumentation hooks, and the single cache-summary
//! formatter shared by the `submit` CLI line and the daemon `stats`
//! report — both derive from the same counters through the same code,
//! so they can never disagree.
//!
//! Counters and trace events never influence what is served: probes
//! and puts behave identically with observability on or off, and the
//! trace emission is guarded by [`crp_obs::trace_enabled`].

use crp_obs::{MetricsSnapshot, TraceEvent};

/// Counter: whole cells served from the cell cache.
pub const CACHE_CELL_HIT: &str = "serve.cache.cell_hit";
/// Counter: individual jobs served from the job cache.
pub const CACHE_JOB_HIT: &str = "serve.cache.job_hit";
/// Counter: cache probes that found nothing usable.
pub const CACHE_MISS: &str = "serve.cache.miss";
/// Counter: corrupt or invalid entries detected at probe time; the
/// recompute's write-back overwrites (heals) them.
pub const CACHE_HEAL: &str = "serve.cache.heal";
/// Counter: bytes served out of the cache.
pub const CACHE_READ_BYTES: &str = "serve.cache.read_bytes";
/// Counter: bytes written into the cache.
pub const CACHE_WRITE_BYTES: &str = "serve.cache.write_bytes";
/// Counter: submissions executed.
pub const SUBMIT: &str = "serve.submit";
/// Counter: jobs carried by executed submissions.
pub const SUBMIT_JOBS: &str = "serve.submit.jobs";
/// Counter: jobs settled from the cache (cell- or job-level).
pub const SUBMIT_HITS: &str = "serve.submit.hits";
/// Counter: jobs computed on the fleet.
pub const SUBMIT_COMPUTED: &str = "serve.submit.computed";
/// Histogram: wall-clock microseconds per executed submission.
pub const SUBMIT_MICROS: &str = "serve.submit_micros";
/// Prefix of the per-tenant counters: `serve.tenant.<id>.submit`,
/// `.jobs`, `.hits` and `.computed`, keyed by the sanitised tenant id
/// of the connection's `client-hello` (or `anonymous`).
pub const TENANT_PREFIX: &str = "serve.tenant.";

/// Maximum length of a sanitised tenant id.
pub const TENANT_MAX_LEN: usize = 32;

/// Sanitises a client-supplied tenant id into a counter-name-safe
/// token: characters outside `[A-Za-z0-9_-]` become `-`, the result is
/// capped at [`TENANT_MAX_LEN`] characters, and an empty input maps to
/// `anonymous`.
pub fn sanitize_tenant(raw: &str) -> String {
    let cleaned: String = raw
        .chars()
        .take(TENANT_MAX_LEN)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "anonymous".to_string()
    } else {
        cleaned
    }
}

/// Records the aggregate numbers of one executed submission into the
/// submitting tenant's `serve.tenant.<id>.*` counters.  `tenant` must
/// already be sanitised (the server sanitises at `client-hello` time).
pub fn record_tenant_submission(
    registry: &crp_obs::MetricsRegistry,
    tenant: &str,
    jobs: u64,
    hits: u64,
    computed: u64,
) {
    registry.inc(&format!("{TENANT_PREFIX}{tenant}.submit"));
    registry.add(&format!("{TENANT_PREFIX}{tenant}.jobs"), jobs);
    registry.add(&format!("{TENANT_PREFIX}{tenant}.hits"), hits);
    registry.add(&format!("{TENANT_PREFIX}{tenant}.computed"), computed);
}

/// Renders the per-tenant summary section of the daemon `stats` report
/// from the `serve.tenant.<id>.*` counters of a snapshot: one
/// deterministic line per tenant in sorted order, empty when no tenant
/// has submitted yet.
pub fn tenant_summary(snapshot: &MetricsSnapshot) -> String {
    let mut tenants: std::collections::BTreeMap<&str, [u64; 4]> = std::collections::BTreeMap::new();
    for (name, value) in snapshot.counters() {
        let Some(rest) = name.strip_prefix(TENANT_PREFIX) else {
            continue;
        };
        let Some((tenant, field)) = rest.rsplit_once('.') else {
            continue;
        };
        let slot = match field {
            "submit" => 0,
            "jobs" => 1,
            "hits" => 2,
            "computed" => 3,
            _ => continue,
        };
        tenants.entry(tenant).or_default()[slot] = value;
    }
    let mut out = String::new();
    for (tenant, [submits, jobs, hits, computed]) in tenants {
        out.push_str(&format!(
            "tenant {tenant}: submits={submits} jobs={jobs} hits={hits} computed={computed}\n"
        ));
    }
    out
}

/// Formats the canonical cache summary — the one wording both the
/// `submit` CLI stderr line and the daemon `stats` report print.  With
/// no jobs yet there is no hit rate, so the percentage is omitted.
pub fn cache_summary(hits: u64, total: u64, computed: u64) -> String {
    match (hits * 100).checked_div(total) {
        Some(percent) => {
            format!("{hits}/{total} job cache hits ({percent}%), {computed} computed on the fleet")
        }
        None => format!("{hits}/{total} job cache hits, {computed} computed on the fleet"),
    }
}

/// Derives the cache summary from the `serve.submit.*` counters of a
/// registry snapshot.
pub fn cache_summary_from(snapshot: &MetricsSnapshot) -> String {
    cache_summary(
        snapshot.counter(SUBMIT_HITS),
        snapshot.counter(SUBMIT_JOBS),
        snapshot.counter(SUBMIT_COMPUTED),
    )
}

/// Records the aggregate numbers of one executed submission into the
/// `serve.submit.*` counters of `registry`.  The server calls this
/// after every submission; the `submit` CLI calls it on the outcome it
/// received so its summary line is counter-derived too.
pub fn record_submission(registry: &crp_obs::MetricsRegistry, jobs: u64, hits: u64, computed: u64) {
    registry.inc(SUBMIT);
    registry.add(SUBMIT_JOBS, jobs);
    registry.add(SUBMIT_HITS, hits);
    registry.add(SUBMIT_COMPUTED, computed);
}

/// One cache probe served a usable value.
pub(crate) fn probe_hit(kind: &'static str, key: &str, bytes: usize) {
    let registry = crp_obs::global();
    registry.inc(match kind {
        "cell" => CACHE_CELL_HIT,
        _ => CACHE_JOB_HIT,
    });
    registry.add(CACHE_READ_BYTES, bytes as u64);
    if crp_obs::trace_enabled() {
        crp_obs::emit(
            &TraceEvent::new("cache.hit")
                .str("kind", kind)
                .str("key", key),
        );
    }
}

/// One cache probe found no entry.
pub(crate) fn probe_miss(kind: &'static str, key: &str) {
    crp_obs::global().inc(CACHE_MISS);
    if crp_obs::trace_enabled() {
        crp_obs::emit(
            &TraceEvent::new("cache.miss")
                .str("kind", kind)
                .str("key", key),
        );
    }
}

/// One cache probe found a corrupt or invalid entry; the recompute
/// path will overwrite it.
pub(crate) fn probe_heal(kind: &'static str, key: &str) {
    crp_obs::global().inc(CACHE_HEAL);
    if crp_obs::trace_enabled() {
        crp_obs::emit(
            &TraceEvent::new("cache.heal")
                .str("kind", kind)
                .str("key", key),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_summary_omits_the_rate_until_a_job_arrives() {
        assert_eq!(
            cache_summary(0, 0, 0),
            "0/0 job cache hits, 0 computed on the fleet"
        );
        assert_eq!(
            cache_summary(16, 16, 0),
            "16/16 job cache hits (100%), 0 computed on the fleet"
        );
        assert_eq!(
            cache_summary(1, 3, 2),
            "1/3 job cache hits (33%), 2 computed on the fleet"
        );
    }

    #[test]
    fn tenant_ids_are_sanitised_to_counter_safe_tokens() {
        assert_eq!(sanitize_tenant("team-red_7"), "team-red_7");
        assert_eq!(sanitize_tenant("a b/c"), "a-b-c");
        assert_eq!(sanitize_tenant(""), "anonymous");
        let long = "x".repeat(100);
        assert_eq!(sanitize_tenant(&long).len(), TENANT_MAX_LEN);
    }

    #[test]
    fn tenant_summary_groups_counters_per_tenant_in_sorted_order() {
        let registry = crp_obs::MetricsRegistry::default();
        record_tenant_submission(&registry, "beta", 4, 1, 3);
        record_tenant_submission(&registry, "alpha", 2, 2, 0);
        record_tenant_submission(&registry, "beta", 6, 6, 0);
        let summary = tenant_summary(&registry.snapshot());
        assert_eq!(
            summary,
            "tenant alpha: submits=1 jobs=2 hits=2 computed=0\n\
             tenant beta: submits=2 jobs=10 hits=7 computed=3\n"
        );
        assert_eq!(tenant_summary(&MetricsSnapshot::default()), "");
    }
}
