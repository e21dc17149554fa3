//! The load generator for the serving workloads.
//!
//! One client thread submits single-target requests and notices their
//! completions by polling the request handles, so every request's latency
//! is measured on its own: a request that finished early is never held up
//! behind an older one still in flight.

use crate::trace;
use octant_netsim::topology::NodeId;
use octant_netsim::ObservationProvider;
use octant_service::{RequestHandle, ServeOutcome, ShardedService};
use std::time::{Duration, Instant};

/// How often the client looks at its in-flight requests when none of them
/// has finished and no submission is due.
const POLL: Duration = Duration::from_micros(100);

/// How requests are offered.
pub enum Load {
    /// A closed loop: the next request goes out as soon as fewer than
    /// `in_flight` are outstanding; its due time is the moment its slot
    /// freed.
    Closed {
        /// Requests kept outstanding.
        in_flight: usize,
    },
    /// An open loop: request `i` is due at `due[i]` after the start,
    /// whatever the service's state.
    Open {
        /// Due offsets, ascending, one per request.
        due: Vec<Duration>,
    },
}

/// One request's record.
pub struct Completed {
    /// When it was due (open loop) or its slot freed (closed loop).
    pub due: Instant,
    /// When `submit` was called.
    pub submitted: Instant,
    /// When `submit` returned.
    pub admitted: Instant,
    /// When the client saw it complete.
    pub done: Instant,
    /// The service's answer.
    pub outcome: ServeOutcome,
}

impl Completed {
    /// Due → completion, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }

    /// Due → submission: how late the generator ran, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        ms(self.submitted.saturating_duration_since(self.due))
    }

    /// Duration of the `submit` call, in microseconds.
    pub fn submit_us(&self) -> f64 {
        (self.admitted - self.submitted).as_secs_f64() * 1e6
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one [`drive`] call produced.
pub struct Run {
    /// Every request, in submission order.
    pub requests: Vec<Completed>,
    /// The most requests outstanding at once.
    pub in_flight_max: usize,
    /// Start of the run (the due-time origin).
    pub started: Instant,
    /// When the last completion was seen.
    pub finished: Instant,
}

struct Pending {
    index: usize,
    handle: RequestHandle,
}

/// Submits `targets[i]` as request `i` under `load` and waits for all of
/// them. `between(now)` is called on every loop turn (for work the client
/// thread interleaves with its requests). Request ids in the trace are
/// `first_request + i`.
pub fn drive<P: ObservationProvider + Send + Sync + 'static>(
    service: &ShardedService<P>,
    targets: &[NodeId],
    load: &Load,
    first_request: u64,
    mut between: impl FnMut(Instant),
) -> Run {
    if let Load::Open { due } = load {
        assert_eq!(due.len(), targets.len(), "one due time per request");
    }
    let started = Instant::now();
    let mut records: Vec<Option<Completed>> = (0..targets.len()).map(|_| None).collect();
    let mut meta: Vec<(Instant, Instant, Instant)> = Vec::with_capacity(targets.len());
    let mut pending: Vec<Pending> = Vec::new();
    let mut in_flight_max = 0;
    let mut slot_freed = started;
    let mut next = 0;
    let mut finished = started;
    while next < targets.len() || !pending.is_empty() {
        let now = Instant::now();
        between(now);
        // Completions first, so a freed closed-loop slot is reused at once.
        let mut i = 0;
        let mut completed_any = false;
        while i < pending.len() {
            if pending[i].handle.is_done() {
                let p = pending.swap_remove(i);
                let done = Instant::now();
                let outcome = p
                    .handle
                    .wait_outcomes()
                    .pop()
                    .expect("a single-target request has one outcome");
                let (due, submitted, admitted) = meta[p.index];
                if trace::enabled() {
                    let request = first_request + p.index as u64;
                    trace::record_span("client.late", request, due, submitted);
                    trace::record_span("shard.submit", request, submitted, admitted);
                    trace::record_span("request", request, due, done);
                }
                records[p.index] = Some(Completed {
                    due,
                    submitted,
                    admitted,
                    done,
                    outcome,
                });
                slot_freed = done;
                finished = done;
                completed_any = true;
            } else {
                i += 1;
            }
        }
        // Submissions that are due.
        let mut submitted_any = false;
        while next < targets.len() {
            let due = match load {
                Load::Closed { in_flight } => {
                    if pending.len() >= *in_flight {
                        break;
                    }
                    slot_freed.max(started)
                }
                Load::Open { due } => {
                    let at = started + due[next];
                    if at > Instant::now() {
                        break;
                    }
                    at
                }
            };
            let submitted = Instant::now();
            let handle = service.submit(&targets[next..next + 1]);
            let admitted = Instant::now();
            meta.push((due, submitted, admitted));
            pending.push(Pending {
                index: next,
                handle,
            });
            in_flight_max = in_flight_max.max(pending.len());
            next += 1;
            submitted_any = true;
        }
        if completed_any || submitted_any {
            continue;
        }
        let mut nap = POLL;
        if pending.is_empty() {
            if let Load::Open { due } = load {
                nap = (started + due[next]).saturating_duration_since(Instant::now());
            }
        } else if let Load::Open { due } = load {
            if next < targets.len() {
                nap = nap.min((started + due[next]).saturating_duration_since(Instant::now()));
            }
        }
        std::thread::sleep(nap);
    }
    Run {
        requests: records
            .into_iter()
            .map(|r| r.expect("every request completed"))
            .collect(),
        in_flight_max,
        started,
        finished,
    }
}
