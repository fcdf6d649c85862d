//! [`ResponseHandle`]: the caller's end of a submission's reply channel.

use crate::submission::{SubmitError, WaitError};
use crate::worker::{Outcome, Reply};
use gnn_core::QueryResponse;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// A pending submission's responses: one per submitted request.
///
/// A single-request submission is redeemed with [`ResponseHandle::wait`];
/// a batch with [`ResponseHandle::wait_all`] (responses **in submission
/// order** no matter which pools or workers executed them) or
/// [`ResponseHandle::wait_each`] (per-request outcomes).
/// [`ResponseHandle::poll`] and [`ResponseHandle::wait_timeout`] are the
/// non-blocking and bounded-blocking variants.
///
/// Every accepted request resolves to exactly one outcome — a response or
/// a typed [`QueryError`](crate::QueryError) (panic, deadline shed) — so redeeming a handle
/// never hangs on a fault.
#[derive(Debug)]
pub struct ResponseHandle {
    rx: Receiver<Reply>,
    /// Outcomes received so far, indexed by submission position.
    slots: Vec<Option<Outcome>>,
    received: usize,
}

/// How long [`ResponseHandle::drain`] may block on the reply channel: until
/// the replies are in, until an instant at the latest, or not at all.
#[derive(Clone, Copy)]
enum Until {
    Replied,
    Deadline(Instant),
    Now,
}

/// How a [`ResponseHandle::drain`] ended: everything it waited for is
/// stored, `until` ran out first (the handle stays usable), or the reply
/// channel died with responses still owed.
#[derive(PartialEq)]
enum Drained {
    Complete,
    Pending,
    Died,
}

impl ResponseHandle {
    pub(crate) fn new(rx: Receiver<Reply>, expected: usize) -> ResponseHandle {
        ResponseHandle {
            rx,
            slots: (0..expected).map(|_| None).collect(),
            received: 0,
        }
    }

    /// Number of responses this handle will yield (1 for single
    /// submissions, the batch length for batches, 0 for an empty batch).
    pub fn expected(&self) -> usize {
        self.slots.len()
    }

    /// The one receive-and-store loop: takes replies off the channel until
    /// every slot is filled (`all`) or just the first-submitted one, for as
    /// long as `until` allows.
    fn drain(&mut self, until: Until, all: bool) -> Drained {
        loop {
            let complete = match all {
                true => self.received == self.slots.len(),
                false => matches!(self.slots.first(), Some(Some(_))),
            };
            if complete {
                return Drained::Complete;
            }
            let reply = match until {
                Until::Replied => self.rx.recv().map_err(|_| Drained::Died),
                Until::Now => self.rx.try_recv().map_err(|e| match e {
                    TryRecvError::Empty => Drained::Pending,
                    TryRecvError::Disconnected => Drained::Died,
                }),
                Until::Deadline(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Drained::Pending;
                    }
                    self.rx.recv_timeout(remaining).map_err(|e| match e {
                        RecvTimeoutError::Timeout => Drained::Pending,
                        RecvTimeoutError::Disconnected => Drained::Died,
                    })
                }
            };
            match reply {
                Ok((index, outcome)) => {
                    let slot = &mut self.slots[index as usize];
                    debug_assert!(slot.is_none(), "duplicate response for index {index}");
                    self.received += usize::from(slot.is_none());
                    *slot = Some(outcome);
                }
                Err(stopped) => return stopped,
            }
        }
    }

    /// The first typed per-query error in submission order, or
    /// [`SubmitError::WorkerDied`] when there is none (a reply channel
    /// that died still owing responses).
    fn first_failure(&self) -> SubmitError {
        self.slots
            .iter()
            .find_map(|slot| match slot {
                Some(Err(e)) => Some(SubmitError::Query(*e)),
                _ => None,
            })
            .unwrap_or(SubmitError::WorkerDied)
    }

    /// Takes the first-submitted request's outcome.
    fn take_first(&mut self) -> Result<QueryResponse, SubmitError> {
        match self.slots.first_mut().and_then(Option::take) {
            Some(outcome) => outcome.map_err(SubmitError::Query),
            None => Err(SubmitError::WorkerDied),
        }
    }

    /// `poll` / `wait_timeout`: the first-submitted request's outcome once
    /// **all** responses are in, `None` while `until` ran out first.
    fn settled(&mut self, until: Until) -> Option<Result<QueryResponse, SubmitError>> {
        match self.drain(until, true) {
            Drained::Complete => Some(self.take_first()),
            Drained::Pending => None,
            Drained::Died => Some(Err(self.first_failure())),
        }
    }

    /// Blocks until the **first-submitted** request completes and returns
    /// its response: the redemption for single-request submissions (on a
    /// batch it discards all other responses). Fails with
    /// [`SubmitError::Query`] on a typed per-query error (panic, deadline
    /// shed), or [`SubmitError::WorkerDied`] when the serving worker
    /// disappeared before answering (or the handle expects no responses).
    pub fn wait(mut self) -> Result<QueryResponse, SubmitError> {
        if self.slots.is_empty() || self.drain(Until::Replied, false) != Drained::Complete {
            return Err(SubmitError::WorkerDied);
        }
        self.take_first()
    }

    /// Blocks until every submitted request resolves and returns the
    /// responses in submission order (`out[i]` answers request `i`). An
    /// empty batch yields an empty vec.
    ///
    /// If **any** request failed — a typed [`QueryError`](crate::QueryError) or a dead reply
    /// channel — the successful responses are **not** discarded: the
    /// [`WaitError`] hands them back in `received` alongside the first
    /// failure. [`ResponseHandle::wait_each`] gives each request's own
    /// outcome instead.
    pub fn wait_all(mut self) -> Result<Vec<QueryResponse>, WaitError> {
        let died = self.drain(Until::Replied, true) == Drained::Died;
        if died || self.slots.iter().any(|s| matches!(s, Some(Err(_)))) {
            let error = self.first_failure();
            let received = self.slots.into_iter().map(|s| s?.ok()).collect();
            return Err(WaitError { received, error });
        }
        Ok(self.slots.into_iter().filter_map(|s| s?.ok()).collect())
    }

    /// Blocks until every submitted request resolves and returns **each**
    /// request's outcome in submission order: `Ok(response)`,
    /// [`SubmitError::Query`] for a typed per-query error, or
    /// [`SubmitError::WorkerDied`] for a request whose reply channel died
    /// unanswered — one panicked or shed query never hides the others.
    pub fn wait_each(mut self) -> Vec<Result<QueryResponse, SubmitError>> {
        self.drain(Until::Replied, true);
        self.slots
            .into_iter()
            .map(|slot| match slot {
                Some(outcome) => outcome.map_err(SubmitError::Query),
                None => Err(SubmitError::WorkerDied),
            })
            .collect()
    }

    /// Bounded-blocking wait: like [`ResponseHandle::poll`], but blocks up
    /// to `timeout` for the outstanding responses. `None` when the timeout
    /// expires first — the handle stays usable and everything that did
    /// arrive stays buffered, so callers can keep extending the wait.
    /// `Some(Err(..))` when the reply channel died. The caller-side
    /// companion of [`gnn_core::QueryRequest::deadline`].
    pub fn wait_timeout(
        &mut self,
        timeout: Duration,
    ) -> Option<Result<QueryResponse, SubmitError>> {
        let deadline = Instant::now()
            .checked_add(timeout)
            // A timeout beyond the representable range is an unbounded
            // wait for any practical purpose; clamp to a year out.
            .unwrap_or_else(|| Instant::now() + Duration::from_secs(31_536_000));
        self.settled(Until::Deadline(deadline))
    }

    /// Non-blocking poll: `Some(Ok(..))` with the first-submitted request's
    /// response once **all** expected responses have resolved, `None` while
    /// any is still in flight, `Some(Err(..))` on a typed per-query error
    /// or a dead worker. Arrived responses are buffered across calls.
    pub fn poll(&mut self) -> Option<Result<QueryResponse, SubmitError>> {
        self.settled(Until::Now)
    }
}
