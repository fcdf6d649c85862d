//! [`ResponseHandle`]: the caller's end of a submission's reply channel.

use crate::submission::SubmitError;
use crate::worker::Outcome;
use gnn_core::QueryResponse;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::Duration;

/// A pending submission's response.
///
/// Redeemed with [`ResponseHandle::wait`]; [`ResponseHandle::poll`] and
/// [`ResponseHandle::wait_timeout`] are the non-blocking and
/// bounded-blocking variants.
///
/// Every accepted request resolves to exactly one outcome — a response or
/// a typed [`QueryError`](crate::QueryError) (panic, deadline shed) — so
/// redeeming a handle never hangs on a fault.
#[derive(Debug)]
pub struct ResponseHandle {
    rx: Receiver<Outcome>,
}

impl ResponseHandle {
    pub(crate) fn new(rx: Receiver<Outcome>) -> ResponseHandle {
        ResponseHandle { rx }
    }

    /// Blocks until the request completes and returns its response. Fails
    /// with [`SubmitError::Query`] on a typed per-query error (panic,
    /// deadline shed), or [`SubmitError::WorkerDied`] when the serving
    /// worker disappeared before answering.
    pub fn wait(self) -> Result<QueryResponse, SubmitError> {
        redeem(self.rx.recv().ok())
    }

    /// Bounded-blocking wait: like [`ResponseHandle::poll`], but blocks up
    /// to `timeout` for the response. `None` when the timeout expires
    /// first — the handle stays usable, so callers can keep extending the
    /// wait. `Some(Err(..))` when the reply channel died. The caller-side
    /// companion of [`gnn_core::QueryRequest::deadline`].
    pub fn wait_timeout(
        &mut self,
        timeout: Duration,
    ) -> Option<Result<QueryResponse, SubmitError>> {
        // A timeout beyond what `Instant` can represent waits unbounded.
        match self.rx.recv_timeout(timeout) {
            Err(RecvTimeoutError::Timeout) => None,
            received => Some(redeem(received.ok())),
        }
    }

    /// Non-blocking poll: `Some(Ok(..))` once the response has arrived,
    /// `None` while it is still in flight, `Some(Err(..))` on a typed
    /// per-query error or a dead worker.
    pub fn poll(&mut self) -> Option<Result<QueryResponse, SubmitError>> {
        match self.rx.try_recv() {
            Err(TryRecvError::Empty) => None,
            received => Some(redeem(received.ok())),
        }
    }
}

/// A received outcome as the caller sees it; `None` is a reply channel
/// that died unanswered.
fn redeem(outcome: Option<Outcome>) -> Result<QueryResponse, SubmitError> {
    match outcome {
        Some(outcome) => outcome.map_err(SubmitError::Query),
        None => Err(SubmitError::WorkerDied),
    }
}
