//! Small future combinators used across the workspace.
//!
//! These avoid a dependency on a futures crate: the simulator only ever
//! needs structured concurrency within one task (`join*`) or a binary
//! race (`select2`), both trivial over `poll_fn`.

use std::future::Future;
use std::pin::{pin, Pin};
use std::task::Poll;

/// Await two futures concurrently, returning both outputs.
pub async fn join2<A, B>(a: impl Future<Output = A>, b: impl Future<Output = B>) -> (A, B) {
    let mut a = pin!(a);
    let mut b = pin!(b);
    let mut ra = None;
    let mut rb = None;
    std::future::poll_fn(move |cx| {
        if ra.is_none() {
            if let Poll::Ready(v) = a.as_mut().poll(cx) {
                ra = Some(v);
            }
        }
        if rb.is_none() {
            if let Poll::Ready(v) = b.as_mut().poll(cx) {
                rb = Some(v);
            }
        }
        if ra.is_some() && rb.is_some() {
            Poll::Ready((ra.take().unwrap(), rb.take().unwrap()))
        } else {
            Poll::Pending
        }
    })
    .await
}

/// Await every future in `futs` concurrently; outputs are returned in the
/// input order regardless of completion order.
pub async fn join_all<T, F>(futs: Vec<F>) -> Vec<T>
where
    F: Future<Output = T>,
{
    let mut futs: Vec<Pin<Box<F>>> = futs.into_iter().map(Box::pin).collect();
    let mut outs: Vec<Option<T>> = futs.iter().map(|_| None).collect();
    let mut remaining = futs.len();
    std::future::poll_fn(move |cx| {
        for (fut, out) in futs.iter_mut().zip(outs.iter_mut()) {
            if out.is_none() {
                if let Poll::Ready(v) = fut.as_mut().poll(cx) {
                    *out = Some(v);
                    remaining -= 1;
                }
            }
        }
        if remaining == 0 {
            Poll::Ready(outs.iter_mut().map(|o| o.take().unwrap()).collect())
        } else {
            Poll::Pending
        }
    })
    .await
}

/// Outcome of [`select2`].
#[derive(Debug, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future finished first.
    Left(A),
    /// The second future finished first.
    Right(B),
}

/// Race two futures; the loser is dropped (canceled). Ties go to the left.
pub async fn select2<A, B>(
    a: impl Future<Output = A>,
    b: impl Future<Output = B>,
) -> Either<A, B> {
    let mut a = pin!(a);
    let mut b = pin!(b);
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(v) = a.as_mut().poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = b.as_mut().poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    })
    .await
}

/// A boxed, non-`Send` future — the handler type used by the FaaS crate.
pub type LocalBoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn join2_overlaps_waits() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let (a, b) = sim.block_on(async move {
            let s1 = s.clone();
            let s2 = s.clone();
            join2(
                async move {
                    s1.sleep(SimDuration::from_secs(3)).await;
                    1u32
                },
                async move {
                    s2.sleep(SimDuration::from_secs(5)).await;
                    2u32
                },
            )
            .await
        });
        assert_eq!((a, b), (1, 2));
        // Concurrent: total is max, not sum.
        assert_eq!(sim.now(), SimTime::from_nanos(5_000_000_000));
    }

    #[test]
    fn join_all_preserves_order() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let outs = sim.block_on(async move {
            let futs: Vec<_> = (0..10u64)
                .map(|i| {
                    let s = s.clone();
                    async move {
                        // Later entries sleep *less*, finishing first.
                        s.sleep(SimDuration::from_millis(100 - i * 10)).await;
                        i
                    }
                })
                .collect();
            join_all(futs).await
        });
        assert_eq!(outs, (0..10).collect::<Vec<_>>());
        assert_eq!(sim.now(), SimTime::from_nanos(100_000_000));
    }

    #[test]
    fn join_all_empty() {
        let sim = Sim::new(1);
        let outs: Vec<u32> = sim.block_on(async move { join_all(Vec::<Sleep0>::new()).await });
        assert!(outs.is_empty());
    }

    // A concrete empty-future type for the empty join_all test.
    struct Sleep0;
    impl Future for Sleep0 {
        type Output = u32;
        fn poll(self: Pin<&mut Self>, _cx: &mut std::task::Context<'_>) -> Poll<u32> {
            Poll::Ready(0)
        }
    }

    #[test]
    fn select2_picks_winner_and_cancels_loser() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let out = sim.block_on(async move {
            let s1 = s.clone();
            let s2 = s.clone();
            select2(
                async move {
                    s1.sleep(SimDuration::from_secs(10)).await;
                    "slow"
                },
                async move {
                    s2.sleep(SimDuration::from_secs(1)).await;
                    "fast"
                },
            )
            .await
        });
        assert_eq!(out, Either::Right("fast"));
        // The loser must not hold the clock to 10 s.
        assert_eq!(sim.now(), SimTime::from_nanos(1_000_000_000));
    }

    #[test]
    fn select2_tie_goes_left() {
        let sim = Sim::new(1);
        let out = sim.block_on(async move { select2(async { 1 }, async { 2 }).await });
        assert_eq!(out, Either::Left(1));
    }
}
