package serve

import (
	"sensoragg/internal/engine"
	"sensoragg/internal/obs"
)

// Graceful degradation for the serving layer. The engine's mid-sweep
// retry policy (engine.Retry) already turns most transient faults into
// exact answers over the survivors; what reaches this file is what the
// engine could NOT fix — failed or retry-exhausted (Degraded) epochs.
// Two mechanisms keep the subscription stream useful through them:
//
//   - Last-known-good cache. Every usable answer is cached per
//     subscription; a failed epoch serves the cache instead, stamped
//     with its age (Result.StaleEpochs, Result.LKG) and bounded by
//     Options.MaxStale — beyond the bound the caller sees the real
//     failure rather than arbitrarily old data.
//
//   - Circuit breaker. After Options.BreakerThreshold consecutive
//     epochs with no usable answer the service stops burning tree
//     traffic on batches that will fail: it serves last-known-good
//     directly and sends one cheap half-open probe per epoch. The first
//     usable probe closes the breaker and the full batch runs again in
//     that same epoch — recovery costs zero extra epochs of staleness.
//
// Breaker state is exported on the breaker_state gauge (0 closed,
// 1 half-open, 2 open); cache substitutions count on lkg_served_total.

// Circuit breaker states, mirrored onto the obs breaker_state gauge.
const (
	breakerClosed   = 0
	breakerHalfOpen = 1
	breakerOpen     = 2
)

// usable reports whether a fresh engine answer should be delivered and
// cached as last-known-good. Degraded answers (retry budget exhausted,
// best-known bounds) are delivered only when no cached answer is within
// the staleness bound, and never become last-known-good.
func usable(r engine.Result) bool { return !r.Failed() && !r.Degraded }

// setBreakerLocked moves the breaker and mirrors the state onto the
// gauge. Callers hold s.mu.
func (s *Service) setBreakerLocked(state int) {
	s.breaker = state
	if sk := obs.Active(); sk != nil {
		sk.BreakerState.Set(float64(state))
	}
}

// noteEpochLocked folds one executed epoch's usable-answer count into
// the breaker state machine. Epochs with no subscriptions carry no
// signal. Callers hold s.mu.
func (s *Service) noteEpochLocked(subs, usableCount int) {
	if subs == 0 {
		return
	}
	if usableCount > 0 {
		s.consecFails = 0
		if s.breaker != breakerClosed {
			s.setBreakerLocked(breakerClosed)
		}
		return
	}
	s.consecFails++
	if s.threshold > 0 && s.consecFails >= s.threshold && s.breaker == breakerClosed {
		s.setBreakerLocked(breakerOpen)
	}
}

// lkgLocked builds the last-known-good substitute for a subscription at
// epoch e, if one exists within the staleness bound. Callers hold s.mu.
func (s *Service) lkgLocked(e int, sub *Subscription) (Result, bool) {
	if !sub.hasLKG {
		return Result{}, false
	}
	stale := e - sub.lkgEpoch
	if s.maxStale > 0 && stale > s.maxStale {
		return Result{}, false
	}
	return Result{Epoch: e, SubID: sub.ID, StaleEpochs: stale, LKG: true, Result: sub.lkg}, true
}

// serveLKGLocked delivers every subscription's last-known-good answer
// for an epoch the open breaker refused to execute. Subscriptions with
// nothing cached (or a cache beyond the staleness bound) get an
// explicit failure. Callers hold s.mu.
func (s *Service) serveLKGLocked(e int, subs []*Subscription) ([]Result, int64) {
	sk := obs.Active()
	out := make([]Result, len(subs))
	var drops int64
	for i, sub := range subs {
		r, ok := s.lkgLocked(e, sub)
		if !ok {
			r = Result{Epoch: e, SubID: sub.ID, Result: engine.Result{
				Error: "serve: circuit breaker open and no last-known-good answer within the staleness bound",
			}}
		} else if sk != nil {
			sk.LKGServed.Add(1)
		}
		sub.seen = 0 // no fresh answer: restart the delta-narrowing history
		out[i] = r
		if sub.detached {
			continue
		}
		s.pushLocked(sub, r, &drops)
	}
	return out, drops
}

// pushLocked delivers one result on a subscription channel, shedding
// the oldest undelivered epoch if the subscriber is more than a buffer
// behind — delivery never blocks the epoch stream. Callers hold s.mu.
func (s *Service) pushLocked(sub *Subscription, r Result, drops *int64) {
	select {
	case sub.ch <- r:
	default:
		select {
		case <-sub.ch:
			sub.dropped++
			*drops++
		default:
		}
		select {
		case sub.ch <- r:
		default:
			sub.dropped++
			*drops++
		}
	}
}
