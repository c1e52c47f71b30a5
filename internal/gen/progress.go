package gen

import (
	"netart/internal/place"
	"netart/internal/route"
)

// Progress event kinds, in the order a run emits them: one Placed
// event once placement geometry is final, then per routing attempt an
// Attempt event followed by one Net event per net in routing order.
// The degradation ladder repeats the sequence per rung it escalates
// through: each rung re-places, so it opens with a fresh Placed event.
const (
	// ProgressPlaced reports a finished placement; Event.Placement
	// carries the geometry the routing attempts that follow run over.
	ProgressPlaced = "placed"
	// ProgressAttempt reports the start of one routing attempt;
	// Event.Attempt names its configuration (the same names Report.
	// Attempts lists).
	ProgressAttempt = "attempt"
	// ProgressNet reports one net routed by the attempt's main routing
	// pass, strictly in routing order (see route.Options.OnCommit for
	// the exact contract, including how the retry pass may still
	// improve failed nets afterwards).
	ProgressNet = "net"
)

// ProgressEvent is one pipeline progress notification delivered to
// Options.Progress.
type ProgressEvent struct {
	// Kind is one of the Progress* constants above.
	Kind string
	// Placement is set on ProgressPlaced events. It is the live result
	// the pipeline routes over: consumers must treat it as read-only.
	Placement *place.Result
	// Attempt names the routing attempt; set on ProgressAttempt and
	// ProgressNet events.
	Attempt string
	// Index is the net's position in the routing order and
	// Total the number of nets in the pass (ProgressNet events).
	Index, Total int
	// Net is the outcome for one net (ProgressNet events).
	// Like Placement it aliases live pipeline state: read-only.
	Net *route.RoutedNet
}

// ProgressFunc receives pipeline progress events. Callbacks run
// synchronously on the pipeline goroutine — the net loop of the router
// included — so they must be fast and must not block on slow
// consumers (buffer or drop instead).
type ProgressFunc func(ProgressEvent)

// emit delivers one event when a callback is configured.
func (f ProgressFunc) emit(ev ProgressEvent) {
	if f != nil {
		f(ev)
	}
}
